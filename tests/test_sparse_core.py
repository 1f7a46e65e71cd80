"""The sparse tensor core against dense references: Jacobi validation,
bracket/product contraction and the truncated chi recursion, plus
deterministic counts of the products the chi recursion evaluates and of
the scalars a Toda problem coerces."""

import pickle
import re
import sys
import tracemalloc
from fractions import Fraction

import pytest

from postlie import enveloping, flows, liealg, magnus, products, rmatrix, scalars
from postlie.errors import DimensionMismatch, JacobiViolation
from oracles.jacobi_two_dict import two_dict_defects
from oracles.dense_reference import (
    chi_by_ode_untruncated,
    dense_contract,
    dense_jacobi_violation,
    dense_structure,
)
from conftest import seeded

TOL = 1e-10


def _float_split(n):
    L = liealg.builtin("upper_lower_split(%d)" % n, mode=scalars.FLOAT)
    ctx = rmatrix.splitting_r(L, *L.splitting)
    return L, products.from_rmatrix(ctx, "-")


def _dense_float_tensors(L, P):
    """The dense structure and product tensors rebuilt from the JSON forms."""
    value = lambda v: float(scalars.parse_rational(v))
    data = liealg.algebra_to_json(L)
    C = dense_structure(
        data["dim"], [(i, j, k, value(v)) for i, j, k, v in data["structure"]], 0.0
    )
    T = [[[0.0] * L.dim for _ in range(L.dim)] for _ in range(L.dim)]
    for i, j, k, v in products.product_to_json(P)["product"]:
        T[i][j][k] = value(v)
    return C, T


def _perturbed(entries, dim, rng, deltas):
    """One structure entry shifted, or a new one added, by a random delta."""
    entries = list(entries)
    delta = rng.choice(deltas)
    if rng.random() < 0.5:
        pos = rng.randrange(len(entries))
        i, j, k, v = entries[pos]
        entries[pos] = (i, j, k, v + delta)
    else:
        i, j = sorted(rng.sample(range(dim), 2))
        entries.append((i, j, rng.randrange(dim), delta))
    return entries


@pytest.mark.parametrize("name", ["gl(3)", "so(3)"])
@pytest.mark.parametrize("mode", [scalars.EXACT, scalars.FLOAT])
def test_perturbed_structure_fails_jacobi_where_the_dense_check_does(name, mode):
    data = liealg.algebra_to_json(liealg.builtin(name))
    dim = data["dim"]
    if mode == scalars.EXACT:
        convert, deltas = Fraction, (Fraction(1), Fraction(-1), Fraction(1, 2))
        is_zero = lambda v: v == 0
    else:
        convert, deltas = float, (1e-3, -0.25, 2.0)
        is_zero = lambda v: abs(v) <= TOL
    base = [(i, j, k, convert(scalars.parse_rational(v)))
            for i, j, k, v in data["structure"]]
    rng = seeded(31)
    violations = 0
    for _ in range(40):
        entries = _perturbed(base, dim, rng, deltas)
        expected = dense_jacobi_violation(
            dense_structure(dim, entries, convert(0)), is_zero
        )
        if expected is None:
            liealg.new_lie_algebra(dim, None, entries, mode=mode)
            continue
        violations += 1
        with pytest.raises(JacobiViolation) as info:
            liealg.new_lie_algebra(dim, None, entries, mode=mode)
        assert info.value.indices == expected[0]
        if mode == scalars.EXACT:
            assert info.value.defect == expected[1]
    assert violations >= 10


@pytest.mark.parametrize("name", ["gl(3)", "so(3)", "upper_lower_split(4)"])
@pytest.mark.parametrize("mode", [scalars.EXACT, scalars.FLOAT])
def test_one_pass_jacobi_scan_equals_the_two_dict_scan(name, mode):
    """The one-pass scan gives the two-dictionary scan's defects as pickles
    (values, types and key order) and the same JacobiViolation, on
    perturbed structure constants.  The float ones are scaled by a
    non-integer and shifted by non-integers, so D sums of two terms round,
    and one accumulator per triple, which adds the three D sums' terms
    interleaved, fails here."""
    data = liealg.algebra_to_json(liealg.builtin(name))
    dim = data["dim"]
    rng = seeded(32)
    if mode == scalars.EXACT:
        convert, draw = Fraction, lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    else:
        convert, draw = float, lambda: rng.uniform(-1.5, 1.5)
    base = [(i, j, k, convert(scalars.parse_rational(v))) for i, j, k, v in data["structure"]]
    violations = 0
    for _ in range(40):
        scale = draw() or 1
        entries = [(i, j, k, scale * v) for i, j, k, v in base]
        for _ in range(rng.randint(1, 3)):
            entries = _perturbed(entries, dim, rng, (draw(),))
        completed = [e for i, j, k, v in entries for e in ((i, j, k, v), (j, i, k, -v))]
        rows = liealg.tensor_rows(dim, completed, mode)
        expected = two_dict_defects(rows)
        assert pickle.dumps(liealg._jacobi_defects(rows)) == pickle.dumps(expected)
        bad = min((t for t, d in expected.items() if not scalars.is_zero(d, mode)), default=None)
        if bad is None:
            liealg.new_lie_algebra(dim, None, entries, mode=mode)
            continue
        violations += 1
        with pytest.raises(JacobiViolation) as info:
            liealg.new_lie_algebra(dim, None, entries, mode=mode)
        assert pickle.dumps(info.value.args) == pickle.dumps(JacobiViolation(*bad, expected[bad]).args)
        assert pickle.dumps((info.value.indices, info.value.defect)) == pickle.dumps((bad, expected[bad]))
    assert violations >= 10


def test_bracket_and_product_equal_the_dense_contraction():
    L, P = _float_split(4)
    C, T = _dense_float_tensors(L, P)
    rng = seeded(41)

    def vector():
        return tuple(
            0.0 if rng.random() < 0.3 else rng.uniform(-2.0, 2.0)
            for _ in range(L.dim)
        )

    for _ in range(60):
        x, y = vector(), vector()
        assert liealg.bracket(L, x, y) == dense_contract(C, x, y)
        assert P.apply(x, y) == dense_contract(T, x, y)


def test_float_chi_equals_the_untruncated_recursion():
    L, P = _float_split(3)
    C, T = _dense_float_tensors(L, P)
    rng = seeded(43)
    x = tuple(rng.uniform(-0.5, 0.5) for _ in range(L.dim))
    chi = magnus.postlie_magnus(L, x, P, 8, method="ode")
    reference = chi_by_ode_untruncated(
        x,
        8,
        lambda a, b: dense_contract(T, a, b),
        lambda a, b: dense_contract(C, a, b),
    )
    assert list(chi.coeffs) == reference


def _patch_everywhere(monkeypatch, original, replacement):
    """Replace every binding of original in the package's modules."""
    for name, module in list(sys.modules.items()):
        if name == "postlie" or name.startswith("postlie."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def test_chi_ode_product_count_is_pinned(monkeypatch):
    """Each order m adds only degree m-1 to its two graded series.  With a
    full-support x no term vanishes, so the count of product contractions
    is set by the recursion alone.  The float kernel contracts the pairs
    (a, b) of a degree in one batch; counted is each pair it contracts on
    the product's rows, once for |> and twice for the star commutator,
    which reads them on (a, b) and (b, a).  Rebuilding each series up to
    degree m-1 at every order makes 1,120, and building every series up to
    the full order makes 2,777."""
    L, P = _float_split(4)
    calls, product_layouts = [0], []
    layout, bilinear = magnus._Arrays.layout, magnus._Arrays.bilinear

    def recorded(ops, rows):
        out = layout(ops, rows)
        if rows is P.T_rows:
            product_layouts.append(out)
        return out

    def counted(ops, f, *layouts):
        batch = bilinear(ops, f, *layouts)
        uses = sum(x is y for x in layouts for y in product_layouts)
        uses *= 1 + (f is products.star_commutator)

        def run(A, B):
            calls[0] += uses * len(A)
            return batch(A, B)

        return run

    monkeypatch.setattr(magnus._Arrays, "layout", recorded)
    monkeypatch.setattr(magnus._Arrays, "bilinear", counted)
    x = tuple((i + 1) / 16 for i in range(L.dim))
    magnus.postlie_magnus(L, x, P, 10, method="ode")
    assert calls[0] == 383


def test_exact_chi_ode_contracts_int_vectors_as_often_as_float(monkeypatch):
    """The exact ode chi runs the float recursion on integer numerators over
    one denominator: every vector liealg.contract receives holds only ints,
    and the count of product contractions is the float run's 383."""
    L = liealg.builtin("upper_lower_split(4)")
    P = products.from_rmatrix(rmatrix.splitting_r(L, *L.splitting), "-")
    calls, entry_types = [0], set()
    contract = liealg.contract

    def counted(rows, x, y):
        calls[0] += rows is P.T_rows
        entry_types.update(map(type, x + y))
        return contract(rows, x, y)

    _patch_everywhere(monkeypatch, contract, counted)
    x = tuple(Fraction(i + 1, 16) for i in range(L.dim))
    magnus.postlie_magnus(L, x, P, 10, method="ode")
    assert entry_types == {int}
    assert calls[0] == 383


@pytest.mark.parametrize(
    "name, order, stars, lifts, plains", [("split2", 6, 30, 5, 9), ("sl2-borel", 8, 77, 7, 13)]
)
def test_chi_star_product_count_is_pinned(monkeypatch, name, order, stars, lifts, plains):
    """Each order n adds only degree n to the star powers of chi: order n
    makes n(n-1)/2 - 1 star products, whatever the terms, one lift
    x |> x^{*(n-1)} and at most two plain products, x.D_{n-1} for
    D_n = x^{*n} - x^n and, below the top order, x.x^{*(n-1)} for x^{*n}.
    Rebuilding every lower degree of every power at each order made 70
    (split2, order 6) and 210 (sl2-borel, order 8) star products; one star
    product for x^{*n} at every order, with the plain power x^n built
    beside it, made 35 and 84."""
    ctx = rmatrix.builtin_rmatrix(name)
    L = ctx.algebra
    originals = (enveloping.star_mul, enveloping.triangle_lift, enveloping.env_mul)
    calls = dict.fromkeys(originals, 0)

    def counting(original):
        def counted(*args):
            calls[original] += 1
            return original(*args)
        return counted

    for original in originals:
        _patch_everywhere(monkeypatch, original, counting(original))
    x = tuple(range(1, L.dim + 1))
    magnus.postlie_magnus(L, x, products.from_rmatrix(ctx, "-"), order)
    assert list(calls.values()) == [stars, lifts, plains]


def test_toda_coerce_count_is_pinned(monkeypatch):
    """Vectors are checked where they enter the library, not in its inner
    loops: building a float Toda n = 6 problem (algebra, splitting r-matrix
    context, product) and its order-10 chi coerces 111 scalars.  Coercing
    the gl(6) structure values and realization entries, which builtin now
    forms from the mode's 0 and 1 and new_lie_algebra keeps, made 1,615; the
    splitting scan's basis coercions made 2,911; the zero of a dense
    structure tensor and of a dense product tensor, built before the rows,
    made 2,913; a second Yang-Baxter scan of the splitting, which coerced R
    and the basis again, made 5,506; coercing the float chi coefficients as
    well made 5,866, and checking every vector at every internal bracket
    and product 523,454."""
    calls = [0]
    coerce = scalars.coerce

    def counted(value, mode):
        calls[0] += 1
        return coerce(value, mode)

    monkeypatch.setattr(scalars, "coerce", counted)
    problem = flows.toda_problem(
        6, [0.1, -0.2, 0.05, 0.3, -0.1, 0.2], [0.1, 0.2, -0.1, 0.15, 0.25],
        [0.0, 1.0], 10,
    )
    problem.chi_coefficients()
    assert calls[0] == 111


def _exact_context(name):
    if name.startswith("upper_lower_split"):
        L = liealg.builtin(name)
        return rmatrix.splitting_r(L, *L.splitting)
    return rmatrix.builtin_rmatrix(name)


@pytest.mark.parametrize("name", ("upper_lower_split(3)",) + rmatrix.BUILTIN_RMATRICES)
def test_integral_exact_entries_are_ints(name):
    """R_pm = (R -+ I)/2 gives the splitting products integer-valued
    Fractions; the rows store them as ints, and the chi both methods compute
    from such rows is the same exact series."""
    ctx = _exact_context(name)
    L = ctx.algebra
    P = products.from_rmatrix(ctx, "-")
    entries = [c for rows in (L.C_rows, P.T_rows) for row in rows for _, _, c in row]
    assert entries and all(
        type(c) is int for c in entries if Fraction(c).denominator == 1
    )
    x = tuple(range(1, L.dim + 1))
    assert magnus.postlie_magnus(L, x, P, 5) == magnus.postlie_magnus(
        L, x, P, 5, method="ode"
    )


def test_verify_chi_ode_on_split_gl3_at_order_8():
    L = liealg.builtin("upper_lower_split(3)")
    P = products.from_rmatrix(rmatrix.splitting_r(L, *L.splitting), "-")
    report = magnus.verify_chi_ode(L, (1, -1, 2, 0, 1, -2, 1, 0, 1), P, 8)
    assert report["ok"] and report["first_failure"] is None


def test_tensor_rows_add_float_entries_in_entry_order():
    """Entries at one index add in entry order, as the dense += they
    replace did: (0.1 + 0.2) + 0.3 is not 0.1 + (0.2 + 0.3)."""
    values = (0.1, 0.2, 0.3)
    entries = [(1, 2, 0, v) for v in values] + [(0, 1, 1, 0.7), (1, 0, 2, 0.4)]
    T = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, k, v in entries:
        T[i][j][k] += v
    rows = liealg.tensor_rows(3, entries, scalars.FLOAT)
    assert rows == tuple(
        tuple((j, k, c) for j, row in enumerate(plane) for k, c in enumerate(row) if c != 0)
        for plane in T
    )
    assert rows[1][1][2] == T[1][2][0] != sum(reversed(values))


def test_tensor_rows_drop_a_zero_sum():
    for mode, a in ((scalars.EXACT, Fraction(1, 3)), (scalars.FLOAT, 0.5)):
        rows = liealg.tensor_rows(2, [(0, 1, 1, a), (1, 0, 0, a), (0, 1, 1, -a)], mode)
        assert rows == ((), ((0, 0, a),))


def test_tensor_rows_store_an_integral_fraction_as_int():
    half = Fraction(1, 2)
    rows = liealg.tensor_rows(
        2, [(0, 0, 0, half), (0, 0, 0, half), (1, 1, 1, Fraction(-3)), (1, 1, 0, half)],
        scalars.EXACT,
    )
    assert rows == (((0, 0, 1),), ((1, 0, half), (1, 1, -3)))
    assert type(rows[0][0][2]) is int and type(rows[1][1][2]) is int
    assert type(rows[1][0][2]) is Fraction


def test_tensor_rows_coerce_only_foreign_values(monkeypatch):
    seen = []
    coerce = scalars.coerce

    def counted(value, mode):
        seen.append(value)
        return coerce(value, mode)

    monkeypatch.setattr(scalars, "coerce", counted)
    exact = liealg.tensor_rows(2, [(0, 0, 0, Fraction(1, 3)), (0, 0, 1, 2), (1, 0, 0, "1/2")],
                               scalars.EXACT)
    assert exact == (((0, 0, Fraction(1, 3)), (0, 1, 2)), ((0, 0, Fraction(1, 2)),))
    assert seen == ["1/2"]
    seen.clear()
    floats = liealg.tensor_rows(2, [(0, 0, 0, 0.25), (1, 1, 1, "1/2"), (1, 1, 0, 2)],
                                scalars.FLOAT)
    assert floats == (((0, 0, 0.25),), ((1, 0, 2.0), (1, 1, 0.5)))
    assert type(floats[1][0][2]) is float
    assert seen == ["1/2", 2]


def test_tensor_rows_name_an_out_of_range_entry():
    for entry in ((2, 0, 0, 1), (0, -1, 1, 1), (1, 0, 5, "1/2")):
        with pytest.raises(DimensionMismatch, match=re.escape(repr(entry))):
            liealg.tensor_rows(2, [(0, 1, 0, 1), entry], scalars.EXACT)


def test_from_rmatrix_builds_no_dense_tensor():
    """The product of the gl(8) splitting (dim 64) is built from entries
    into sparse rows (a peak of 0.34 MB, R_minus included); a dense 64^3
    tensor alone takes over 2 MB, and building one first peaked at 5.0 MB."""
    L = liealg.builtin("upper_lower_split(8)", mode=scalars.FLOAT)
    ctx = rmatrix.splitting_r(L, *L.splitting)
    tracemalloc.start()
    try:
        products.from_rmatrix(ctx, "-")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
