"""The sparse tensor core against dense references: Jacobi validation,
bracket/product contraction and the truncated chi recursion, plus
deterministic counts of the products the chi recursion evaluates and of
the scalars a Toda problem coerces."""

import sys
from fractions import Fraction

import pytest

from postlie import enveloping, flows, liealg, magnus, products, rmatrix, scalars
from postlie.errors import JacobiViolation
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
    (liealg.contract on P.T_rows) is set by the recursion alone; rebuilding
    each series up to degree m-1 at every order makes 1,120, and building
    every series up to the full order makes 2,777."""
    L, P = _float_split(4)
    calls = [0]
    contract = liealg.contract

    def counted(rows, x, y):
        calls[0] += rows is P.T_rows
        return contract(rows, x, y)

    _patch_everywhere(monkeypatch, contract, counted)
    x = tuple((i + 1) / 16 for i in range(L.dim))
    magnus.postlie_magnus(L, x, P, 10, method="ode")
    assert calls[0] == 383


@pytest.mark.parametrize("name, order, count", [("split2", 6, 35), ("sl2-borel", 8, 84)])
def test_chi_star_product_count_is_pinned(monkeypatch, name, order, count):
    """Each order n adds only degree n to the star powers of chi: order n
    makes n(n-1)/2 star products, whatever the terms.  Rebuilding every
    lower degree of every power at each order made 70 (split2, order 6) and
    210 (sl2-borel, order 8)."""
    ctx = rmatrix.builtin_rmatrix(name)
    L = ctx.algebra
    calls = [0]
    star_mul = enveloping.star_mul

    def counted(A, B, product):
        calls[0] += 1
        return star_mul(A, B, product)

    _patch_everywhere(monkeypatch, star_mul, counted)
    x = tuple(range(1, L.dim + 1))
    magnus.postlie_magnus(L, x, products.from_rmatrix(ctx, "-"), order)
    assert calls[0] == count


def test_toda_coerce_count_is_pinned(monkeypatch):
    """Vectors are checked where they enter the library, not in its inner
    loops: building a float Toda n = 6 problem (algebra, splitting r-matrix
    context, product) and its order-10 chi coerces 2,913 scalars.  A second
    Yang-Baxter scan of the splitting, which coerced R and the basis again,
    made 5,506; coercing the float chi coefficients as well made 5,866, and
    checking every vector at every internal bracket and product 523,454."""
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
    assert calls[0] == 2913


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
