import math
import pickle
from fractions import Fraction

import pytest

from postlie import liealg, rmatrix, scalars
from postlie.errors import (
    DimensionMismatch,
    InvalidInput,
    JacobiViolation,
    MalformedNumber,
    ModeMismatch,
    NonFiniteNumber,
    NoRealization,
    NotASubalgebra,
    RealizationMismatch,
    UnsupportedName,
)
from conftest import random_vector, seeded
from oracles.jacobi_two_dict import two_dict_defects

F = Fraction


def test_sl2_structure_constants(sl2):
    e, h, f = sl2.basis(0), sl2.basis(1), sl2.basis(2)
    assert liealg.bracket(sl2, h, e) == (2, 0, 0)
    assert liealg.bracket(sl2, h, f) == (0, 0, -2)
    assert liealg.bracket(sl2, e, f) == (0, 1, 0)


def test_so3_cyclic_brackets(so3):
    e1, e2, e3 = (so3.basis(i) for i in range(3))
    assert liealg.bracket(so3, e1, e2) == (0, 0, 1)
    assert liealg.bracket(so3, e2, e3) == (1, 0, 0)
    assert liealg.bracket(so3, e3, e1) == (0, 1, 0)
    # oracle: cross-product table evaluated by hand, [e1+e2, e2] = e3
    assert liealg.bracket(so3, (1, 1, 0), e2) == (0, 0, 1)


def test_bracket_is_bilinear_and_antisymmetric(sl2):
    rng = seeded(101)
    for _ in range(25):
        x = random_vector(sl2, rng)
        y = random_vector(sl2, rng)
        z = random_vector(sl2, rng)
        xy = liealg.bracket(sl2, x, y)
        assert liealg.bracket(sl2, y, x) == tuple(-c for c in xy)
        lhs = liealg.bracket(sl2, liealg.vadd(x, liealg.vscale(F(3), z)), y)
        rhs = liealg.vadd(xy, liealg.vscale(F(3), liealg.bracket(sl2, z, y)))
        assert lhs == rhs


def test_jacobi_holds_on_random_triples(so3):
    rng = seeded(7)
    for _ in range(20):
        x, y, z = (random_vector(so3, rng) for _ in range(3))
        total = liealg.vadd(
            liealg.bracket(so3, x, liealg.bracket(so3, y, z)),
            liealg.vadd(
                liealg.bracket(so3, y, liealg.bracket(so3, z, x)),
                liealg.bracket(so3, z, liealg.bracket(so3, x, y)),
            ),
        )
        assert all(c == 0 for c in total)


def test_non_jacobi_structure_rejected():
    entries = [(0, 1, 0, 1), (1, 2, 1, 1), (0, 2, 2, 1)]
    with pytest.raises(JacobiViolation):
        liealg.new_lie_algebra(3, ["a", "b", "c"], entries)


def test_realization_mismatch_rejected():
    entries = [(0, 1, 0, -2), (0, 2, 1, 1), (1, 2, 2, -2)]
    wrong = [
        [[0, 1], [0, 0]],
        [[1, 0], [0, -1]],
        [[0, 0], [2, 0]],  # f scaled: commutators no longer match
    ]
    with pytest.raises(RealizationMismatch):
        liealg.new_lie_algebra(3, ["e", "h", "f"], entries, wrong)


def _failing_pairs(L, mats):
    """The pairs i < j, in dense-scan order, where [rho(x_i), rho(x_j)]
    differs from rho([x_i, x_j]) in L's mode, from dense matrices."""
    m = len(mats[0])

    def prod(A, B):
        return [[sum(A[a][t] * B[t][b] for t in range(m)) for b in range(m)] for a in range(m)]

    out = []
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            ij, ji = prod(mats[i], mats[j]), prod(mats[j], mats[i])
            bracket = liealg.bracket(L, L.basis(i), L.basis(j))
            defect = [
                ij[a][b] - ji[a][b] - sum(c * mats[k][a][b] for k, c in enumerate(bracket))
                for a in range(m) for b in range(m)
            ]
            if not L.vanishes(defect):
                out.append((i, j))
    return out


@pytest.mark.parametrize("mode", [scalars.EXACT, scalars.FLOAT])
@pytest.mark.parametrize("doubled, pairs", [(1, [(0, 1), (0, 2), (1, 2)]), (2, [(0, 2)])])
def test_realization_mismatch_names_the_smallest_failing_pair(mode, doubled, pairs):
    # sl(2) with one matrix doubled fails on every pair the dense scan lists;
    # the error names the first of them
    sl2 = liealg.builtin("sl(2)", mode)
    entries = [(i, j, k, c) for i, row in enumerate(sl2.C_rows) for j, k, c in row if i < j]
    mats = list(sl2.realization)
    mats[doubled] = [[2 * v for v in row] for row in mats[doubled]]
    assert _failing_pairs(sl2, mats) == pairs
    with pytest.raises(RealizationMismatch) as info:
        liealg.new_lie_algebra(3, sl2.labels, entries, mats, mode)
    assert info.value.pair == pairs[0]


@pytest.mark.parametrize("mode", [scalars.EXACT, scalars.FLOAT])
def test_realization_mismatch_names_the_pair_of_a_dense_scan(mode):
    # seeded perturbations of gl(3)'s elementary matrices, one to three
    # entries each, against the dense scan above
    L = liealg.builtin("gl(3)", mode)
    entries = [(i, j, k, c) for i, row in enumerate(L.C_rows) for j, k, c in row if i < j]
    rng = seeded(2601)
    failed = 0
    for _ in range(40):
        mats = [[list(row) for row in M] for M in L.realization]
        for _ in range(rng.randint(1, 3)):
            M = mats[rng.randrange(L.dim)]
            M[rng.randrange(3)][rng.randrange(3)] += L.ratio(rng.choice([-2, -1, 1, 2]), 2)
        pairs = _failing_pairs(L, mats)
        if not pairs:
            liealg.new_lie_algebra(L.dim, L.labels, entries, mats, mode)
            continue
        with pytest.raises(RealizationMismatch) as info:
            liealg.new_lie_algebra(L.dim, L.labels, entries, mats, mode)
        assert info.value.pair == pairs[0]
        failed += len(pairs) > 1
    assert failed > 20


def test_realization_commutators_match_brackets(sl2):
    rng = seeded(13)
    for _ in range(10):
        x = random_vector(sl2, rng)
        y = random_vector(sl2, rng)
        A, B = sl2.rho(x), sl2.rho(y)
        comm = [
            [
                sum(A[i][k] * B[k][j] - B[i][k] * A[k][j] for k in range(2))
                for j in range(2)
            ]
            for i in range(2)
        ]
        assert tuple(map(tuple, comm)) == sl2.rho(liealg.bracket(sl2, x, y))


def test_trace_form_values(sl2):
    # oracle: 2x2 defining representation traces, tr(rho(h)^2) = 2,
    # tr(rho(e)rho(f)) = 1
    assert liealg.trace_form(sl2, sl2.basis(1), sl2.basis(1)) == 2
    assert liealg.trace_form(sl2, sl2.basis(0), sl2.basis(2)) == 1
    assert liealg.trace_form(sl2, sl2.basis(0), sl2.basis(0)) == 0


def test_trace_form_needs_realization():
    L = liealg.new_lie_algebra(2, ["a", "b"], [(0, 1, 1, 1)])
    with pytest.raises(NoRealization):
        liealg.trace_form(L, L.basis(0), L.basis(1))


def test_ad_matrix_reproduces_bracket(sl2):
    rng = seeded(29)
    x = random_vector(sl2, rng)
    endo = liealg.ad(sl2, x)
    for j in range(3):
        assert endo(sl2.basis(j)) == liealg.bracket(sl2, x, sl2.basis(j))


def test_gl_structure_constants():
    L = liealg.builtin("gl(2)")
    # labels in (a,b) row-major order: E11, E12, E21, E22
    idx = {lab: i for i, lab in enumerate(L.labels)}
    E12, E21 = L.basis(idx["E12"]), L.basis(idx["E21"])
    out = liealg.bracket(L, E12, E21)
    want = [0] * 4
    want[idx["E11"]] = 1
    want[idx["E22"]] = -1
    assert list(out) == want


def test_upper_lower_split_ordering_and_projections():
    L = liealg.builtin("upper_lower_split(2)")
    assert list(L.labels) == ["E11", "E12", "E22", "E21"]
    plus, minus = L.splitting
    assert plus == (0, 1, 2) and minus == (3,)
    # R_plus and -R_minus of the splitting r-matrix are the two projections
    Rp, Rm = rmatrix.splitting_r(L, *L.splitting).r_plus_minus()
    assert Rp((1, 2, 3, 4)) == (1, 2, 3, 0)
    assert Rm((1, 2, 3, 4)) == (0, 0, 0, -4)
    # both ranges really are subalgebras
    for rng_ix in (plus, minus):
        for i in rng_ix:
            for j in rng_ix:
                img = liealg.bracket(L, L.basis(i), L.basis(j))
                assert all(img[k] == 0 for k in range(4) if k not in rng_ix)


def test_splitting_projection_requires_split_algebra(sl2):
    # sl(2) carries no splitting of its own; its projections come from a
    # partition of the basis into two subalgebras, such as the Borel one
    assert sl2.splitting is None
    Rp, Rm = rmatrix.splitting_r(sl2, (0, 1), (2,)).r_plus_minus()
    assert Rp((1, 2, 3)) == (1, 2, 0)
    assert Rm((1, 2, 3)) == (0, 0, -3)
    with pytest.raises(NotASubalgebra):
        rmatrix.splitting_r(sl2, (0, 2), (1,))


def test_max_norm_propagates_nan():
    assert liealg.max_norm((1.0, -3.0)) == 3.0
    assert liealg.max_norm(()) == 0.0
    for v in ((math.nan, 1.0), (1.0, math.nan), (math.inf, math.nan)):
        assert math.isnan(liealg.max_norm(v))


def test_builtin_unknown_name():
    with pytest.raises(UnsupportedName):
        liealg.builtin("e8")
    with pytest.raises(UnsupportedName):
        liealg.builtin("gl(1)")


def test_float_mode_builtin(sl2):
    Lf = liealg.builtin("sl(2)", mode=scalars.FLOAT)
    assert liealg.bracket(Lf, (1.0, 0.0, 1.0), (0.0, 1.0, 0.0)) == (
        pytest.approx(-2.0),
        0.0,
        pytest.approx(2.0),
    )
    with pytest.raises(Exception):
        sl2.check_vector((0.5, 0, 0))  # floats rejected in exact mode


def test_vector_length_checked(sl2):
    with pytest.raises(DimensionMismatch):
        liealg.bracket(sl2, (1, 0), (0, 1, 0))


def test_json_round_trip(sl2):
    data = liealg.algebra_to_json(sl2)
    back = liealg.algebra_from_json(data)
    assert back.dim == sl2.dim and back.labels == sl2.labels
    assert back.C_rows == sl2.C_rows
    assert back.realization == sl2.realization


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("value", [math.nan, math.inf, 10**400, "1e400"],
                         ids=["nan", "inf", "10**400", "'1e400'"])
def test_float_algebra_with_a_non_finite_entry_rejected(dim, value):
    # with dim 2 there is no Jacobi triple to expose a nan; with dim 3 the
    # Jacobi check used to report "defect nan" instead of naming the input
    with pytest.raises(InvalidInput, match="is not a finite number"):
        liealg.new_lie_algebra(dim, None, [(0, 1, 1, value)], None, scalars.FLOAT)


SL2_ENTRIES = [(0, 1, 0, -2), (0, 2, 1, 1), (1, 2, 2, -2)]


def _sl2_realization(entry):
    return [[[0.0, entry], [0.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]], [[0.0, 0.0], [1.0, 0.0]]]


@pytest.mark.parametrize("value,error", [
    (math.nan, NonFiniteNumber), (math.inf, NonFiniteNumber), (-math.inf, NonFiniteNumber),
    (10**400, NonFiniteNumber), (True, ModeMismatch), ("x", MalformedNumber),
], ids=["nan", "inf", "-inf", "10**400", "True", "'x'"])
def test_float_realization_entry_rule(value, error):
    """A realization entry already a float is kept without a coerce call, but
    a NaN or an infinity among them is refused as any other entry is."""
    with pytest.raises(error) as info:
        liealg.new_lie_algebra(3, None, SL2_ENTRIES, _sl2_realization(value), scalars.FLOAT)
    assert type(info.value) is error


def test_float_entries_are_kept_and_a_float_in_exact_mode_refused(monkeypatch):
    calls = []
    coerce = scalars.coerce
    monkeypatch.setattr(scalars, "coerce", lambda v, mode: calls.append(v) or coerce(v, mode))
    entry = 0.0 + 1.0
    L = liealg.new_lie_algebra(3, None, SL2_ENTRIES, _sl2_realization(entry), scalars.FLOAT)
    assert L.realization[0][0][1] is entry
    assert calls == [-2, 1, -2]  # the int structure values
    with pytest.raises(ModeMismatch):
        liealg.new_lie_algebra(3, None, SL2_ENTRIES, _sl2_realization(1.0), scalars.EXACT)


def test_json_malformed_rejected():
    with pytest.raises(InvalidInput):
        liealg.algebra_from_json({"dim": 2})


def test_gl3_with_realization_validates():
    L = liealg.builtin("gl(3)")
    assert L.dim == 9
    rng = seeded(3)
    x = random_vector(L, rng)
    y = random_vector(L, rng)
    # bracket consistent with matrix commutator through rho
    A, B = L.rho(x), L.rho(y)
    comm = [
        [
            sum(A[i][k] * B[k][j] - B[i][k] * A[k][j] for k in range(3))
            for j in range(3)
        ]
        for i in range(3)
    ]
    assert tuple(map(tuple, comm)) == L.rho(liealg.bracket(L, x, y))


# ---------------------------------------------------------------------------
# the Jacobi identity proved by an injective realization
# ---------------------------------------------------------------------------

BUILTIN_ALGEBRAS = ["sl(2)", "so(3)", "gl(2)", "gl(3)", "gl(4)"] + [
    "upper_lower_split(%d)" % n for n in range(2, 6)
]


def _count_scans(monkeypatch):
    """Count the calls of the Jacobi scan from here on."""
    calls = []
    scan = liealg._jacobi_defects
    monkeypatch.setattr(liealg, "_jacobi_defects", lambda rows: calls.append(1) or scan(rows))
    return calls


def _upper_entries(L):
    return [(i, j, k, c) for i, row in enumerate(L.C_rows) for j, k, c in row if i < j]


@pytest.mark.parametrize("mode", [scalars.EXACT, scalars.FLOAT])
@pytest.mark.parametrize("name", BUILTIN_ALGEBRAS)
def test_builtins_are_accepted_without_the_jacobi_scan(monkeypatch, name, mode):
    """Every builtin realization has nonzero matrices of disjoint supports and
    integer entries, so its passing check proves Jacobi and the scan is skipped."""
    calls = _count_scans(monkeypatch)
    L = liealg.builtin(name, mode)
    assert calls == []
    assert liealg._proves_jacobi(L, liealg._realization_entries(L))
    # the same data without the realization are scanned, and pass
    liealg.new_lie_algebra(L.dim, L.labels, _upper_entries(L), None, mode)
    assert calls == [1]


def _scan_first(dim, entries, mats, mode):
    """What the order scan, then realization check raises for structure entries
    (i < j) and realization matrices, from the two-dictionary Jacobi scan and
    the dense realization scan: (JacobiViolation, (indices, defect)),
    (RealizationMismatch, pair) or None."""
    completed = [e for i, j, k, v in entries for e in ((i, j, k, v), (j, i, k, -v))]
    defects = two_dict_defects(liealg.tensor_rows(dim, completed, mode))
    bad = min((t for t, d in defects.items() if not scalars.is_zero(d, mode)), default=None)
    if bad is not None:
        return JacobiViolation, (bad, defects[bad])
    pairs = _failing_pairs(liealg.new_lie_algebra(dim, None, entries, None, mode), mats)
    return (RealizationMismatch, pairs[0]) if pairs else None


@pytest.mark.parametrize("mode", [scalars.EXACT, scalars.FLOAT])
@pytest.mark.parametrize("name", ["sl(2)", "so(3)", "upper_lower_split(3)"])
def test_a_perturbed_constant_raises_what_the_scan_first_order_raises(name, mode):
    """One structure constant changed (an integer step keeps float data
    integral, so the realization check runs first; a half step does not), or
    one added where there was none, with the realization kept: the same
    exception, indices and defect (as pickles) as scan first, then realization."""
    L = liealg.builtin(name, mode)
    base, mats = _upper_entries(L), L.realization
    steps = [L.ratio(s, 2) for s in (2, -2, 4, 1)]
    cases = [base[:at] + [(i, j, k, c + step)] + base[at + 1:]
             for at, (i, j, k, c) in enumerate(base) for step in steps]
    rng = seeded(3601)
    for _ in range(12):
        i, j = sorted(rng.sample(range(L.dim), 2))
        cases.append(base + [(i, j, rng.randrange(L.dim), rng.choice(steps))])
    raised = set()
    for entries in cases:
        expected = _scan_first(L.dim, entries, mats, mode)
        if expected is None:
            liealg.new_lie_algebra(L.dim, L.labels, entries, mats, mode)
            continue
        error, fields = expected
        with pytest.raises(error) as info:
            liealg.new_lie_algebra(L.dim, L.labels, entries, mats, mode)
        assert type(info.value) is error
        got = (info.value.indices, info.value.defect) if error is JacobiViolation else info.value.pair
        assert pickle.dumps(got) == pickle.dumps(fields)
        raised.add(error)
    assert JacobiViolation in raised


@pytest.mark.parametrize("mode", [scalars.EXACT, scalars.FLOAT])
def test_a_realization_mismatch_behind_a_valid_bracket_is_found_first(monkeypatch, mode):
    """sl(2) with its structure intact and f's matrix doubled: the realization
    check runs first, fails on the pair the dense scan names, and the scan
    then runs and passes."""
    calls = _count_scans(monkeypatch)
    sl2 = liealg.builtin("sl(2)", mode)
    mats = [list(M) for M in sl2.realization]
    mats[2] = [[2 * v for v in row] for row in mats[2]]
    with pytest.raises(RealizationMismatch) as info:
        liealg.new_lie_algebra(3, sl2.labels, _upper_entries(sl2), mats, mode)
    assert info.value.pair == _failing_pairs(sl2, mats)[0] == (0, 2)
    assert calls == [1]


def _conjugated_sl2(mode):
    """sl(2) realized by g rho g^-1, g = [[1, 1], [0, 1]]: integer entries
    whose supports overlap."""
    e, h, f = [[0, 1], [0, 0]], [[1, -2], [0, -1]], [[1, -1], [1, -1]]
    return _upper_entries(liealg.builtin("sl(2)", mode)), [e, h, f]


def _scaled_sl2(mode, c):
    """sl(2) realized by c rho, whose structure constants are c times sl(2)'s."""
    sl2 = liealg.builtin("sl(2)", mode)
    return ([(i, j, k, c * v) for i, j, k, v in _upper_entries(sl2)],
            [[[c * v for v in row] for row in M] for M in sl2.realization])


@pytest.mark.parametrize("case", ["overlapping supports", "a zero matrix", "half-integers",
                                  "integers of sum 2^26"])
@pytest.mark.parametrize("mode", [scalars.EXACT, scalars.FLOAT])
def test_the_scan_runs_where_the_realization_proves_nothing(monkeypatch, case, mode):
    """Overlapping supports or a zero matrix leave vec(rho) possibly not
    injective, and float data that are not integers, or integers too large
    for every partial sum to be exact, leave the check inexact: the Jacobi
    scan runs first (in exact mode the last two are exact, and it does not)."""
    if case == "overlapping supports":
        entries, mats = _conjugated_sl2(mode)
        runs = True
    elif case == "a zero matrix":
        # an abelian pair: x_0 as E_11, x_1 as 0
        entries, mats = [], [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
        runs = True
    else:
        c = scalars.ratio(1, 2, mode) if case == "half-integers" else scalars.ratio(2**24, 1, mode)
        entries, mats = _scaled_sl2(mode, c)
        runs = mode == scalars.FLOAT
    calls = _count_scans(monkeypatch)
    L = liealg.new_lie_algebra(len(mats), None, entries, mats, mode)
    assert calls == ([1] if runs else [])
    assert liealg._proves_jacobi(L, liealg._realization_entries(L)) is not runs


@pytest.mark.parametrize("mode", [scalars.EXACT, scalars.FLOAT])
def test_integers_below_the_bound_are_proved(monkeypatch, mode):
    """sl(2) scaled by 2^14: float integers whose absolute sum is below 2^26."""
    calls = _count_scans(monkeypatch)
    entries, mats = _scaled_sl2(mode, scalars.ratio(2**14, 1, mode))
    liealg.new_lie_algebra(3, None, entries, mats, mode)
    assert calls == []


# ---------------------------------------------------------------------------
# each datum coerced once
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name, mode", [
    ("sl(2)", scalars.EXACT), ("so(3)", scalars.EXACT), ("gl(3)", scalars.EXACT),
    ("gl(3)", scalars.FLOAT), ("upper_lower_split(4)", scalars.EXACT),
    ("upper_lower_split(4)", scalars.FLOAT),
])
def test_each_structure_value_is_coerced_once_and_a_native_realization_not_at_all(
        monkeypatch, name, mode):
    """gl(n) hands its values over in the mode's own type, sl(2) and so(3) as
    ints, which exact mode keeps: one coerce_entry call per structure entry,
    none per realization entry."""
    calls = []
    coerce_entry = scalars.coerce_entry
    monkeypatch.setattr(scalars, "coerce_entry",
                        lambda v, m: calls.append(v) or coerce_entry(v, m))
    L = liealg.builtin(name, mode)
    assert len(calls) == len(_upper_entries(L))


@pytest.mark.parametrize("mode", [scalars.EXACT, scalars.FLOAT])
@pytest.mark.parametrize("where", ["structure", "realization"])
@pytest.mark.parametrize("value", [True, False, math.nan, math.inf, -math.inf, 10**400, "1e400",
                                   "x", None, 0.5],
                         ids=["True", "False", "nan", "inf", "-inf", "10**400", "'1e400'", "'x'",
                              "None", "0.5"])
def test_a_bad_entry_is_refused_with_the_message_of_its_coercion(mode, where, value):
    """Booleans, NaN, infinities and other values the mode does not take are
    refused, wherever they sit, with coerce_entry's own exception and message."""
    try:
        scalars.coerce_entry(value, mode)
    except Exception as exc:
        expected = exc
    else:
        return
    entries, mats = list(SL2_ENTRIES), [[[0, 1], [0, 0]], [[1, 0], [0, -1]], [[0, 0], [1, 0]]]
    if where == "structure":
        entries[1] = (0, 2, 1, value)
    else:
        mats[2] = [[0, 0], [value, 0]]
    with pytest.raises(type(expected)) as info:
        liealg.new_lie_algebra(3, None, entries, mats, mode)
    assert type(info.value) is type(expected) and str(info.value) == str(expected)
