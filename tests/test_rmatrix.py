import itertools
import math
import pickle
from fractions import Fraction

import pytest

from postlie import liealg, products, rmatrix, scalars
from postlie.errors import InvalidInput, NotADirectSum, NotASubalgebra, UnsupportedName
from postlie.liealg import LinearEndo
from conftest import BUILTIN_RMATRICES, random_vector, seeded
from oracles.closed_forms import r_bracket_unhalved
from oracles.dense_reference import dense_r_pm, dense_rmatrix_product_entries

F = Fraction


def _ad_e_matrix(L):
    """R = ad_e on sl(2): columns are [e, x_j]."""
    return liealg.ad(L, L.basis(0))


def test_builtin_contexts_solve_their_equations():
    for name in BUILTIN_RMATRICES:
        ctx = rmatrix.builtin_rmatrix(name)
        report = rmatrix.is_rmatrix(ctx.algebra, ctx.R, ctx.theta)
        assert report["ok"], (name, report)


def test_identity_r_matrix_is_modified_solution(sl2):
    ctx = rmatrix.rmatrix_context(sl2, LinearEndo.identity(3), theta=1)
    assert ctx.theta == 1
    # derived bracket = original bracket when R = id
    x, y = (1, 2, -1), (0, 1, 3)
    assert rmatrix.r_bracket(sl2, ctx.R, x, y) == liealg.bracket(sl2, x, y)


def test_ad_e_solves_classical_equation(sl2):
    # oracle: nilpotent ad_e satisfies the theta=0 equation; defect evaluated
    # by hand on all basis pairs in tests/oracles/oracle_values.py
    R = _ad_e_matrix(sl2)
    report = rmatrix.is_rmatrix(sl2, R, 0)
    assert report["ok"]
    # but it is NOT a theta=1 solution
    assert not rmatrix.is_rmatrix(sl2, R, 1)["ok"]


def test_scaled_identity_fails():
    sl2 = liealg.builtin("sl(2)")
    R = LinearEndo.identity(3).scale(F(2))
    report = rmatrix.is_rmatrix(sl2, R, 1)
    assert not report["ok"]
    assert report["worst_pair"] is not None
    with pytest.raises(InvalidInput):
        rmatrix.rmatrix_context(sl2, R, 1)


@pytest.mark.parametrize("diag, pair", [
    ((math.nan, 1.0, -1.0), (0, 1)),
    ((2.0, 2.0, math.nan), (0, 2)),
], ids=["first-pair", "after-a-finite-defect"])
def test_nan_defect_reported_at_its_pair(diag, pair):
    # a nan norm outranks every number, and the first one is kept
    sl2 = liealg.builtin("sl(2)", scalars.FLOAT)
    report = rmatrix.is_rmatrix(sl2, LinearEndo.diagonal(diag), 1)
    assert not report["ok"]
    assert report["worst_pair"] == pair
    assert math.isnan(report["worst_defect_norm"])


def test_theta_restricted_in_context(sl2):
    with pytest.raises(InvalidInput):
        rmatrix.rmatrix_context(sl2, LinearEndo.identity(3), theta=F(1, 2))


def test_r_bracket_antisymmetric_and_jacobi(borel_ctx):
    L = borel_ctx.algebra
    rng = seeded(17)
    for _ in range(15):
        x, y = random_vector(L, rng), random_vector(L, rng)
        xy = rmatrix.r_bracket(L, borel_ctx.R, x, y)
        yx = rmatrix.r_bracket(L, borel_ctx.R, y, x)
        assert xy == tuple(-c for c in yx)
    # the derived algebra of [R_minus x, y] has the R-bracket and is built
    # by the Jacobi validator
    derived = products.derived_algebra(products.from_rmatrix(borel_ctx, "-"))
    assert derived.dim == L.dim


def test_gl2_split_r_bracket_of_off_diagonal_pair_vanishes(split2_ctx):
    # oracle: [R E12, E21] + [E12, R E21] = (E11-E22) - (E11-E22) = 0,
    # computed with explicit 2x2 matrices in tests/oracles/oracle_values.py
    L = split2_ctx.algebra
    idx = {lab: i for i, lab in enumerate(L.labels)}
    out = rmatrix.r_bracket(
        L, split2_ctx.R, L.basis(idx["E12"]), L.basis(idx["E21"])
    )
    assert all(c == 0 for c in out)


def test_r_bracket_unhalved_agrees_for_modified_solutions(borel_ctx):
    L = borel_ctx.algebra
    rng = seeded(23)
    for _ in range(15):
        x, y = random_vector(L, rng), random_vector(L, rng)
        assert rmatrix.r_bracket(L, borel_ctx.R, x, y) == r_bracket_unhalved(
            L, borel_ctx.R, x, y
        )


def test_r_plus_minus_difference_is_identity():
    for name in BUILTIN_RMATRICES:
        ctx = rmatrix.builtin_rmatrix(name)
        Rp, Rm = ctx.r_plus_minus()
        assert Rp - Rm == LinearEndo.identity(ctx.algebra.dim)
        assert Rp + Rm == ctx.R


@pytest.mark.parametrize("mode", [scalars.EXACT, scalars.FLOAT])
def test_r_plus_minus_equal_the_endo_sum_and_scale(mode):
    """R_pm, built entry by entry in one pass, equal (R +/- id) * 1/2 formed
    by LinearEndo sum and scale as pickles: the same values and types,
    -0.0 + 0 and int entries of a float R included."""
    sl2 = liealg.builtin("sl(2)", mode)
    if mode == scalars.EXACT:
        cases = [(sl2, ((F(1, 3), F(-2, 7), 0), (5, F(1, 2), -1), (0, F(9, 4), F(-1, 6))))]
    else:
        cases = [(sl2, ((-0.0, 0.25, -0.0), (1e-300, -0.0, 3), (0, -1.5, 0.1))),
                 (sl2, ((-0.0,) * 3,) * 3)]
    for name in BUILTIN_RMATRICES:
        ctx = rmatrix.builtin_rmatrix(name, mode)
        cases.append((ctx.algebra, ctx.R.matrix))
    for L, matrix in cases:
        R, half, ident = LinearEndo(matrix), L.ratio(1, 2), LinearEndo.identity(L.dim)
        expected = ((R + ident).scale(half), (R - ident).scale(half))
        got = rmatrix.RMatrixContext(L, R, L.ratio(1)).r_plus_minus()
        assert pickle.dumps([e.matrix for e in got]) == pickle.dumps([e.matrix for e in expected])


def _contexts(mode):
    """Every builtin r-matrix context, the splittings of upper_lower_split(2..5),
    the dense non-diagonal theta = 0 matrix on sl(2), and a float R whose
    subnormal entry halves to 0.0."""
    out = [rmatrix.builtin_rmatrix(name, mode) for name in BUILTIN_RMATRICES]
    for n in range(2, 6):
        L = liealg.builtin("upper_lower_split(%d)" % n, mode)
        out.append(rmatrix.splitting_r(L, *L.splitting))
    sl2 = liealg.builtin("sl(2)", mode)
    theta0 = ((-1, 0, -1), (0, 0, 0), (-1, 0, -1))
    out.append(rmatrix.RMatrixContext(sl2, LinearEndo(theta0), sl2.ratio(0)))
    if mode == scalars.FLOAT:
        tiny = ((1.0, 5e-324, 0.0), (-0.0, -1.0, 2.5), (0.0, 0.0, 1.0))
        out.append(rmatrix.RMatrixContext(sl2, LinearEndo(tiny), 1.0))
    return out


@pytest.mark.parametrize("mode", [scalars.EXACT, scalars.FLOAT])
def test_r_pm_and_products_from_nonzeros_equal_the_dense_scans(mode):
    """R_pm, built from the nonzero entries of R, and from_rmatrix, built from
    those of R_pm, have the reprs and pickles of (r +/- delta) * 1/2 over every
    entry and of the product tabulated over every pair (a, i)."""
    for ctx in _contexts(mode):
        L = ctx.algebra
        expected = dense_r_pm(ctx.R.matrix, L.ratio(1, 2))
        got = tuple(e.matrix for e in ctx.r_plus_minus())
        assert repr(got) == repr(expected)
        assert pickle.dumps(got) == pickle.dumps(expected)
        for sign, Rs in zip("+-", expected):
            want = liealg.tensor_rows(L.dim, dense_rmatrix_product_entries(Rs, L.C_rows), mode)
            rows = products.from_rmatrix(ctx, sign).T_rows
            assert repr(rows) == repr(want)
            assert pickle.dumps(rows) == pickle.dumps(want)
            columns = [[(a, Rs[a][i]) for a in range(L.dim) if Rs[a][i] != 0]
                       for i in range(L.dim)]
            assert [list(c) for c in ctx.r_sign_columns(sign)] == columns


def test_pm_identities_hold_on_builtin_splittings():
    for name in ("sl2-borel", "split2"):
        ctx = rmatrix.builtin_rmatrix(name)
        report = rmatrix.check_pm_identities(ctx)
        assert report["ok"], (name, report["failures"])


def test_post_product_signs(borel_ctx):
    L = borel_ctx.algebra
    Rp, Rm = borel_ctx.r_plus_minus()
    x, y = (1, 2, 3), (0, -1, 1)
    assert products.from_rmatrix(borel_ctx, "+").apply(x, y) == liealg.bracket(
        L, Rp.apply(x), y
    )
    assert products.from_rmatrix(borel_ctx, "-").apply(x, y) == liealg.bracket(
        L, Rm.apply(x), y
    )
    with pytest.raises(InvalidInput):
        products.from_rmatrix(borel_ctx, "*")


def test_splitting_r_requires_partition_of_subalgebras():
    L = liealg.builtin("upper_lower_split(2)")
    ctx_ok = rmatrix.splitting_r(L, *L.splitting)
    assert rmatrix.is_rmatrix(L, ctx_ok.R, 1)["ok"]
    with pytest.raises(NotADirectSum):
        rmatrix.splitting_r(L, (0, 1), (1, 2, 3))
    # {E12, E21} spans no subalgebra: [E12,E21] = E11 - E22 escapes
    with pytest.raises(NotASubalgebra):
        rmatrix.splitting_r(L, (0, 2), (1, 3))


def _closure_matches_yang_baxter(L):
    """Over every partition of L's basis, splitting_r accepts exactly when
    is_rmatrix accepts R = diag(+-1) with theta = 1; returns the number
    accepted."""
    accepted = 0
    for signs in itertools.product((1, -1), repeat=L.dim):
        plus = [i for i, s in enumerate(signs) if s > 0]
        minus = [i for i, s in enumerate(signs) if s < 0]
        try:
            ctx = rmatrix.splitting_r(L, plus, minus)
        except NotASubalgebra:
            ctx = None
        report = rmatrix.is_rmatrix(L, LinearEndo.diagonal(signs), 1)
        assert (ctx is not None) == report["ok"], (signs, report)
        if ctx is not None:
            assert rmatrix.is_rmatrix(L, ctx.R, ctx.theta)["ok"]
            accepted += 1
    return accepted


@pytest.mark.parametrize("mode", [scalars.EXACT, scalars.FLOAT])
@pytest.mark.parametrize("name", ["sl(2)", "so(3)", "gl(2)", "upper_lower_split(3)"])
def test_splitting_closure_is_the_yang_baxter_check(name, mode):
    # for R = pi_plus - pi_minus the theta = 1 defect is -4 pi_other[x, y]
    # on a same-side pair and 0 on a mixed one, so closure is the equation
    assert _closure_matches_yang_baxter(liealg.builtin(name, mode)) >= 2


@pytest.mark.parametrize("eps, accepted", [
    (1e-11, True), (2.4e-11, True), (2.6e-11, False), (5e-11, False), (2e-10, False),
])
def test_splitting_closure_near_the_float_tolerance(eps, accepted):
    # [e0, e1] = eps e2: the split {e0, e1} + {e2} leaves 4 eps outside,
    # which is zero only up to TOLERANCE = 1e-10
    L = liealg.new_lie_algebra(3, None, [(0, 1, 2, eps)], None, scalars.FLOAT)
    _closure_matches_yang_baxter(L)
    try:
        rmatrix.splitting_r(L, (0, 1), (2,))
    except NotASubalgebra:
        assert not accepted
    else:
        assert accepted


def _dense_closure_failure(L, plus, minus):
    """The (side, pair) a dense scan reports first: each side in turn, the
    pairs a < b in the order its list gives, each bracket contracted from
    basis vectors and its outside components tested 4 times; None when both
    sides close."""
    for side, idx in (("plus", plus), ("minus", minus)):
        for a in idx:
            for b in idx:
                if a < b:
                    v = liealg.bracket(L, L.basis(a), L.basis(b))
                    if not L.vanishes([4 * c for k, c in enumerate(v) if k not in idx]):
                        return side, (a, b)
    return None


def _closure_failure(L, plus, minus):
    try:
        rmatrix.splitting_r(L, plus, minus)
    except NotASubalgebra as exc:
        return exc.side, exc.witness
    return None


@pytest.mark.parametrize("mode", [scalars.EXACT, scalars.FLOAT])
def test_splitting_closure_reports_the_pair_of_a_dense_scan(mode):
    # upper_lower_split(3): E11 E12 E13 E22 E23 E33 | E21 E31 E32; each side
    # is a subalgebra, its complement or a random set, listed out of order
    L = liealg.builtin("upper_lower_split(3)", mode)
    subalgebras = [(0, 3, 5), (1, 2, 4), (6, 7, 8), (0, 1, 2, 3, 4, 5), (0, 3, 5, 6, 7, 8)]
    rng = seeded(31)
    seen = set()
    for trial in range(120):
        side = list(rng.choice(subalgebras)) if trial % 3 else rng.sample(range(9), 4)
        rest = [i for i in range(9) if i not in side]
        plus, minus = (side, rest) if trial % 2 else (rest, side)
        rng.shuffle(plus)
        rng.shuffle(minus)
        expected = _dense_closure_failure(L, plus, minus)
        assert _closure_failure(L, plus, minus) == expected, (plus, minus)
        seen.add(expected and expected[0])
    assert seen == {"plus", "minus", None}


@pytest.mark.parametrize("mode", [scalars.EXACT, scalars.FLOAT])
@pytest.mark.parametrize("eps", [2.4e-11, 2.6e-11])
@pytest.mark.parametrize("failing", ["plus", "minus"])
def test_splitting_closure_reports_in_list_order(failing, eps, mode):
    # [e0, e1] = e4 and [e0, e2] = eps e4 with e4 central; the side (0, 2, 1)
    # reaches (0, 2) first, which fails unless eps is a float below
    # TOLERANCE / 4 = 2.5e-11, and (0, 1) next; a scan in index order would
    # report (0, 1) either way
    entries = [(0, 1, 4, 1), (0, 2, 4, eps)]
    if mode == scalars.EXACT:
        entries[1] = (0, 2, 4, Fraction(eps))
    L = liealg.new_lie_algebra(5, None, entries, None, mode)
    plus, minus = ([0, 2, 1], [4, 3]) if failing == "plus" else ([4, 3], [0, 2, 1])
    pair = (0, 1) if mode == scalars.FLOAT and eps < 2.5e-11 else (0, 2)
    reported = _closure_failure(L, plus, minus)
    assert reported == _dense_closure_failure(L, plus, minus)
    assert reported == (failing, pair)


def test_borel_splitting_shape(borel_ctx):
    # sl(2) = span(e,h) + span(f); R acts as +1 on the Borel part, -1 on f
    assert borel_ctx.R.apply((1, 0, 0)) == (1, 0, 0)
    assert borel_ctx.R.apply((0, 1, 0)) == (0, 1, 0)
    assert borel_ctx.R.apply((0, 0, 1)) == (0, 0, -1)


def test_subalgebra_analysis_dimensions(split2_ctx):
    report = rmatrix.subalgebra_analysis(split2_ctx)
    assert report["subalgebras_ok"]
    assert report["dim_im_plus"] == 3
    assert report["dim_im_minus"] == 1


def _splitting_context(name, mode):
    if name.startswith("upper_lower_split"):
        L = liealg.builtin(name, mode=mode)
        return rmatrix.splitting_r(L, *L.splitting)
    return rmatrix.builtin_rmatrix(name, mode=mode)


@pytest.mark.parametrize("name", ["split2", "sl2-borel", "upper_lower_split(3)"])
def test_float_subalgebra_analysis_matches_exact(name):
    exact = rmatrix.subalgebra_analysis(_splitting_context(name, "exact"))
    ctx = _splitting_context(name, "float")
    assert rmatrix.subalgebra_analysis(ctx) == exact
    assert exact["subalgebras_ok"] and exact["ideals_ok"]
    # R_plus and R_minus of a splitting are the two projections, so both
    # kernels are nonzero: the float kernel basis is really exercised
    L = ctx.algebra
    for endo, dim in zip(ctx.r_plus_minus(), ("minus", "plus")):
        kernel = rmatrix._kernel_basis(L, endo)
        assert len(kernel) == exact["dim_ker_mp"][dim] > 0
        for v in kernel:
            assert max(abs(c) for c in endo.apply(v)) <= scalars.TOLERANCE


@pytest.mark.parametrize("n, dim_im, dim_ker", [(2, 3, 1), (3, 6, 3)])
def test_subalgebra_analysis_of_the_standard_rmatrix(n, dim_im, dim_ker):
    # R = +1 on E_ab with a < b, -1 with a > b and 0 on the diagonal is no
    # splitting: im R_+ and im R_- share the diagonal, and ker R_-+ is a
    # proper subspace of im R_+-, so the kernel elimination meets overlap
    reports, contexts = {}, {}
    for mode in ("exact", "float"):
        L = liealg.builtin("upper_lower_split(%d)" % n, mode=mode)
        d = [(b > a) - (b < a) for a, b in (map(int, label[1:]) for label in L.labels)]
        contexts[mode] = rmatrix.rmatrix_context(L, LinearEndo.diagonal(d), 1)
        reports[mode] = rmatrix.subalgebra_analysis(contexts[mode])
    assert reports["exact"] == reports["float"] == {
        "dim_im_plus": dim_im,
        "dim_im_minus": dim_im,
        "dim_ker_mp": {"plus": dim_ker, "minus": dim_ker},
        "subalgebras_ok": True,
        "ideals_ok": True,
    }
    ctx = contexts["exact"]
    for endo in ctx.r_plus_minus():
        kernel = rmatrix._kernel_basis(ctx.algebra, endo)
        assert len(kernel) == dim_ker
        for v in kernel:
            assert all(c == 0 for c in endo.apply(v)), v


def test_builtin_rmatrix_unknown_name():
    with pytest.raises(UnsupportedName):
        rmatrix.builtin_rmatrix("frobnicate")


def test_json_round_trip(borel_ctx):
    data = rmatrix.rmatrix_to_json(borel_ctx)
    back = rmatrix.rmatrix_from_json(borel_ctx.algebra, data)
    assert back.R == borel_ctx.R
    assert back.theta == borel_ctx.theta


@pytest.mark.parametrize(
    "data", [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], {"theta": "1"}, {"matrix": 5}]
)
def test_json_malformed_rejected(sl2, data):
    with pytest.raises(InvalidInput, match="malformed r-matrix JSON"):
        rmatrix.rmatrix_from_json(sl2, data)
