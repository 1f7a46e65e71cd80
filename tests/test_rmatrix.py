import math
from fractions import Fraction

import pytest

from postlie import liealg, rmatrix, scalars
from postlie.errors import InvalidInput, NotADirectSum, NotASubalgebra, UnsupportedName
from postlie.liealg import LinearEndo
from conftest import BUILTIN_RMATRICES, random_vector, seeded
from oracles.closed_forms import r_bracket_unhalved

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
    # derived_algebra construction re-runs the Jacobi validator
    derived = rmatrix.derived_algebra(borel_ctx)
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


def test_pm_identities_hold_on_builtin_splittings():
    for name in ("sl2-borel", "split2"):
        ctx = rmatrix.builtin_rmatrix(name)
        report = rmatrix.check_pm_identities(ctx)
        assert report["ok"], (name, report["failures"])


def test_post_product_signs(borel_ctx):
    L = borel_ctx.algebra
    Rp, Rm = borel_ctx.r_plus_minus()
    x, y = (1, 2, 3), (0, -1, 1)
    assert rmatrix.post_product(borel_ctx, "+", x, y) == liealg.bracket(
        L, Rp.apply(x), y
    )
    assert rmatrix.post_product(borel_ctx, "-", x, y) == liealg.bracket(
        L, Rm.apply(x), y
    )
    with pytest.raises(InvalidInput):
        rmatrix.post_product(borel_ctx, "*", x, y)


def test_splitting_r_requires_partition_of_subalgebras():
    L = liealg.builtin("upper_lower_split(2)")
    ctx_ok = rmatrix.splitting_r(L, *L.splitting)
    assert rmatrix.is_rmatrix(L, ctx_ok.R, 1)["ok"]
    with pytest.raises(NotADirectSum):
        rmatrix.splitting_r(L, (0, 1), (1, 2, 3))
    # {E12, E21} spans no subalgebra: [E12,E21] = E11 - E22 escapes
    with pytest.raises(NotASubalgebra):
        rmatrix.splitting_r(L, (0, 2), (1, 3))


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
