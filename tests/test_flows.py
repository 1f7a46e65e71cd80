"""Tests for the isospectral Lax-flow module: the factorized solution, the
RK4 reference integrator, conservation diagnostics, the Toda-type builtin,
and CSV output."""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import exact_context, seeded
from oracles import rowwise_flow_csv
from oracles.lax_series import conjugated_series
from oracles.pointwise_flow import pointwise_solution

from postlie import scalars
from postlie.errors import (
    DimensionMismatch,
    InvalidInput,
    ModeMismatch,
    NonConvergentSeries,
    NoRealization,
    StepTooLarge,
)
from postlie import liealg
from postlie.flows import (
    FlowProblem,
    FlowResult,
    FlowState,
    _pullback,
    _sorted_eigs,
    _states,
    conservation_report,
    factorization_residuals,
    factorized_solution,
    flow_csv,
    lax_vector_field,
    rk4_reference,
    toda_problem,
)
from postlie.liealg import LinearEndo, bracket, builtin, new_lie_algebra, vadd, vscale, vzero
from postlie.magnus import postlie_magnus
from postlie.products import from_rmatrix
from postlie.rmatrix import builtin_rmatrix, rmatrix_context


def _quiet(fn, *args, **kwargs):
    """Run a flow evaluation with truncation-tail warnings silenced (the
    tests that care about the warning assert it explicitly)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonConvergentSeries)
        return fn(*args, **kwargs)


def _unit_toda2_closed_form(t):
    """Closed-form solution of the Lax field on the unit Toda 2x2 problem.

    oracle: with x = a(E11-E22) + u*E12 + l*E21 the field [x, -l*E21] gives
    u' = 0, a' = -u*l, l' = 2*a*l, and a^2 + u*l is a first integral; for
    a0 = 0, u0 = l0 = 1 this integrates by hand to a = -tanh(t), u = 1,
    l = sech(t)^2.  Cross-checked against RK4 at step 1e-3 (gap 1.4e-14).
    """
    a = -math.tanh(t)
    return np.array([a, 1.0, -a, 1.0 / math.cosh(t) ** 2])


def _coord_gap(states_a, states_b):
    return max(
        max(abs(p - q) for p, q in zip(sa.x, sb.x))
        for sa, sb in zip(states_a, states_b)
    )


# ---------------------------------------------------------------------------
# problem construction


def test_toda_problem_places_tridiagonal_entries():
    p = toda_problem(3, (0.5, -0.25, 0.75), (0.1, 0.2), (0.5,), 4)
    L = p.algebra
    coords = dict(zip(L.labels, p.x0))
    assert coords["E11"] == 0.5 and coords["E22"] == -0.25 and coords["E33"] == 0.75
    assert coords["E12"] == coords["E21"] == 0.1
    assert coords["E23"] == coords["E32"] == 0.2
    assert coords["E13"] == coords["E31"] == 0.0
    assert p.t_grid == (0.5,) and p.order == 4


def test_toda_problem_dimension_checks():
    with pytest.raises(DimensionMismatch):
        toda_problem(3, (1.0, 2.0), (0.1, 0.2), (0.5,), 4)
    with pytest.raises(DimensionMismatch):
        toda_problem(2, (1.0, 2.0), (0.1, 0.2), (0.5,), 4)
    with pytest.raises(DimensionMismatch, match="n >= 2"):
        toda_problem(1, (1.0,), (), (0.5,), 4)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_initial_data_rejected(bad):
    with pytest.raises(InvalidInput, match="finite"):
        toda_problem(3, (0.1, bad, 0.2), (0.1, 0.2), (0.5,), 4)
    with pytest.raises(InvalidInput, match="finite"):
        toda_problem(3, (0.1, 0.0, 0.2), (0.1, bad), (0.5,), 4)
    ctx = builtin_rmatrix("split2", mode=scalars.FLOAT)
    with pytest.raises(InvalidInput, match="finite"):
        FlowProblem(ctx, [0.0, bad, 0.0, 1.0], (0.5,), 4)
    with pytest.raises(InvalidInput, match="finite"):
        FlowProblem(ctx, [0.0, 1.0, 0.0, 1.0], (0.5, bad), 4)


def test_flow_problem_refuses_theta_zero():
    """R = -(e + f)(e* + f*) solves the equation with theta = 0 on sl(2), but
    [R_- x, y] is then not post-Lie: the factorization residual stalled at
    1.6e-4 from order 7 to 8 and factorize and flow exited 0."""
    L = builtin("sl(2)", mode=scalars.FLOAT)
    ctx = rmatrix_context(L, LinearEndo(((-1, 0, -1), (0, 0, 0), (-1, 0, -1))), theta=0)
    with pytest.raises(InvalidInput, match=r"theta = 1 \(got theta = 0\.0\)"):
        FlowProblem(ctx, [0.1, 0.2, 0.3], (1.0,), 8)


def test_flow_problem_requires_float_mode():
    with pytest.raises(ModeMismatch):
        FlowProblem(builtin_rmatrix("split2"), [0, 1, 0, 1], (0.5,), 4)


def test_flow_problem_requires_realization():
    ab = new_lie_algebra(2, ("p", "q"), [], mode=scalars.FLOAT)
    ctx = rmatrix_context(ab, [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(NoRealization):
        FlowProblem(ctx, [1.0, 2.0], (0.5,), 4)


def test_flow_problem_rejects_bad_grid_and_order():
    ctx = builtin_rmatrix("split2", mode=scalars.FLOAT)
    with pytest.raises(InvalidInput):
        FlowProblem(ctx, [0, 1, 0, 1], (), 4)
    with pytest.raises(InvalidInput):
        FlowProblem(ctx, [0, 1, 0, 1], (0.5,), 0)


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
def test_flow_problem_rejects_a_bad_flow_tolerance(tolerance):
    # a nan tolerance silenced every tail warning (no gap exceeds it), and a
    # negative or infinite one is no tolerance either
    ctx = builtin_rmatrix("split2", mode=scalars.FLOAT)
    message = "flow tolerance %r: it must be finite and >= 0" % (tolerance,)
    with pytest.raises(InvalidInput, match=re.escape(message)):
        FlowProblem(ctx, [0, 1, 0, 1], (0.5,), 4, flow_tolerance=tolerance)
    with pytest.raises(InvalidInput, match=re.escape(message)):
        toda_problem(3, [0.0] * 3, [2.0, 2.0], [0.0, 2.0], 4, flow_tolerance=tolerance)
    assert FlowProblem(ctx, [0, 1, 0, 1], (0.5,), 4, flow_tolerance=0).flow_tolerance == 0.0


# ---------------------------------------------------------------------------
# the vector field


def test_lax_field_vanishes_on_diagonal_points():
    # diagonal x: the strictly-lower projection is zero, so the field is zero
    ctx = builtin_rmatrix("split2", mode=scalars.FLOAT)
    field = lax_vector_field(ctx, [0.7, 0.0, -0.2, 0.0])
    assert all(abs(c) < 1e-15 for c in field)


def test_lax_field_vanishes_for_identity_r():
    ctx = builtin_rmatrix("sl2-id", mode=scalars.FLOAT)
    field = lax_vector_field(ctx, [0.4, 0.2, -0.3])
    assert all(abs(c) < 1e-15 for c in field)


def test_lax_field_gl2_oracle():
    # oracle: x = E12 + E21 under the upper/strictly-lower splitting has
    # R_minus(x) = -E21, and [E12 + E21, -E21] = -(E11 - E22) by the
    # elementary-matrix commutators [E12, E21] = E11 - E22, [E21, E21] = 0
    ctx = builtin_rmatrix("split2", mode=scalars.FLOAT)
    field = lax_vector_field(ctx, [0.0, 1.0, 0.0, 1.0])
    assert np.allclose(field, [-1.0, 0.0, 1.0, 0.0], atol=1e-15)


def test_lax_field_dimension_check():
    ctx = builtin_rmatrix("split2", mode=scalars.FLOAT)
    with pytest.raises(DimensionMismatch):
        lax_vector_field(ctx, [1.0, 2.0])


# ---------------------------------------------------------------------------
# factorized solution


def test_time_zero_returns_initial_point():
    p = toda_problem(2, (0.1, -0.1), (0.3,), (0.0, 0.4), 6)
    states = _quiet(factorized_solution, p)
    assert np.allclose(states[0].x, p.x0, atol=1e-14)
    assert states[0].t == 0.0


def test_identity_r_freezes_the_flow():
    ctx = builtin_rmatrix("sl2-id", mode=scalars.FLOAT)
    p = FlowProblem(ctx, [0.4, 0.2, -0.3], (0.3, 0.9), 6)
    for s in factorized_solution(p):
        assert np.allclose(s.x, p.x0, atol=1e-12)


def test_factorized_solution_matches_closed_form():
    p = toda_problem(2, (0.0, 0.0), (1.0,), (0.3,), 12, flow_tolerance=1e-3)
    got = np.array(factorized_solution(p)[0].x)
    assert np.max(np.abs(got - _unit_toda2_closed_form(0.3))) < 1e-8


def test_matrix_and_adjoint_paths_agree():
    # the library conjugates in the realization; the oracle sums the
    # truncated adjoint series sum (-1)^n/n! ad_u^n x0 instead
    p = toda_problem(2, (0.1, -0.1), (0.3,), tuple(np.linspace(0.1, 1.0, 5)), 10)
    sm = _quiet(factorized_solution, p)
    sa, _ = pointwise_solution(p, "adjoint")
    assert max(
        max(abs(a - b) for a, b in zip(s.x, ref["x"])) for s, ref in zip(sm, sa)
    ) < 1e-12


def test_factorized_agrees_with_rk4_reference():
    p = toda_problem(2, (0.1, -0.1), (0.3,), tuple(np.linspace(0.1, 1.0, 5)), 10)
    fact = _quiet(factorized_solution, p)
    ref = rk4_reference(p, 1e-3)
    assert _coord_gap(fact, ref) < 1e-6


def test_truncation_order_convergence_is_monotone():
    # consecutive-order gaps at t = 0.5 shrink through the window N = 2..10
    # (measured: 2.6e-4 down to 2.6e-11, allowing the parity plateau a
    # factor-of-two slack)
    xs = {}
    for order in range(2, 11):
        p = toda_problem(2, (0.1, -0.1), (0.3,), (0.5,), order)
        xs[order] = np.array(_quiet(factorized_solution, p)[0].x)
    gaps = [
        float(np.max(np.abs(xs[order + 1] - xs[order]))) for order in range(2, 10)
    ]
    assert gaps[-1] < 1e-9 < 1e-3 < gaps[0] * 10
    for wide, narrow in zip(gaps, gaps[2:]):
        assert narrow < wide


def test_tail_warning_on_aggressive_problem():
    p = toda_problem(2, (0.0, 0.0), (2.0,), (2.0,), 6)
    with pytest.warns(NonConvergentSeries):
        factorized_solution(p)


def test_tail_warning_carries_t_gap_and_tolerance():
    # the problem of test_tail_warning_on_aggressive_problem; oracle: the
    # point-by-point evaluation in tests/oracles/pointwise_flow.py
    p = toda_problem(2, (0.0, 0.0), (2.0,), (2.0,), 6)
    with pytest.warns(NonConvergentSeries) as record:
        factorized_solution(p)
    (w,) = [r.message for r in record if isinstance(r.message, NonConvergentSeries)]
    gap, t = pointwise_solution(p)[1]
    assert w.t == t == 2.0
    assert w.tolerance == p.flow_tolerance == 1e-9
    assert abs(w.gap - gap) <= 1e-12 * gap
    assert str(w) == "truncation tail %.3e at t=2 exceeds flow tolerance 1.0e-09" % (
        w.gap,
    )


def test_flow_with_a_nondiagonal_r_minus():
    # sl(2) split into span(e, h) and span(e + f): R f = -2e - f, so
    # R_minus f = -(e + f) and rho(u(t)) is not nilpotent, which takes the
    # matrix exponential through its Pade branch (measured: gap to RK4
    # 1.7e-12, drifts at most 2.8e-16)
    L = builtin("sl(2)", mode=scalars.FLOAT)
    ctx = rmatrix_context(L, LinearEndo.from_columns([(1, 0, 0), (0, 1, 0), (-2, 0, -1)]), 1)
    p = FlowProblem(ctx, (0.3, -0.2, 0.25), [i / 10 for i in range(6)], 12)
    assert p.r_minus.tolist() == [[0, 0, -1], [0, 0, 0], [0, 0, -1]]
    with warnings.catch_warnings():
        warnings.simplefilter("error", NonConvergentSeries)
        fact = factorized_solution(p)
    ref = rk4_reference(p, 1e-3)
    assert _coord_gap(fact, ref) <= 1e-10
    for result in (fact, ref):
        assert max(conservation_report(result).values()) <= 1e-12


def test_no_tail_warning_within_tolerance():
    p = toda_problem(2, (0.05, -0.05), (0.1,), (0.2,), 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error", NonConvergentSeries)
        factorized_solution(p)


@pytest.mark.parametrize("grid,t", [((0.0, 5e39, 1e40), "5e+39"), ((0.0, 1.0, 1e40), "1e+40")])
def test_nonfinite_expansion_names_first_t(grid, t):
    # t^10 overflows past t ~ 1e30; the check must come before any NumPy
    # warning, and name the first such grid point
    p = toda_problem(3, (0.1, 0.2, -0.1), (0.3, 0.2), grid, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput) as exc:
            factorized_solution(p)
    assert str(exc.value) == "the expansion u(t) is not finite at t=%s" % t


@pytest.mark.parametrize("t2", [1e20, 1e30, 1e33, 1e35, 1e38])
def test_overflowing_exponential_beside_a_nilpotent_one_names_first_t(t2):
    # at t = 1e70 the powers of rho(u) leave the float range, which sends the
    # whole stack to the Pade branch; the nilpotent slice at t2 is kept out of
    # its solve, which raised LinAlgError (Singular matrix) for t2 = 1e30 to
    # 1e35, and gets its Taylor sum, itself overflowing from t2 = 1e30 on
    p = toda_problem(4, (0.1, 0.2, -0.1, 0.3), (0.2, 0.1, 0.3), (t2, 1e70), 4)
    first = 1e70 if t2 < 1e30 else t2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput) as exc:
            factorized_solution(p)
    assert str(exc.value) == "the matrix exponential of u(t) overflows at t=%g" % first


def test_overflowed_state_names_first_t():
    # u(t) and exp(u(t)) stay finite; the flowed point at t = 1e12 has trace
    # powers past the float range, which must be named before NumPy warns
    p = toda_problem(3, (0.0, 0.0, 0.0), (0.3, 0.2), (0.0, 5e11, 1e12), 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput) as exc:
            factorized_solution(p)
    assert str(exc.value) == (
        "the flowed point or its trace powers are not finite at t=1e+12"
    )


def test_factorization_residuals():
    # R = I: R_minus = 0, so chi = x and exp(x) = exp(x) exp(0) at every order
    ctx = builtin_rmatrix("sl2-id", mode=scalars.FLOAT)
    res = factorization_residuals(FlowProblem(ctx, (0.4, 0.1, -0.2), (1.0,), 6))
    assert res == [0.0] * 6
    # Borel splitting at radius 0.3: one residual per order, falling with
    # the truncation tail
    ctx = builtin_rmatrix("sl2-borel", mode=scalars.FLOAT)
    res = factorization_residuals(FlowProblem(ctx, (0.3, 0.0, 0.3), (1.0,), 10))
    assert len(res) == 10 and all(b < a for a, b in zip(res, res[1:]))
    assert res[-1] < 1e-7


# ---------------------------------------------------------------------------
# conservation


def test_unit_toda2_eigenvalues_stay_plus_minus_one():
    # oracle: x0 = E12 + E21 has characteristic polynomial z^2 - 1, so the
    # conserved spectrum is {-1, +1}.  The matrix path conjugates by an
    # exact exponential, so the spectrum is conserved to rounding even out
    # at t = 1 where the coordinate expansion still has a visible tail.
    p = toda_problem(2, (0.0, 0.0), (1.0,), tuple(np.linspace(0.0, 1.0, 9)), 8)
    for s in _quiet(factorized_solution, p):
        assert abs(s.eigenvalues[0] + 1.0) < 1e-10
        assert abs(s.eigenvalues[1] - 1.0) < 1e-10


def test_conservation_report_on_toda4():
    rng = seeded(404)
    diag = [rng.uniform(-0.4, 0.4) for _ in range(4)]
    off = [rng.uniform(-0.4, 0.4) for _ in range(3)]
    p = toda_problem(4, diag, off, tuple(np.linspace(0.0, 1.0, 6)), 10)
    rep = conservation_report(_quiet(factorized_solution, p))
    assert set(rep) == {"max_eig_drift", "max_trace_power_drift"}
    assert rep["max_eig_drift"] < 1e-8
    assert rep["max_trace_power_drift"] < 1e-8


def test_fixed_point_flow_has_zero_drift():
    p = toda_problem(3, (0.4, -0.1, 0.2), (0.0, 0.0), (0.0, 0.5, 1.0), 6)
    states = factorized_solution(p)
    rep = conservation_report(states)
    assert rep["max_eig_drift"] == 0.0
    assert rep["max_trace_power_drift"] == 0.0
    for s in states:
        assert np.allclose(s.x, p.x0, atol=1e-14)


def test_conservation_report_needs_two_states():
    p = toda_problem(2, (0.1, -0.1), (0.3,), (0.5,), 4)
    with pytest.raises(InvalidInput):
        conservation_report(_quiet(factorized_solution, p))


def test_sorted_eigs_of_nearly_symmetric_matrix():
    # oracle: the general eigensolver on the matrix as given; a solver that
    # reads only one triangle drops the 2e-6 perturbation and is off by ~1e-6
    M = np.array([[0.5, 0.3, 0.0], [0.3, -0.25, 0.2], [0.0, 0.2, 0.75]])
    M[0, 1] += 2e-6
    M[1, 2] += 2e-6
    want = sorted(v.real for v in np.linalg.eigvals(M))
    vals, real = _sorted_eigs(M[None])
    assert real.tolist() == [True]
    assert max(abs(a - b) for a, b in zip(vals[0], want)) <= 1e-12


def test_real_spectrum_cut_is_1e_12():
    # oracle: [[a, 1], [-c, a]] has eigenvalues a -/+ i*sqrt(c); imaginary
    # parts of 5e-13 are dropped, those of 5e-12 kept
    a = 0.25
    M = np.array([[[a, 1.0], [-((5e-13) ** 2), a]], [[a, 1.0], [-((5e-12) ** 2), a]]])
    vals, real = _sorted_eigs(M)
    assert real.tolist() == [True, False]
    assert vals[0].tolist() == [a, a]
    assert vals[1].real.tolist() == [a, a]
    assert np.allclose(vals[1].imag, [-5e-12, 5e-12], rtol=1e-6, atol=0.0)


def test_sorted_eigs_orders_tied_real_parts_by_imaginary_part():
    # 20 rotations Q B Q^T of B = [[0, -a, 0], [a, 0, 0], [0, 0, 0]]: the
    # eigensolver puts the real parts of 0 and +-ia at rounding level, either
    # way round, so ordering on the raw (real, imag) swapped 0 and a pair
    # between rows, a false drift of 2a = 0.5526 against row 0
    a = 0.2763
    B = np.array([[0.0, -a, 0.0], [a, 0.0, 0.0], [0.0, 0.0, 0.0]])
    Q = np.linalg.qr(np.random.default_rng(31).standard_normal((20, 3, 3)))[0]
    vals, real = _sorted_eigs(Q @ B @ Q.transpose(0, 2, 1))
    assert not real.any()
    assert np.abs(vals - vals[0]).max() <= 1e-15
    assert np.abs(vals[0] - [-a * 1j, 0.0, a * 1j]).max() <= 1e-15


def test_sorted_eigs_keeps_real_parts_apart_beyond_the_tie_tolerance():
    # a pair 1 +- 2i and the real eigenvalue 1 + 1e-9 (radius sqrt(5), so
    # real parts tie within 2.2e-10): the pair stays first, by real part
    M = np.zeros((1, 3, 3))
    M[0, :2, :2] = [[1.0, -2.0], [2.0, 1.0]]
    M[0, 2, 2] = 1.0 + 1e-9
    vals, real = _sorted_eigs(M)
    assert not real[0]
    assert np.abs(vals[0] - [1 - 2j, 1 + 2j, 1 + 1e-9]).max() <= 1e-15
    M[0, 2, 2] = 1.0 + 1e-11
    assert np.abs(_sorted_eigs(M)[0][0] - [1 - 2j, 1 + 1e-11, 1 + 2j]).max() <= 1e-15


def test_eigenvalues_sorted_ascending():
    p = toda_problem(3, (0.6, -0.2, 0.1), (0.25, 0.15), (0.0, 0.7), 8)
    for s in _quiet(factorized_solution, p):
        assert list(s.eigenvalues) == sorted(s.eigenvalues)


# ---------------------------------------------------------------------------
# RK4 reference


def test_rk4_matches_closed_form():
    p = toda_problem(2, (0.0, 0.0), (1.0,), (0.3, 0.5), 4)
    for s, t in zip(rk4_reference(p, 1e-3), (0.3, 0.5)):
        assert np.max(np.abs(np.array(s.x) - _unit_toda2_closed_form(t))) < 1e-12


def test_rk4_fourth_order_step_ratio():
    # halving the step should shrink the error roughly 16x; measured ratios
    # against the closed form at t = 0.5 are 17.1, 16.5, 16.2
    errs = []
    for step in (0.25, 0.125, 0.0625):
        p = toda_problem(2, (0.0, 0.0), (1.0,), (0.5,), 4)
        got = np.array(rk4_reference(p, step)[0].x)
        errs.append(float(np.max(np.abs(got - _unit_toda2_closed_form(0.5)))))
    for wide, narrow in zip(errs, errs[1:]):
        assert 10.0 < wide / narrow < 24.0


def test_rk4_fixed_point():
    p = toda_problem(2, (0.3, -0.3), (0.0,), (0.5, 1.0), 4)
    for s in rk4_reference(p, 0.1):
        assert np.allclose(s.x, p.x0, atol=1e-14)


def test_rk4_step_too_large():
    p = toda_problem(2, (0.0, 0.0), (1.0,), (5.0,), 4)
    with pytest.raises(StepTooLarge):
        rk4_reference(p, 5.0)


def test_rk4_returns_a_flow_result():
    p = toda_problem(2, (0.1, -0.1), (0.3,), (0.2, 0.5), 4)
    ref = rk4_reference(p, 1e-2)
    assert type(ref) is FlowResult
    assert ref.t.tolist() == [0.2, 0.5]
    assert ref.x.shape == (2, 4) and ref.trace_powers.shape == (2, 2)


def test_rk4_rejects_nonpositive_step():
    p = toda_problem(2, (0.1, -0.1), (0.3,), (0.5,), 4)
    with pytest.raises(InvalidInput):
        rk4_reference(p, 0.0)


@pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf])
def test_rk4_rejects_a_step_that_is_not_finite(step):
    # a NaN step used to fail converting the sub-step count to int, and an
    # infinite one took a single RK4 step per grid interval
    p = toda_problem(3, (0.0, 0.0, 0.0), (0.3, 0.2), (0.0, 0.5, 1.0), 4)
    with pytest.raises(InvalidInput, match="rk4 step %r: it must be finite and > 0" % step):
        rk4_reference(p, step)


@pytest.mark.parametrize("step,count", [(1e-9, "1000000000"), (1 / (1e7 + 0.5), "10000001"),
                                        (5e-324, "inf")])
def test_rk4_rejects_a_step_over_ten_million_substeps(step, count):
    # the sub-steps of the whole grid, ceil(1 / step) here, are counted before
    # the first one is taken: 10^7 + 1 is refused, and a count that overflows
    p = toda_problem(3, (0.0, 0.0, 0.0), (0.3, 0.2), (0.0, 1.0), 4)
    with pytest.raises(InvalidInput, match=r"rk4 step %r needs %s sub-steps, over 10\^7$"
                       % (step, count)):
        rk4_reference(p, step)


def test_rk4_counts_no_substeps_on_zero_spans():
    # a grid that stays at t = 0 takes no sub-step, however small the step
    p = toda_problem(2, (0.1, -0.1), (0.3,), (0.0, 0.0), 4)
    ref = rk4_reference(p, 1e-300)
    assert ref.x.tolist() == [list(p.x0)] * 2


# ---------------------------------------------------------------------------
# CSV output


def test_flow_csv_layout():
    p = toda_problem(2, (0.1, -0.1), (0.3,), (0.0, 0.5, 1.0), 8)
    states = _quiet(factorized_solution, p)
    text = flow_csv(states)
    lines = text.strip().split("\n")
    assert lines[0] == "t,x0,x1,x2,x3,eig1,eig2,F1,F2,eig_drift,trace_power_drift"
    assert len(lines) == 1 + len(states)
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[-1]) == 0.0 and float(first[-2]) == 0.0


def test_flow_csv_rejects_empty():
    with pytest.raises(InvalidInput):
        flow_csv([])


# ---------------------------------------------------------------------------
# FlowResult: columns, and FlowState rows built when read


def _readme_toda4():
    # postlie flow --toda 4 --diag 0.1,0.2,-0.1,0 --offdiag 0.3,0.2,0.1
    #              --t1 1 --steps 21 --order 10
    grid = [0.0 + 1.0 * i / 20 for i in range(21)]
    p = toda_problem(4, (0.1, 0.2, -0.1, 0.0), (0.3, 0.2, 0.1), grid, 10)
    return _quiet(factorized_solution, p)


def _mixed_spectra():
    # rho(x) = [[h, e], [f, -h]] on sl2-borel has eigenvalues
    # +-sqrt(h^2 + e*f): real, complex, real, complex
    ctx = builtin_rmatrix("sl2-borel", mode=scalars.FLOAT)
    xs = np.array(
        [[0.3, 0.0, 0.3], [0.4, 0.3, -0.5], [0.0, 0.5, -0.5], [0.2, 0.1, -0.6]]
    )
    problem = FlowProblem(ctx, xs[0], (0.0,), 1)
    result = FlowResult(*_states(problem, (0.0, 0.5, 1.0, 1.5), xs))
    assert result.real.tolist() == [True, False, True, False]
    return result


def _complex_flow():
    # the same matrix form at x0 = (0.4, 0.3, -0.5): h^2 + e*f < 0 all along
    ctx = builtin_rmatrix("sl2-borel", mode=scalars.FLOAT)
    p = FlowProblem(ctx, (0.4, 0.3, -0.5), tuple(np.linspace(0.0, 1.0, 9)), 8)
    result = _quiet(factorized_solution, p)
    assert not result.real.any()
    return result


RESULTS = [_readme_toda4, _complex_flow, _mixed_spectra]
RESULT_IDS = ["toda4", "complex", "mixed"]


def test_flow_result_columns():
    result = _readme_toda4()
    assert type(result) is FlowResult
    assert result.t.shape == (21,)
    assert result.x.shape == (21, 16)
    assert result.eigenvalues.shape == result.trace_powers.shape == (21, 4)
    assert result.eigenvalues.dtype == complex
    assert result.real.tolist() == [True] * 21
    assert (result.eigenvalues.imag == 0.0).all()


def test_flow_result_len_indexing_and_iteration():
    result = _readme_toda4()
    assert len(result) == 21
    rows = list(result)
    assert len(rows) == 21 and all(type(s) is FlowState for s in rows)
    for i in (0, 7, 20, -1, -21):
        assert result[i].t == rows[i].t == result.t[i]
        assert result[i].x == rows[i].x
    with pytest.raises(IndexError):
        result[21]
    with pytest.raises(IndexError):
        result[-22]


@pytest.mark.parametrize("make", RESULTS, ids=RESULT_IDS)
def test_flow_result_rows_equal_columns(make):
    result = make()
    for i, s in enumerate(result):
        assert type(s.t) is float and s.t == result.t[i]
        assert s.x == tuple(result.x[i].tolist())
        assert s.trace_powers == tuple(result.trace_powers[i].tolist())
        e = result.eigenvalues[i]
        if result.real[i]:
            assert all(type(v) is float for v in s.eigenvalues)
            assert s.eigenvalues == tuple(e.real.tolist())
        else:
            assert all(type(v) is complex for v in s.eigenvalues)
            assert s.eigenvalues == tuple(e.tolist())


@pytest.mark.parametrize("make", RESULTS, ids=RESULT_IDS)
def test_flow_csv_equals_rowwise_oracle(make):
    result = make()
    assert flow_csv(result) == rowwise_flow_csv.flow_csv(list(result))


@pytest.mark.parametrize("make", RESULTS, ids=RESULT_IDS)
def test_conservation_report_equals_rowwise_oracle(make):
    result = make()
    want = rowwise_flow_csv.conservation_report(list(result))
    assert conservation_report(result) == want


def _lax_series_failures(ctx, x0, sign, order):
    """The degrees d where d x_d differs from degree d-1 of [x, R_- x], for
    x = e^{ad_{-u}} x0 and u = R_- chi(x0 t), chi the exact ode expansion of
    the product from_rmatrix(ctx, sign)."""
    L = ctx.algebra
    _, Rm = ctx.r_plus_minus()
    chi = postlie_magnus(L, x0, from_rmatrix(ctx, sign), order, method="ode")
    xs = conjugated_series(L, L.check_vector(x0), [Rm.apply(c) for c in chi.coeffs], order)
    failures = []
    for d in range(1, order + 1):
        field = vzero(L.dim)
        for i in range(d):
            field = vadd(field, bracket(L, xs[i], Rm.apply(xs[d - 1 - i])))
        if vscale(d, xs[d]) != field:
            failures.append(d)
    return failures


@pytest.mark.parametrize(
    "name, order", [("sl2-borel", 10), ("split2", 10), ("upper_lower_split(3)", 8)]
)
def test_explicit_solution_solves_the_lax_flow_exactly(name, order):
    # the paper's x(t) = Ad_{exp(-u(t))} x0, u = R_- chi(x0 t), is checked in
    # float against RK4 above; here term by term in Fractions.  With the
    # left-handed product [R_+ x, y] in place of [R_- x, y] it fails, first
    # at x_3, for these x0 with no zero coordinate
    ctx = exact_context(name)
    rng = seeded(2602)
    for _ in range(3):
        x0 = tuple(
            Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))
            for _ in range(ctx.algebra.dim)
        )
        assert _lax_series_failures(ctx, x0, "-", order) == []
        assert _lax_series_failures(ctx, x0, "+", order)[0] == 3


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("name", ["upper_lower_split(%d)" % n for n in range(2, 9)]
                         + ["gl(%d)" % n for n in range(2, 5)] + ["sl(2)", "so(3)"])
def test_pullback_is_pinv_to_the_bit(monkeypatch, name):
    """gl(n)'s elementary matrices make vec(rho) a permutation matrix, whose
    transpose is built without pinv and equals pinv's output bit for bit,
    C-contiguous as pinv returns it; sl(2) (h = diag(1, -1)) and so(3) keep pinv."""
    rho = np.array(liealg.builtin(name, scalars.FLOAT).realization, dtype=float)
    vec_rows = rho.reshape(len(rho), -1)
    expected = np.linalg.pinv(vec_rows.T)
    pinv = np.linalg.pinv
    calls = []
    monkeypatch.setattr(np.linalg, "pinv", lambda a: calls.append(1) or pinv(a))
    got = _pullback(vec_rows)
    assert _same_bits(got, expected) and got.flags.c_contiguous
    assert calls == ([] if "gl" in name or "split" in name else [1])


def test_pullback_of_signed_partial_permutations_is_pinv_to_the_bit():
    """Columns that are +-1 unit vectors with distinct rows, fewer than the
    rows (a realization by signed elementary matrices of a subalgebra), -0.0
    among the zeros: the transpose, with +0 zeros, is pinv's output to the bit."""
    rng = seeded(3602)
    for _ in range(200):
        size = rng.randint(1, 6)
        dim = rng.randint(1, size * size)
        vec_rows = np.zeros((dim, size * size))
        for j, at in enumerate(rng.sample(range(size * size), dim)):
            vec_rows[j, at] = rng.choice([1.0, -1.0])
        vec_rows[vec_rows == 0] = rng.choice([0.0, -0.0])
        assert _same_bits(_pullback(vec_rows), np.linalg.pinv(vec_rows.T))


def test_toda_problem_pullback_is_pinv_to_the_bit():
    for n in range(2, 9):
        problem = toda_problem(n, [0.1] * n, [0.2] * (n - 1), (0.0, 1.0), 4)
        expected = np.linalg.pinv(problem.rho.reshape(problem.algebra.dim, -1).T)
        assert _same_bits(problem.pullback, expected)
