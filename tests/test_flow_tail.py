"""The truncation-tail warning of factorized_solution, which measures the tail
at three grid points at most, against the full-grid heuristic of the
point-by-point oracle in tests/oracles/pointwise_flow.py, and the number of
matrices the solution exponentiates."""

import warnings

import numpy as np
import pytest

from conftest import seeded
from oracles.pointwise_flow import pointwise_solution

from postlie import flows, liealg, rmatrix, scalars
from postlie.errors import InvalidInput, NonConvergentSeries
from postlie.flows import FlowProblem, factorized_solution, toda_problem


def _grid(rng):
    # 1 to 301 points: from 0, symmetric about 0, sorted random or unsorted random
    points = rng.choice([1, 2, 3, 11, 57, 101, 301])
    top = rng.uniform(0.2, 2.5)
    kind = rng.randrange(4)
    if kind == 0:
        return tuple(np.linspace(0.0, top, points).tolist())
    if kind == 1:
        return tuple(np.linspace(-top, top, points).tolist())
    ts = [rng.uniform(-top, top) for _ in range(points)]
    return tuple(sorted(ts) if kind == 2 else ts)


def _corpus(count, seed):
    """(id, problem): Toda n = 2..8, sl2-borel and split2 with random x0, and
    upper_lower_split(3|4) with a dense x0; orders 2-12, amplitudes up to 1.2."""
    rng = seeded(seed)
    cases = []
    for i in range(count):
        kind = rng.randrange(5)
        order = rng.randint(2, 12)
        tolerance = rng.choice([1e-9, 1e-9, 1e-6, 1e-12, 0.0])
        grid = _grid(rng)
        if kind <= 1:
            n = rng.randint(2, 8)
            amp = rng.uniform(0.05, 1.2)
            diag = [rng.uniform(-amp, amp) for _ in range(n)]
            off = [rng.uniform(-amp, amp) for _ in range(n - 1)]
            cases.append(("toda%d-%d" % (n, i), toda_problem(n, diag, off, grid, order, tolerance)))
            continue
        if kind <= 3:
            name = rng.choice(["sl2-borel", "split2"])
            ctx = rmatrix.builtin_rmatrix(name, mode=scalars.FLOAT)
            amp = rng.uniform(0.05, 1.2)
        else:
            name = "dense%d" % rng.choice([3, 4])
            L = liealg.builtin("upper_lower_split(%s)" % name[-1], mode=scalars.FLOAT)
            ctx = rmatrix.splitting_r(L, *L.splitting)
            amp = rng.uniform(0.05, 0.8)
        x0 = [rng.uniform(-amp, amp) for _ in range(ctx.algebra.dim)]
        cases.append(("%s-%d" % (name, i), FlowProblem(ctx, x0, grid, order, tolerance)))
    return cases


def _tails(problem):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NonConvergentSeries)
        factorized_solution(problem)
    return [w.message for w in caught if issubclass(w.category, NonConvergentSeries)]


def test_tail_warning_matches_full_grid_heuristic():
    # oracle: the worst gap over every grid point of the one- and two-order
    # drops; the warning must fire exactly when it exceeds the tolerance and
    # name the same t and gap, except for a tail at rounding level with a
    # tolerance of 0 (measured on 2000 corpus problems of this shape: one
    # exception, a gap of 2.8e-17 named at another t)
    warned = 0
    for name, problem in _corpus(100, 3400):
        tails = _tails(problem)
        gap, t = pointwise_solution(problem)[1]
        if problem.flow_tolerance == 0 and gap <= 1e-15:
            assert len(tails) <= 1 and all(w.gap <= 1e-15 for w in tails), name
            continue
        assert len(tails) == (gap > problem.flow_tolerance), name
        if tails:
            warned += 1
            assert tails[0].t == t, name
            assert abs(tails[0].gap - gap) <= 1e-12 * max(1.0, gap), name
    assert 40 <= warned < 100


def test_tail_below_rounding_with_zero_tolerance():
    # with a tolerance of 0 and a tail far below the rounding of x, whether
    # the warning fires and the t and gap it names depend on the points
    # measured and on rounding: both gaps stay at that level (measured on
    # these problems: the oracle's worst gap 0 to 1.6e-23, the warning's
    # 0 to 1.3e-24, 5 of 20 differing from the oracle's)
    rng = seeded(3401)
    for _ in range(20):
        n = rng.randint(2, 6)
        amp = rng.choice([1e-3, 1e-2])
        diag = [rng.uniform(-amp, amp) for _ in range(n)]
        off = [rng.uniform(-amp, amp) for _ in range(n - 1)]
        grid = tuple(np.linspace(-1.0, 1.0, rng.choice([5, 51, 301])).tolist())
        problem = toda_problem(n, diag, off, grid, rng.randint(10, 12), 0.0)
        tails = _tails(problem)
        assert pointwise_solution(problem)[1][0] <= 1e-20
        assert len(tails) <= 1 and all(w.gap <= 1e-20 for w in tails)


def test_exponentials_per_grid_point(monkeypatch):
    # one exponential per grid point, plus the one- and two-order drops at
    # three points at most (the parent's tail heuristic took three per point)
    seen = []

    def counting(A):
        seen.append(int(np.prod(np.shape(A)[:-2])))
        return expm(A)

    expm = flows._expm
    monkeypatch.setattr(flows, "_expm", counting)
    grid = [i / 2000 for i in range(2001)]
    problem = toda_problem(4, (0.2, -0.1, 0.3, -0.25), (0.3, -0.2, 0.25), grid, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonConvergentSeries)
        assert len(factorized_solution(problem)) == 2001
    assert 2001 < sum(seen) <= 2001 + 9


@pytest.mark.parametrize("grid,t", [((0.0, 1.0, 2.0), "0"), ((2.0, -1.0, 0.5, 2.0, -1.0), "2")])
def test_overflow_at_a_measured_point_names_its_t(monkeypatch, grid, t):
    # the grid's exponentials are finite and those of the truncated sums at
    # the measured points are not: the overflow error of the full sum, naming
    # the first measured point in grid order
    expm = flows._expm
    calls = []

    def overflow_drops(A):
        calls.append(len(A))
        E, E_inv = expm(A)
        if len(calls) == 2:
            E[:] = np.inf
        return E, E_inv

    monkeypatch.setattr(flows, "_expm", overflow_drops)
    problem = toda_problem(3, (0.1, 0.0, -0.1), (0.3, 0.2), grid, 6)
    with pytest.raises(InvalidInput) as exc:
        factorized_solution(problem)
    assert calls[0] == len(grid)
    assert str(exc.value) == "the matrix exponential of u(t) overflows at t=%s" % t
