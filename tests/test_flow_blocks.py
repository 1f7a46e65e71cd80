"""The block-stacked factorized solution against the point-by-point oracle
in tests/oracles/pointwise_flow.py."""

import warnings

import numpy as np
import pytest

from conftest import seeded
from oracles.pointwise_flow import pointwise_solution

from postlie.errors import NonConvergentSeries
from postlie.flows import BLOCK, factorized_solution, toda_problem

# three blocks of the solver, the last one partial
GRID_POINTS = 600


def _grid(top):
    # rises from t = 0 to top inside the second block, then falls back, so
    # the largest tail gap sits inside the grid and not at its end
    up = np.linspace(0.0, top, 400)
    down = np.linspace(0.99 * top, 0.05 * top, GRID_POINTS - 400)
    return tuple(np.concatenate([up, down]))


def _problem_specs():
    """(id, n, diag, offdiag, top of the grid, order, tail warning expected)"""
    rng = seeded(610)
    specs = []
    for n, amp in ((2, 0.1), (3, 0.4), (4, 0.4), (5, 0.4)):
        diag = tuple(rng.uniform(-amp, amp) for _ in range(n))
        off = tuple(rng.uniform(-amp, amp) for _ in range(n - 1))
        specs.append(("random-n%d" % n, n, diag, off, 1.0, 10, n > 2))
    # zero diagonal: the R_minus image of the top (even) order vanishes, so
    # only the two-order drop sees the tail
    specs.append(("parity-n3", 3, (0.0, 0.0, 0.0), (1.0, 0.8), 1.0, 6, True))
    # the top two orders partly cancel, so the one-order drop moves the
    # points furthest
    specs.append(
        ("cancel-n4", 4, (0.36, 0.09, -0.56, 0.95), (0.6, 0.03, -0.55), 1.0, 9, True)
    )
    return specs


SPECS = _problem_specs()


def _solve(problem):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NonConvergentSeries)
        states = factorized_solution(problem)
    tails = [w.message for w in caught if issubclass(w.category, NonConvergentSeries)]
    return states, tails


@pytest.mark.parametrize("spec", SPECS, ids=[s[0] for s in SPECS])
def test_blocked_solution_matches_pointwise_oracle(spec):
    _, n, diag, off, top, order, warns = spec
    problem = toda_problem(n, diag, off, _grid(top), order)
    assert BLOCK < GRID_POINTS < 3 * BLOCK
    states, tails = _solve(problem)
    want, (worst_gap, worst_t) = pointwise_solution(problem)
    assert len(states) == len(want) == GRID_POINTS
    for got, ref in zip(states, want):
        assert got.t == ref["t"]
        assert max(abs(a - b) for a, b in zip(got.x, ref["x"])) <= 1e-13
        assert max(
            abs(a - b) for a, b in zip(got.trace_powers, ref["trace_powers"])
        ) <= 1e-13
        assert max(
            abs(a - b) for a, b in zip(got.eigenvalues, ref["eigenvalues"])
        ) <= 1e-12
    # t = 0 takes the symmetric eigensolver, the flowed points the general one
    assert {ref["symmetric"] for ref in want} == {True, False}
    assert (worst_gap > problem.flow_tolerance) == warns
    if warns:
        assert len(tails) == 1
        assert tails[0].t == worst_t
        assert abs(tails[0].gap - worst_gap) <= 1e-12 * max(1.0, worst_gap)
    else:
        assert tails == []

