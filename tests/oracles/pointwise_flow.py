"""Point-by-point reference for the factorized flow solution.

An independent copy of the grid evaluation the flows module used before it
stacked grid points into blocks: one Python iteration per grid point, two
matrix exponentials per conjugation, and a spectrum and trace powers per
state.  It reads only the public data of a ``FlowProblem`` (algebra,
r-matrix context, initial point, grid, order, tolerance and the expansion
coefficients) and imports nothing from ``postlie.flows``.  Besides that
conjugation in the realization, it can sum the truncated adjoint series
sum (-1)^n/n! ad_u^n x0 instead, a second evaluation the library does not
have.
"""

from fractions import Fraction

import numpy as np
from scipy.linalg import expm

from postlie.liealg import algebra_to_json


def _dense(L):
    C = np.zeros((L.dim,) * 3)
    for i, j, k, v in algebra_to_json(L)["structure"]:
        C[i, j, k] = float(Fraction(v))
        C[j, i, k] = -C[i, j, k]
    rho = np.array(
        [[[float(a) for a in row] for row in M] for M in L.realization], dtype=float
    )
    size = rho.shape[1]
    pullback = np.linalg.pinv(rho.reshape(L.dim, size * size).T)
    return C, rho, pullback


def _sorted_eigs(M, tol=1e-10):
    """(spectrum, symmetric branch taken) of one matrix."""
    atol = tol * max(1.0, float(np.abs(M).max()))
    if np.allclose(M, M.T, rtol=0.0, atol=atol):
        return [float(v) for v in np.linalg.eigvalsh(M)], True
    vals = sorted(np.linalg.eigvals(M), key=lambda z: (z.real, z.imag))
    if max(abs(v.imag) for v in vals) < 1e-12:
        return [float(v.real) for v in vals], False
    return [complex(v) for v in vals], False


def _state(rho, t, x):
    M = np.einsum("i,ijk->jk", x, rho)
    eigs, symmetric = _sorted_eigs(M)
    powers = []
    P = np.eye(M.shape[0])
    for k in range(1, M.shape[0] + 1):
        P = P @ M
        powers.append(float(np.trace(P)) / k)
    return {
        "t": float(t),
        "x": [float(c) for c in x],
        "eigenvalues": eigs,
        "trace_powers": powers,
        "symmetric": symmetric,
    }


def pointwise_solution(problem, path="matrix"):
    """(states, worst) for the problem: states as dicts with keys t, x,
    eigenvalues, trace_powers and symmetric (which eigensolver branch the
    state took); worst = (gap, t) is the largest tail gap and the first t
    where it occurs, (0.0, None) when every gap is zero."""
    L = problem.algebra
    C, rho, pullback = _dense(L)
    x0 = np.array(problem.x0, dtype=float)
    X0 = np.einsum("i,ijk->jk", x0, rho)
    chi = problem.chi_coefficients()
    _, Rm = problem.ctx.r_plus_minus()
    Rm_mat = np.array([[float(a) for a in row] for row in Rm.matrix])

    def conjugated(u):
        if path == "matrix":
            U = np.einsum("i,ijk->jk", u, rho)
            M = expm(-U) @ X0 @ expm(U)
            return pullback @ M.reshape(-1)
        acc = x0.copy()
        term = x0
        fact = 1.0
        for n in range(1, problem.order + 1):
            term = np.einsum("i,j,ijk->k", u, term, C)
            fact *= n
            acc = acc + term * ((-1) ** n) / fact
        return acc

    states = []
    worst = (0.0, None)
    for t in problem.t_grid:
        s_full = sum(
            (c * (t ** (m + 1)) for m, c in enumerate(chi)), np.zeros(L.dim)
        )
        x_full = conjugated(Rm_mat @ s_full)
        gap = 0.0
        s_drop = s_full
        for back in range(1, min(2, problem.order) + 1):
            m = problem.order - back
            s_drop = s_drop - chi[m] * (t ** (m + 1))
            x_drop = conjugated(Rm_mat @ s_drop)
            gap = max(gap, float(np.max(np.abs(x_full - x_drop))))
        if gap > worst[0]:
            worst = (gap, t)
        states.append(_state(rho, t, x_full))
    return states, worst
