"""Isospectral Lax flows dx/dt = [x, R_minus(x)]: the exact factorized
solution driven by the graded expansion of the magnus module, the residual
of the truncated two-factor factorization, a classical RK4 reference
integrator, conservation diagnostics, and the Toda-type built-in family on
the upper/strictly-lower splitting of gl(n).

Float mode throughout: the expansion coefficients are computed once per
(x0, order) through the g-level recursion and rescaled along the time grid
by t-degree homogeneity.  The grid is evaluated BLOCK points at a time,
each block with stacked NumPy calls, the matrix exponential included.
"""

from __future__ import annotations

import math
import warnings
from weakref import WeakKeyDictionary

import numpy as np

from . import scalars
from .errors import (
    DimensionMismatch,
    InvalidInput,
    ModeMismatch,
    NonConvergentSeries,
    NoRealization,
    StepTooLarge,
)
from .liealg import bracket, builtin, vscale
from .magnus import postlie_magnus
from .products import from_rmatrix
from .rmatrix import splitting_r

# grid points per stacked evaluation: enough to amortize the per-call cost
# of expm, inv and the eigensolvers; stacking a whole 2001-point grid at
# once instead raised the peak memory of Toda n = 3, 3, 4 passes by 2.5 MB
BLOCK = 256

# cached float tensors per algebra: structure constants and realization stack
_np_cache = WeakKeyDictionary()


def _np_data(L):
    data = _np_cache.get(L)
    if data is None:
        C = np.zeros((L.dim,) * 3)
        for i, row in enumerate(L.C_rows):
            for j, k, c in row:
                C[i, j, k] = float(c)
        data = {"C": C}
        if L.realization is not None:
            stack = np.array(L.realization, dtype=float)
            data["rho"] = stack
            # pseudo-inverse of vec(rho): pulls a matrix back to coordinates
            data["pullback"] = np.linalg.pinv(stack.reshape(L.dim, -1).T)
        _np_cache[L] = data
    return data


# Pade-13 coefficients b_k = (26-k)!/(k!(13-k)!) (Higham, SIAM J. Matrix Anal. 2005)
_PADE13 = [math.perm(26 - k, 13) // math.factorial(k) for k in range(14)]


def _expm(A):
    """exp of each matrix of a stack (..., n, n): Pade-13 scaling and squaring, with
    s per slice from the exact ||A^p||^(1/p), p = 6, 8, 10 (Al-Mohy and Higham 2009).
    A slice whose exponential overflows comes back not finite, without a warning."""
    A = np.asarray(A, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        if A.shape[-1] == 1:
            return np.exp(A)
        norm = lambda M: np.abs(M).sum(axis=-2).max(axis=-1)
        I = np.eye(A.shape[-1])
        A2 = A @ A
        A4 = A2 @ A2
        A6 = A4 @ A2
        d6, d8, d10 = (
            norm(M) ** (1 / p) for M, p in ((A6, 6), (A4 @ A4, 8), (A4 @ A6, 10))
        )
        # where A^8 = 0, as for rho(u) of Toda flows up to n = 8, exp(A) is this
        # Taylor sum; on such slices of large norm the pivoted solve loses digits
        T = I + A2 / 2 + A4 / 24 + A6 / 720 + A @ (I + A2 / 6 + A4 / 120 + A6 / 5040)
        if (d8 == 0).all():
            return T
        eta = np.minimum(np.maximum(d6, d8), np.maximum(d8, d10))
        # a slice whose powers leave the float range has no finite exponential
        # here; it stays NaN and is kept out of the solve
        ok = np.isfinite(eta)
        # theta_13 = 4.25: the largest eta at which Pade-13's backward error is <= 2^-53
        s = np.ceil(np.log2(np.maximum(eta[ok] / 4.25, 1.0)))
        c = (2.0 ** -s)[:, None, None]
        A, A2, A4, A6 = A[ok] * c, A2[ok] * c**2, A4[ok] * c**4, A6[ok] * c**6
        P = lambda k: _PADE13[k + 6] * A6 + _PADE13[k + 4] * A4 + _PADE13[k + 2] * A2
        U = A @ (A6 @ P(7) + P(1) + _PADE13[1] * I)
        V = A6 @ P(6) + P(0) + _PADE13[0] * I
        Y = np.linalg.solve(V - U, V + U)
        # square each slice s times; a block can mix small and large t
        for k in range(int(s.max(initial=0))):
            m = s > k
            Y[m] = Y[m] @ Y[m]
        X = np.full(T.shape, np.nan)
        X[ok] = Y
    return np.where((d8 == 0)[..., None, None], T, X)


def _bracket_np(L, x, y):
    C = _np_data(L)["C"]
    return np.einsum("i,j,ijk->k", x, y, C)


def _rho_np(L, x):
    """rho of each coordinate row of x (..., dim), as a (..., size, size) stack."""
    return np.tensordot(x, _np_data(L)["rho"], axes=1)


def _rminus_np(ctx):
    """R_minus of the context as a float matrix (column j = image of x_j)."""
    _, Rm = ctx.r_plus_minus()
    return np.array(Rm.matrix, dtype=float)


def lax_vector_field(ctx, x):
    """[x, R_minus(x)], the right side of the Lax flow."""
    L = ctx.algebra
    x = L.check_vector(x)
    _, Rm = ctx.r_plus_minus()
    return bracket(L, x, Rm.apply(x))


class FlowState:
    """Snapshot along a flow: the point, its spectrum (sorted), and the
    normalized trace powers F_k = tr(rho(x)^k)/k."""

    def __init__(self, t, x, eigenvalues, trace_powers):
        self.t = t
        self.x = tuple(x)
        self.eigenvalues = tuple(eigenvalues)
        self.trace_powers = tuple(trace_powers)

    def __repr__(self):
        return "FlowState(t=%g)" % (self.t,)


def _sorted_eigs(M):
    """Spectrum of each matrix of a stack (..., n, n), one list per matrix;
    a single matrix gives a single list.  Real spectra are floats in
    ascending order, others complex values ordered by (real, imag)."""
    M = np.asarray(M, dtype=float)
    stack = M.reshape((-1,) + M.shape[-2:])
    # eigvalsh reads one triangle only, so the symmetry test must be absolute:
    # a relative test would pass an asymmetry of 1e-6 on entries near 0.1
    # and shift the spectrum by the same order
    atol = scalars.TOLERANCE * np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))
    asym = np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2))
    sym = asym <= atol
    out = [None] * len(stack)
    if sym.any():
        for i, vals in zip(np.flatnonzero(sym), np.linalg.eigvalsh(stack[sym])):
            out[i] = vals.tolist()
    if not sym.all():
        vals = np.linalg.eigvals(stack[~sym]).astype(complex)
        order = np.lexsort((vals.imag, vals.real), axis=-1)
        vals = np.take_along_axis(vals, order, axis=-1)
        for i, row in zip(np.flatnonzero(~sym), vals):
            real = np.abs(row.imag).max() < 1e-12
            out[i] = row.real.tolist() if real else row.tolist()
    return out[0] if M.ndim == 2 else out


def _states(L, ts, xs, finite=True):
    """FlowStates at the times ts for the coordinate rows of xs, with the
    spectra and trace powers of the whole stack computed together.  With
    finite set, raises InvalidInput naming the first t at which the point or
    its trace powers are not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        M = _rho_np(L, xs)
        powers = []
        P = np.eye(M.shape[-1])
        for k in range(1, M.shape[-1] + 1):
            P = P @ M
            powers.append(np.trace(P, axis1=-2, axis2=-1) / k)
    powers = np.stack(powers, axis=-1)
    bad = ~np.isfinite(np.concatenate([xs, powers], axis=-1)).all(axis=-1)
    if finite and bad.any():
        raise InvalidInput(
            "the flowed point or its trace powers are not finite at t=%g" % ts[bad.argmax()]
        )
    eigs = _sorted_eigs(M)
    powers = powers.tolist()
    return [
        FlowState(float(t), x, e, f)
        for t, x, e, f in zip(ts, xs.tolist(), eigs, powers)
    ]


class FlowProblem:
    """A Lax flow instance: r-matrix context (float mode), initial point,
    evaluation grid, and the truncation order of the expansion."""

    def __init__(self, ctx, x0, t_grid, order, flow_tolerance=1e-9):
        L = ctx.algebra
        if L.mode != scalars.FLOAT:
            raise ModeMismatch("flows require a float-mode algebra")
        if L.realization is None:
            raise NoRealization("flow problems need a matrix realization")
        if not t_grid:
            raise InvalidInput("t_grid must be nonempty")
        if int(order) < 1:
            raise InvalidInput("order must be >= 1")
        self.ctx = ctx
        self.algebra = L
        self.x0 = L.check_vector(x0)
        self.t_grid = tuple(float(t) for t in t_grid)
        if not all(map(math.isfinite, self.x0 + self.t_grid)):
            raise InvalidInput("the initial point and the time grid must be finite")
        self.order = int(order)
        self.flow_tolerance = float(flow_tolerance)
        self._product = None
        self._chi = None

    def product(self):
        if self._product is None:
            self._product = from_rmatrix(self.ctx, "-")
        return self._product

    def chi_coefficients(self):
        """chi_m(x0) for m = 1..order, computed once; chi(x0 t) follows by
        degree-m homogeneity."""
        if self._chi is None:
            chi = postlie_magnus(
                self.algebra, self.x0, self.product(), self.order, method="ode"
            )
            self._chi = tuple(
                np.array(chi.coeff(m), dtype=float) for m in range(1, self.order + 1)
            )
        return self._chi


def factorized_solution(problem):
    """x(t) = Ad_{exp(-u(t))} x0 with u(t) = R_minus(chi(x0 t)), one state per
    grid point, conjugating in the realization.  Emits a NonConvergentSeries
    warning when dropping the top expansion order moves any point by more
    than the flow tolerance.
    """
    L = problem.algebra
    chi = np.array(problem.chi_coefficients())
    order = len(chi)
    grid = problem.t_grid
    # u(t) for the full sum, then for the tail estimate: drop the top order,
    # and the top two (series with parity structure can have a vanishing
    # R_minus image at the very top order, which would blind the one-order
    # comparison).  R_minus is linear, so it acts on the coefficients.
    kept = [order - back for back in range(min(2, order) + 1)]
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.array(grid)[:, None] ** np.arange(1, order + 1)
        chi_minus = chi @ _rminus_np(problem.ctx).T
        u = np.stack([powers[:, :m] @ chi_minus[:m] for m in kept])
    bad = ~np.isfinite(u).all(axis=(0, 2))
    if bad.any():
        raise InvalidInput("the expansion u(t) is not finite at t=%g" % grid[bad.argmax()])
    X0 = _rho_np(L, np.array(problem.x0))
    pullback = _np_data(L)["pullback"]
    states = []
    gaps = np.empty(len(grid))
    for lo in range(0, len(grid), BLOCK):
        E = _expm(_rho_np(L, u[:, lo:lo + BLOCK]))
        bad = ~np.isfinite(E).all(axis=(0, 2, 3))
        if bad.any():
            raise InvalidInput(
                "the matrix exponential of u(t) overflows at t=%g" % grid[lo + bad.argmax()]
            )
        with np.errstate(over="ignore", invalid="ignore"):
            M = np.linalg.inv(E) @ X0 @ E
            xs = M.reshape(E.shape[:2] + (-1,)) @ pullback.T
        gaps[lo:lo + BLOCK] = np.abs(xs[1:] - xs[0]).max(axis=(0, 2))
        states += _states(L, grid[lo:lo + BLOCK], xs[0])
    worst = int(np.argmax(gaps))
    if gaps[worst] > problem.flow_tolerance:
        warnings.warn(
            NonConvergentSeries(grid[worst], float(gaps[worst]), problem.flow_tolerance)
        )
    return states


def factorization_residuals(problem):
    """||exp(x0) - exp(R_plus chi_<=m) exp(-R_minus chi_<=m)||_2 for m = 1..order,
    in the realization, where chi_<=m sums the expansion of x0 through order
    m: how far the truncated two-factor form of the factorization theorem is
    from exp(x0).  Raises InvalidInput if a matrix exponential overflows."""
    L = problem.algebra
    Rp, Rm = problem.ctx.r_plus_minus()
    with np.errstate(over="ignore", invalid="ignore"):
        partial = np.cumsum(problem.chi_coefficients(), axis=0).tolist()
    halves = [Rp.apply(v) for v in partial] + [vscale(-1, Rm.apply(v)) for v in partial]
    exps = _expm(np.array([L.rho(v) for v in [problem.x0] + halves], dtype=float))
    if not np.isfinite(exps).all():
        raise InvalidInput("the matrix exponential overflows")
    E, plus, minus = exps[0], exps[1:len(partial) + 1], exps[len(partial) + 1:]
    return [float(np.linalg.norm(E - p @ m, 2)) for p, m in zip(plus, minus)]


def _rk4_step(L, Rm_mat, x, h):
    def f(v):
        return _bracket_np(L, v, Rm_mat @ v)

    k1 = f(x)
    k2 = f(x + 0.5 * h * k1)
    k3 = f(x + 0.5 * h * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def rk4_reference(problem, step):
    """Classical fourth-order integration of the Lax field, stepping from
    t = 0 to each grid point with uniform sub-steps of size <= step."""
    if step <= 0:
        raise InvalidInput("step must be positive")
    L = problem.algebra
    Rm_mat = _rminus_np(problem.ctx)
    x = np.array(problem.x0, dtype=float)
    t = 0.0
    xs = [x]
    for target in problem.t_grid:
        span = target - t
        n = max(1, int(np.ceil(abs(span) / step))) if span != 0.0 else 0
        h = span / n if n else 0.0
        for _ in range(n):
            x = _rk4_step(L, Rm_mat, x, h)
        t = target
        if not np.all(np.isfinite(x)):
            break
        xs.append(x)
    reached = problem.t_grid[: len(xs) - 1]
    # states past the first drifting one are discarded, and their trace
    # powers may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        ref, *states = _states(L, (0.0,) + reached, np.array(xs), finite=False)
    scale = max(1.0, max(abs(f) for f in ref.trace_powers))
    for state, (_, drift) in zip(states, _drifts([ref] + states)[1:]):
        if drift > 0.25 * scale:
            raise StepTooLarge(
                "trace-power drift %.3e at t=%g; decrease the step" % (drift, state.t)
            )
    if len(states) < len(problem.t_grid):
        raise StepTooLarge("state diverged by t=%g" % (problem.t_grid[len(states)],))
    return states


def _drifts(states):
    """(eigenvalue drift, trace-power drift) of each state: the largest
    entry change of its sorted spectrum and of its trace powers against the
    first state."""
    e0, f0 = states[0].eigenvalues, states[0].trace_powers
    return [
        (
            max(abs(a - b) for a, b in zip(s.eigenvalues, e0)),
            max(abs(a - b) for a, b in zip(s.trace_powers, f0)),
        )
        for s in states
    ]


def conservation_report(states):
    """Worst-case drift of the sorted spectrum and of the trace powers
    relative to the first state."""
    if len(states) < 2:
        raise InvalidInput("need at least two states")
    eig_drift, fk_drift = (max(0.0, *col) for col in zip(*_drifts(states)[1:]))
    return {"max_eig_drift": float(eig_drift), "max_trace_power_drift": float(fk_drift)}


def toda_problem(n, diag, offdiag, t_grid, order, flow_tolerance=1e-9):
    """Symmetric tridiagonal initial data on gl(n) with the
    upper/strictly-lower splitting r-matrix."""
    if n < 2:
        raise DimensionMismatch("a Toda problem needs n >= 2 (got %d)" % (n,))
    if len(diag) != n or len(offdiag) != n - 1:
        raise DimensionMismatch(
            "need %d diagonal and %d off-diagonal entries" % (n, n - 1)
        )
    if not all(map(math.isfinite, list(diag) + list(offdiag))):
        raise InvalidInput("Toda diagonal and off-diagonal entries must be finite")
    L = builtin("upper_lower_split(%d)" % n, mode=scalars.FLOAT)
    plus, minus = L.splitting
    ctx = splitting_r(L, plus, minus)
    index = {lab: i for i, lab in enumerate(L.labels)}
    x0 = [0.0] * L.dim
    for i, d in enumerate(diag):
        x0[index["E%d%d" % (i + 1, i + 1)]] = float(d)
    for i, o in enumerate(offdiag):
        x0[index["E%d%d" % (i + 1, i + 2)]] = float(o)
        x0[index["E%d%d" % (i + 2, i + 1)]] = float(o)
    return FlowProblem(ctx, x0, t_grid, order, flow_tolerance)


def flow_csv(states):
    """CSV text: t, coordinates, eigenvalues, trace powers, and per-row
    worst drifts against the first state."""
    if not states:
        raise InvalidInput("no states")
    d = len(states[0].x)
    ne = len(states[0].eigenvalues)
    nf = len(states[0].trace_powers)
    cols = (
        ["t"]
        + ["x%d" % i for i in range(d)]
        + ["eig%d" % (i + 1) for i in range(ne)]
        + ["F%d" % (k + 1) for k in range(nf)]
        + ["eig_drift", "trace_power_drift"]
    )
    lines = [",".join(cols)]
    fmt = lambda v: "%.12g" % v
    for s, (ed, fd) in zip(states, _drifts(states)):
        row = (
            [fmt(s.t)]
            + [fmt(c) for c in s.x]
            + [fmt(v) if not isinstance(v, complex) else repr(v) for v in s.eigenvalues]
            + [fmt(v) for v in s.trace_powers]
            + [fmt(ed), fmt(fd)]
        )
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def write_flow_csv(states, path):
    with open(path, "w") as fh:
        fh.write(flow_csv(states))
