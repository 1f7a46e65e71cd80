"""Isospectral Lax flows dx/dt = [x, R_minus(x)]: the exact factorized
solution driven by the graded expansion of the magnus module, the residual
of the truncated two-factor factorization, a classical RK4 reference
integrator, conservation diagnostics, and the Toda-type built-in family on
the upper/strictly-lower splitting of gl(n).

Float mode throughout: the expansion coefficients are computed once per
(x0, order) through the g-level recursion and rescaled along the time grid
by t-degree homogeneity.  The grid is evaluated BLOCK points at a time,
each block with stacked NumPy calls, the matrix exponential included; the
truncation tail is measured at three points at most, where it peaks.
NumPy is imported inside each function that uses it, so importing this
module, and with it the package, leaves NumPy unloaded until a float call.
"""

from __future__ import annotations

import math
import warnings

from . import scalars
from .errors import (
    DimensionMismatch,
    InvalidInput,
    ModeMismatch,
    NonConvergentSeries,
    NoRealization,
    StepTooLarge,
)
from .liealg import _check_order, bracket, builtin, contract, vscale
from .magnus import postlie_magnus
from .products import from_rmatrix
from .rmatrix import splitting_r

# grid points per stacked evaluation: enough to amortize the per-call cost
# of expm and the eigensolvers; stacking a whole 2001-point grid at
# once instead raised the peak memory of Toda n = 3, 3, 4 passes by 2.5 MB
BLOCK = 256


# Pade-13 coefficients b_k = (26-k)!/(k!(13-k)!) (Higham, SIAM J. Matrix Anal. 2005)
_PADE13 = [math.perm(26 - k, 13) // math.factorial(k) for k in range(14)]


def _expm(A):
    """exp(A), exp(-A) of each matrix of a stack (..., n, n): Pade-13 scaling and squaring,
    s per slice from the exact ||A^p||^(1/p), p = 6, 8, 10 (Al-Mohy and Higham 2009), or the
    Taylor sum below A^2, A^4 or A^8 where that power is 0 on the whole stack.  A slice
    whose exponential overflows comes back not finite, without a warning."""
    import numpy as np
    A = np.asarray(A, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        if A.shape[-1] == 1:
            return np.exp(A), np.exp(-A)
        norm = lambda M: np.abs(M).sum(axis=-2).max(axis=-1)
        I = np.eye(A.shape[-1])
        # A^2, A^4, then A^6 and A^8 = A^4 A^4 (tested: in floats A^6 = 0 does not give A^8 = 0)
        powers = [A @ A]
        if powers[-1].any():
            powers.append(powers[0] @ powers[0])
        if powers[-1].any():
            powers += [powers[1] @ powers[0], powers[1] @ powers[1]]
        # where the last is 0 (rho(u) of Toda flows up to n = 8) exp(+-A) is the even +- odd
        # half of the Taylor sum below it: the pivoted solve loses digits at large norm.  Both
        # start at I, whose zeros are +0, so no -0 arises and the dropped +-0 terms change no bit
        *below, last = powers
        half = lambda r: sum((P / math.factorial(2 * k + r) for k, P in enumerate(below, 1)), I)
        even, odd = half(0), A @ half(1)
        if not last.any():
            return even + odd, even - odd
        A2, A4, A6 = below
        d6, d8, d10 = norm(A6) ** (1 / 6), norm(last) ** (1 / 8), norm(A4 @ A6) ** (1 / 10)
        eta = np.minimum(np.maximum(d6, d8), np.maximum(d8, d10))
        # a slice whose powers, U or V leave the float range has no finite exponential
        # here and stays NaN; it and a nilpotent slice (the Taylor sum) skip the solve
        nilpotent = d8 == 0
        ok = np.isfinite(eta) & ~nilpotent
        # theta_13 = 4.25: the largest eta at which Pade-13's backward error is <= 2^-53
        s = np.ceil(np.log2(np.maximum(eta[ok] / 4.25, 1.0)))
        c = (2.0 ** -s)[:, None, None]
        A, A2, A4, A6 = A[ok] * c, A2[ok] * c**2, A4[ok] * c**4, A6[ok] * c**6
        P = lambda k: _PADE13[k + 6] * A6 + _PADE13[k + 4] * A4 + _PADE13[k + 2] * A2
        U = A @ (A6 @ P(7) + P(1) + _PADE13[1] * I)
        V = A6 @ P(6) + P(0) + _PADE13[0] * I
        finite = np.isfinite(U).all(axis=(1, 2)) & np.isfinite(V).all(axis=(1, 2))
        U, V, Y = U[finite], V[finite], np.full((2,) + A.shape, np.nan)
        # r(-A) = r(A)^-1 for the diagonal Pade approximant r, from the same U and V
        Y[:, finite] = np.linalg.solve(np.stack([V - U, V + U]), np.stack([V + U, V - U]))
        # square each slice s times; a block can mix small and large t
        for k in range(int(s.max(initial=0))):
            m = s > k
            Y[:, m] = Y[:, m] @ Y[:, m]
        X = np.full((2,) + even.shape, np.nan)
        X[:, ok] = Y
        nilpotent = nilpotent[..., None, None]
        return np.where(nilpotent, even + odd, X[0]), np.where(nilpotent, even - odd, X[1])


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


class FlowResult:
    """A flow on a grid as array columns: t (points,), x (points, dim), the
    sorted spectra as one complex stack (points, n) with real (points,)
    marking the rows whose spectrum is real (their imaginary parts are 0),
    and trace_powers (points, n).  len(), indexing and iteration give
    FlowState rows, built when read."""

    def __init__(self, t, x, eigenvalues, real, trace_powers):
        self.t = t
        self.x = x
        self.eigenvalues = eigenvalues
        self.real = real
        self.trace_powers = trace_powers

    def __len__(self):
        return len(self.t)

    def __getitem__(self, i):
        e = self.eigenvalues[i]
        return FlowState(
            float(self.t[i]),
            self.x[i].tolist(),
            (e.real if self.real[i] else e).tolist(),
            self.trace_powers[i].tolist(),
        )

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def _sorted_eigs(M):
    """(spectra, real) of a stack of matrices (k, n, n): spectra is a
    complex (k, n) stack, ordered by real part, parts within TOLERANCE times
    the spectral radius of their neighbours tying, then by imaginary part; and
    real marks the rows whose spectrum is real (ascending)."""
    import numpy as np
    M = np.asarray(M, dtype=float)
    # eigvalsh reads one triangle only, so the symmetry test must be absolute:
    # a relative test would pass an asymmetry of 1e-6 on entries near 0.1
    # and shift the spectrum by the same order
    atol = scalars.TOLERANCE * np.maximum(1.0, np.abs(M).max(axis=(1, 2)))
    sym = np.abs(M - M.transpose(0, 2, 1)).max(axis=(1, 2)) <= atol
    vals = np.empty(M.shape[:2], dtype=complex)
    if sym.any():
        vals[sym] = np.linalg.eigvalsh(M[sym])
    if not sym.all():
        vals[~sym] = np.linalg.eigvals(M[~sym])
    # a row is real when its imaginary parts, which are dropped, are below
    # 1e-12 and not scalars.TOLERANCE: dropping them moves the spectrum by
    # that much, and spectra are held to their oracles at 1e-12
    real = (np.abs(vals.imag) < 1e-12).all(axis=-1)
    vals.imag[real] = 0.0
    # rounding may put tied real parts (0 and that of a pair +-ib) either way round
    vals = np.sort(vals, axis=-1, kind="stable")
    apart = np.diff(vals.real) > scalars.TOLERANCE * np.abs(vals).max(axis=-1, keepdims=True)
    if not apart.all():
        run = np.insert(np.cumsum(apart, axis=-1), 0, 0, axis=-1)
        vals = np.take_along_axis(vals, np.lexsort((vals.imag, run)), axis=-1)
    return vals, real


def _states(problem, ts, xs, finite=True):
    """The columns (t, x, eigenvalues, real, trace_powers) of FlowResult at
    the times ts for the coordinate rows of xs of the problem's algebra,
    with the spectra and trace powers of the whole stack computed together.
    With finite set, raises InvalidInput naming the first t at which the
    point or its trace powers are not finite."""
    import numpy as np
    with np.errstate(over="ignore", invalid="ignore"):
        M = np.tensordot(xs, problem.rho, axes=1)
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
    return (np.array(ts, dtype=float), xs) + _sorted_eigs(M) + (powers,)


class FlowProblem:
    """A Lax flow instance: r-matrix context (float mode, theta = 1), initial point,
    evaluation grid, and the truncation order of the expansion, with the
    float data every evaluation reads: rho, the realization as a stack
    (dim, size, size); pullback, the pseudo-inverse of vec(rho) (its transpose
    where the realization is by signed elementary matrices, _pullback), which
    pulls a matrix back to coordinates; and r_minus, R_minus as a float matrix
    (column j = image of x_j)."""

    def __init__(self, ctx, x0, t_grid, order, flow_tolerance=1e-9):
        L = ctx.algebra
        if L.mode != scalars.FLOAT:
            raise ModeMismatch("flows require a float-mode algebra")
        if ctx.theta != 1:
            raise InvalidInput("flows need theta = 1 (got theta = %s)" % (ctx.theta,))
        if L.realization is None:
            raise NoRealization("flow problems need a matrix realization")
        if not t_grid:
            raise InvalidInput("t_grid must be nonempty")
        _check_order(order, 1)
        self.ctx = ctx
        self.algebra = L
        self.x0 = L.check_vector(x0)
        self.t_grid = tuple(float(t) for t in t_grid)
        if not all(map(math.isfinite, self.x0 + self.t_grid)):
            raise InvalidInput("the initial point and the time grid must be finite")
        self.order = order
        self.flow_tolerance = float(flow_tolerance)
        if not 0 <= self.flow_tolerance < math.inf:
            raise InvalidInput("flow tolerance %r: it must be finite and >= 0" % (flow_tolerance,))
        import numpy as np
        self.rho = np.array(L.realization, dtype=float)
        self.pullback = _pullback(self.rho.reshape(L.dim, -1))
        self.r_minus = np.array(ctx.r_plus_minus()[1].matrix, dtype=float)

    def chi_coefficients(self):
        """chi_m(x0) for m = 1..order; chi(x0 t) follows by degree-m
        homogeneity."""
        import numpy as np
        chi = postlie_magnus(
            self.algebra, self.x0, from_rmatrix(self.ctx, "-"), self.order, method="ode"
        )
        return tuple(np.array(chi.coeff(m), dtype=float) for m in range(1, self.order + 1))


def _pullback(vec_rows):
    """The pseudo-inverse of vec(rho) = vec_rows.T (size^2, dim), C-contiguous.  Where each
    column is a +-1 unit vector and no two share a row (elementary matrices, as for gl(n)),
    vec(rho) has orthonormal columns and its pseudo-inverse is its transpose: that is built
    with +0 zeros, which is what pinv returns there, to the bit; otherwise pinv's SVD."""
    import numpy as np
    nonzero = vec_rows != 0
    if (nonzero.sum(axis=1) == 1).all() and (nonzero.sum(axis=0) <= 1).all() \
            and (np.abs(vec_rows[nonzero]) == 1).all():
        return np.where(nonzero, vec_rows, 0.0)
    return np.linalg.pinv(vec_rows.T)


def _flowed(problem, u, ts):
    """Ad_{exp(-u)} x0 for each row of u (k, dim), conjugated in the realization and pulled
    back; raises InvalidInput naming the first of the times ts whose exponential overflows."""
    import numpy as np
    X0 = np.tensordot(np.array(problem.x0), problem.rho, axes=1)
    E, E_inv = _expm(np.tensordot(u, problem.rho, axes=1))
    bad = ~(np.isfinite(E).all(axis=(1, 2)) & np.isfinite(E_inv).all(axis=(1, 2)))
    if bad.any():
        raise InvalidInput("the matrix exponential of u(t) overflows at t=%g" % ts[bad.argmax()])
    with np.errstate(over="ignore", invalid="ignore"):
        return (E_inv @ X0 @ E).reshape(len(u), -1) @ problem.pullback.T


def factorized_solution(problem):
    """x(t) = Ad_{exp(-u(t))} x0 with u(t) = R_minus(chi(x0 t)), as a FlowResult with one row
    per grid point, conjugating in the realization.  Emits a NonConvergentSeries warning when
    dropping the top expansion order, or the top two, moves a point by more than the flow
    tolerance, measured at the first smallest and largest t and where the first-order change
    peaks; a flow tolerance of 0 warns when the change at one of these points is not 0."""
    import numpy as np
    chi = np.array(problem.chi_coefficients())
    order, drops = len(chi), min(2, len(chi))
    grid = np.array(problem.t_grid)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = grid[:, None] ** np.arange(1, order + 1)
        chi_minus = chi @ problem.r_minus.T
        u = powers @ chi_minus
        # two drops: series with parity structure can have a vanishing R_minus image at the
        # top order.  Dropping t^j R_minus chi_j moves x(t) by about t^j [R_minus chi_j, x0]
        c = [contract(problem.algebra.C_rows, v, problem.x0) for v in chi_minus[-drops:].tolist()]
        first = np.abs(np.concatenate([powers[:, -drops:] @ c, powers[:, -1:] * c[-1]], axis=1))
        at = sorted({first.max(axis=1).argmax(), grid.argmin(), grid.argmax()})
        kept = np.stack([powers[at, :m] @ chi_minus[:m] for m in range(order - drops, order)], 1)
    bad = ~np.isfinite(u).all(axis=1)
    if bad.any():
        raise InvalidInput("the expansion u(t) is not finite at t=%g" % grid[bad.argmax()])
    parts = [slice(lo, lo + BLOCK) for lo in range(0, len(grid), BLOCK)]
    blocks = [_states(problem, grid[b], _flowed(problem, u[b], grid[b])) for b in parts]
    result = FlowResult(*map(np.concatenate, zip(*blocks)))
    xs = _flowed(problem, kept.reshape(-1, u.shape[1]), grid[at].repeat(drops))
    gaps = np.abs(xs.reshape(kept.shape) - result.x[at, None]).max(axis=(1, 2))
    gap, worst = gaps.max(), at[gaps.argmax()]
    if gap > problem.flow_tolerance:
        warnings.warn(NonConvergentSeries(float(grid[worst]), float(gap), problem.flow_tolerance))
    return result


def factorization_residuals(problem):
    """||exp(x0) - exp(R_plus chi_<=m) exp(-R_minus chi_<=m)||_2 for m = 1..order,
    in the realization, where chi_<=m sums the expansion of x0 through order
    m: how far the truncated two-factor form of the factorization theorem is
    from exp(x0).  Raises InvalidInput if a matrix exponential overflows."""
    import numpy as np
    Rp, Rm = problem.ctx.r_plus_minus()
    with np.errstate(over="ignore", invalid="ignore"):
        partial = np.cumsum(problem.chi_coefficients(), axis=0).tolist()
    halves = [Rp.apply(v) for v in partial] + [vscale(-1, Rm.apply(v)) for v in partial]
    points = np.array([problem.x0] + halves, dtype=float)
    exps, _ = _expm(np.tensordot(points, problem.rho, axes=1))
    if not np.isfinite(exps).all():
        raise InvalidInput("the matrix exponential overflows")
    E, plus, minus = exps[0], exps[1:len(partial) + 1], exps[len(partial) + 1:]
    return [float(np.linalg.norm(E - p @ m, 2)) for p, m in zip(plus, minus)]


def rk4_reference(problem, step):
    """Classical fourth-order integration of the Lax field, stepping from
    t = 0 to each grid point with uniform sub-steps of size <= step (finite,
    > 0, at most 10^7 sub-steps in all); one FlowResult row per grid point."""
    import numpy as np
    if not 0 < step < math.inf:
        raise InvalidInput("rk4 step %r: it must be finite and > 0" % (step,))
    C_rows = problem.algebra.C_rows

    def f(v):
        return np.array(contract(C_rows, v.tolist(), (problem.r_minus @ v).tolist()), float)

    x = np.array(problem.x0, dtype=float)
    xs = [x]
    spans = np.diff((0.0,) + problem.t_grid)
    with np.errstate(over="ignore"):
        counts = np.maximum(spans != 0.0, np.ceil(np.abs(spans) / step))
    if counts.sum() > 1e7:
        raise InvalidInput("rk4 step %r needs %.0f sub-steps, over 10^7" % (step, counts.sum()))
    for span, n in zip(spans.tolist(), counts.astype(int).tolist()):
        h = span / n if n else 0.0
        for _ in range(n):
            k1 = f(x)
            k2 = f(x + 0.5 * h * k1)
            k3 = f(x + 0.5 * h * k2)
            k4 = f(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(x)):
            break
        xs.append(x)
    reached = problem.t_grid[: len(xs) - 1]
    # row 0 is x0; rows past the first drifting one are discarded, and
    # their trace powers may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        columns = _states(problem, (0.0,) + reached, np.array(xs), finite=False)
    full = FlowResult(*columns)
    _, fk_drift = _drifts(full)
    scale = max(1.0, np.abs(full.trace_powers[0]).max())
    # a drift that is NaN counts as too large
    bad = np.flatnonzero(~(fk_drift[1:] <= 0.25 * scale))
    if bad.size:
        raise StepTooLarge(
            "trace-power drift %.3e at t=%g; decrease the step"
            % (fk_drift[1 + bad[0]], reached[bad[0]])
        )
    if len(reached) < len(problem.t_grid):
        raise StepTooLarge("state diverged by t=%g" % (problem.t_grid[len(reached)],))
    return FlowResult(*(column[1:] for column in columns))


def _drifts(result):
    """(eigenvalue drifts, trace-power drifts) of each row of a FlowResult:
    the largest entry change of its sorted spectrum and of its trace powers
    against the first row."""
    import numpy as np
    e, f = result.eigenvalues, result.trace_powers
    return np.abs(e - e[0]).max(axis=-1), np.abs(f - f[0]).max(axis=-1)


def conservation_report(result):
    """Worst-case drift of the sorted spectrum and of the trace powers of a
    FlowResult relative to its first row."""
    if len(result) < 2:
        raise InvalidInput("need at least two states")
    eig_drift, fk_drift = (max(0.0, d[1:].max()) for d in _drifts(result))
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
    entries = {"E%d%d" % (i + 1, i + 1): d for i, d in enumerate(diag)}
    for i, o in enumerate(offdiag):
        entries["E%d%d" % (i + 1, i + 2)] = entries["E%d%d" % (i + 2, i + 1)] = o
    x0 = [float(entries.get(label, 0.0)) for label in L.labels]
    return FlowProblem(ctx, x0, t_grid, order, flow_tolerance)


def flow_csv(result):
    """CSV text of a FlowResult: t, coordinates, eigenvalues (complex ones
    as repr), trace powers, and per-row worst drifts against the first row."""
    import numpy as np
    if not result:
        raise InvalidInput("no states")
    d, ne, nf = (c.shape[1] for c in (result.x, result.eigenvalues, result.trace_powers))
    cols = (
        ["t"]
        + ["x%d" % i for i in range(d)]
        + ["eig%d" % (i + 1) for i in range(ne)]
        + ["F%d" % (k + 1) for k in range(nf)]
        + ["eig_drift", "trace_power_drift"]
    )
    real_row = ",".join(["%.12g"] * len(cols))
    complex_row = ",".join(["%.12g"] * (1 + d) + ["%r"] * ne + ["%.12g"] * (nf + 2))
    table = np.column_stack(
        (result.t, result.x, result.eigenvalues.real, result.trace_powers)
        + _drifts(result)
    ).tolist()
    for i in np.flatnonzero(~result.real):
        table[i][1 + d:1 + d + ne] = result.eigenvalues[i].tolist()
    lines = [",".join(cols)] + [
        (real_row if real else complex_row) % tuple(row)
        for row, real in zip(table, result.real.tolist())
    ]
    return "\n".join(lines) + "\n"
