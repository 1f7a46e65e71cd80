"""Classical r-matrices on a Lie algebra.

Provides the modified Yang-Baxter defect and its verification report, the
half-convention R-bracket and the derived Lie algebra g_R it generates, the
R_pm = (R +/- id)/2 pair with their structure identities, the two post-Lie
products x |> y = [R_pm x, y], splitting r-matrices built from a direct-sum
decomposition into two subalgebras, and exact subalgebra/ideal analysis of
im R_pm and ker R_mp.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

from . import scalars
from .errors import (
    DimensionMismatch,
    InvalidInput,
    NotADirectSum,
    NotASubalgebra,
    UnsupportedName,
    YangBaxterFailure,
)
from .liealg import (
    LinearEndo,
    algebra_from_bracket,
    bracket,
    builtin,
    contract,
    defect_scan,
    vadd,
    vsub,
    vscale,
)

# ---------------------------------------------------------------------------
# defect and verification
# ---------------------------------------------------------------------------


def _as_endo(L, R):
    if isinstance(R, LinearEndo):
        if R.dim != L.dim:
            raise DimensionMismatch(
                "endo of size %d on algebra of dimension %d" % (R.dim, L.dim)
            )
        return R
    return LinearEndo(tuple(
        tuple(scalars.coerce(v, L.mode) for v in row) for row in R
    ))


def _coerced(L, R):
    """R as a LinearEndo of L's dimension with every entry coerced to L's mode."""
    R = _as_endo(L, R)
    return LinearEndo(tuple(
        tuple(scalars.coerce(v, L.mode) for v in row) for row in R.matrix
    ))


def _defect(L, R, theta, x, Rx, y, Ry):
    """The defect of mcybe_defect from a coerced R and theta, coerced x and y
    and their images Rx and Ry, contracted on the rows of L."""
    C = L.C_rows
    inner = vadd(contract(C, Rx, y), contract(C, x, Ry))
    out = vsub(R.apply(inner), contract(C, Rx, Ry))
    return vsub(out, vscale(theta, contract(C, x, y)))


def mcybe_defect(L, R, theta, x, y):
    """R([Rx,y]+[x,Ry]) - theta*[x,y] - [Rx,Ry]; zero iff (R,theta) solves
    the modified Yang-Baxter equation on this pair."""
    R = _coerced(L, R)
    x = L.check_vector(x)
    y = L.check_vector(y)
    return _defect(L, R, scalars.coerce(theta, L.mode), x, R.apply(x), y, R.apply(y))


def is_rmatrix(L, R, theta):
    """Check the defect on all basis pairs; returns
    {ok, worst_pair, worst_defect_norm} rather than raising.  R, theta and
    the basis are coerced once, and the images R e_i computed once."""
    R = _coerced(L, R)
    theta = scalars.coerce(theta, L.mode)
    basis = [L.check_vector(L.basis(i)) for i in range(L.dim)]
    images = [R.apply(e) for e in basis]
    ok, worst, worst_pair = defect_scan(
        L,
        lambda i, j: _defect(L, R, theta, basis[i], images[i], basis[j], images[j]),
        combinations(range(L.dim), 2),
    )
    return {"ok": ok, "worst_pair": worst_pair, "worst_defect_norm": worst}


# ---------------------------------------------------------------------------
# the R-bracket and the derived algebra
# ---------------------------------------------------------------------------


def r_bracket(L, R, x, y):
    """[x,y]_R = ([Rx,y] + [x,Ry]) / 2 (antisymmetric by construction)."""
    R = _as_endo(L, R)
    x = L.check_vector(x)
    y = L.check_vector(y)
    half = L.ratio(1, 2)
    return vscale(half, vadd(bracket(L, R.apply(x), y), bracket(L, x, R.apply(y))))


def _half_shift(L, R, sign, half):
    ident = LinearEndo.identity(L.dim)
    shifted = R + ident if sign > 0 else R - ident
    return shifted.scale(half)


class RMatrixContext:
    """A validated (algebra, R, theta) triple with lazy derived structure."""

    def __init__(self, algebra, R, theta):
        self.algebra = algebra
        self.R = R
        self.theta = theta
        self._derived = None
        self._pm = None

    @property
    def derived(self):
        if self._derived is None:
            self._derived = derived_algebra(self)
        return self._derived

    def r_plus_minus(self):
        if self._pm is None:
            half = self.algebra.ratio(1, 2)
            self._pm = (
                _half_shift(self.algebra, self.R, +1, half),
                _half_shift(self.algebra, self.R, -1, half),
            )
        return self._pm

    def r_sign(self, sign):
        """R_plus for sign '+', R_minus for sign '-'."""
        Rp, Rm = self.r_plus_minus()
        return Rp if _norm_sign(sign) > 0 else Rm

    def __repr__(self):
        return "RMatrixContext(algebra=%r, theta=%r)" % (self.algebra, self.theta)


def rmatrix_context(L, R, theta=1):
    """Validate (R, theta) against the modified Yang-Baxter equation and wrap it.

    theta must be 0 or 1 here; mcybe_defect itself accepts arbitrary theta.
    """
    R = _as_endo(L, R)
    theta_val = scalars.coerce(theta, L.mode)
    if theta_val not in (0, 1):
        raise InvalidInput("theta must be 0 or 1 in the high-level interface")
    report = is_rmatrix(L, R, theta_val)
    if not report["ok"]:
        raise YangBaxterFailure(
            theta_val, report["worst_pair"], report["worst_defect_norm"]
        )
    return RMatrixContext(L, R, theta_val)


def derived_algebra(ctx):
    """The Lie algebra g_R carried by the same space with bracket [.,.]_R."""
    L = ctx.algebra
    return algebra_from_bracket(L, lambda x, y: r_bracket(L, ctx.R, x, y))


def post_product(ctx, sign, x, y):
    """x |>_sign y = [R_sign x, y]; the left (+) / right (-) post-Lie product."""
    L = ctx.algebra
    return bracket(L, ctx.r_sign(sign).apply(L.check_vector(x)), y)


def _norm_sign(sign):
    if sign in (1, +1, "+", "plus"):
        return +1
    if sign in (-1, "-", "minus"):
        return -1
    raise InvalidInput("sign must be '+' or '-' (got %r)" % (sign,))


def check_pm_identities(ctx):
    """Verify on all basis pairs: [R_s x, R_s y] = R_s([R_s x,y]+[x,R_s y] -s [x,y])
    and that each R_s is a Lie morphism from the derived algebra to g."""
    L = ctx.algebra
    if ctx.theta != 1:
        raise InvalidInput("the R_pm identities require theta = 1")
    Rp, Rm = ctx.r_plus_minus()
    failures = []
    for sign, Rs in ((+1, Rp), (-1, Rm)):
        for i in range(L.dim):
            for j in range(i + 1, L.dim):
                x, y = L.basis(i), L.basis(j)
                Rx, Ry = Rs.apply(x), Rs.apply(y)
                lhs = bracket(L, Rx, Ry)
                inner = vadd(bracket(L, Rx, y), bracket(L, x, Ry))
                inner = vsub(inner, vscale(sign, bracket(L, x, y)))
                if not L.vanishes(vsub(lhs, Rs.apply(inner))):
                    failures.append({"identity": "bracket", "sign": sign, "pair": (i, j)})
                morph = vsub(Rs.apply(r_bracket(L, ctx.R, x, y)), lhs)
                if not L.vanishes(morph):
                    failures.append({"identity": "morphism", "sign": sign, "pair": (i, j)})
    return {"ok": not failures, "failures": failures}


# ---------------------------------------------------------------------------
# splitting r-matrices from a direct-sum decomposition
# ---------------------------------------------------------------------------


def splitting_r(L, plus_indices, minus_indices):
    """R = pi_plus - pi_minus for a basis split into two subalgebras.

    The index sets must partition the basis; each coordinate span must be
    closed under the bracket.  The result solves the modified Yang-Baxter
    equation with theta = 1.
    """
    plus = tuple(int(i) for i in plus_indices)
    minus = tuple(int(i) for i in minus_indices)
    seen = set(plus) | set(minus)
    if (
        len(plus) + len(minus) != L.dim
        or len(seen) != L.dim
        or seen != set(range(L.dim))
    ):
        raise NotADirectSum(
            "plus/minus index sets must partition 0..%d" % (L.dim - 1,)
        )
    basis = [L.check_vector(L.basis(i)) for i in range(L.dim)]
    for side, idx in (("plus", plus), ("minus", minus)):
        inside = set(idx)
        for a in idx:
            for b in idx:
                if a >= b:
                    continue
                v = contract(L.C_rows, basis[a], basis[b])
                if not L.vanishes(c for k, c in enumerate(v) if k not in inside):
                    raise NotASubalgebra(side, (a, b))
    diag = [0] * L.dim
    for i in plus:
        diag[i] = 1
    for i in minus:
        diag[i] = -1
    return rmatrix_context(L, LinearEndo.diagonal(diag), 1)


# ---------------------------------------------------------------------------
# exact linear algebra (fraction-free) and the subalgebra/ideal report
# ---------------------------------------------------------------------------


def _clear_denominators(v):
    denom = 1
    for c in v:
        denom = denom * Fraction(c).denominator // gcd(denom, Fraction(c).denominator)
    out = [int(Fraction(c) * denom) for c in v]
    g = 0
    for c in out:
        g = gcd(g, abs(c))
    if g > 1:
        out = [c // g for c in out]
    return out


class _ExactSpan:
    """Incremental integer echelon basis; fraction-free cross-multiplication."""

    def __init__(self):
        self.rows = []  # (pivot_index, integer row), kept sorted by pivot

    def _reduce(self, v):
        v = list(v)
        for pivot, row in self.rows:
            if v[pivot] != 0:
                a, b = row[pivot], v[pivot]
                v = [a * vc - b * rc for vc, rc in zip(v, row)]
                g = 0
                for c in v:
                    g = gcd(g, abs(c))
                if g > 1:
                    v = [c // g for c in v]
        return v

    def add(self, vec):
        """Insert a vector; True if it enlarged the span."""
        v = self._reduce(_clear_denominators(vec))
        if all(c == 0 for c in v):
            return False
        pivot = next(i for i, c in enumerate(v) if c != 0)
        if v[pivot] < 0:
            v = [-c for c in v]
        self.rows.append((pivot, v))
        self.rows.sort(key=lambda pr: pr[0])
        return True

    def contains(self, vec):
        return all(c == 0 for c in self._reduce(_clear_denominators(vec)))

    @property
    def rank(self):
        return len(self.rows)


def _span(L, vectors):
    """Independent subset of the vectors (exact) or an orthonormal basis of
    their span (float); returns (dim, list of vectors, membership test)."""
    if L.mode == scalars.EXACT:
        span = _ExactSpan()
        basis = [v for v in vectors if span.add(v)]
        return span.rank, basis, span.contains
    import numpy as np

    A = np.array([list(map(float, c)) for c in vectors], dtype=float).T
    if not A.any():
        return 0, [], L.vanishes
    q, r = np.linalg.qr(A)
    keep = [j for j in range(min(A.shape)) if abs(r[j, j]) > scalars.TOLERANCE]
    Q = q[:, keep]

    def member(v):
        w = np.array(list(map(float, v)), dtype=float)
        resid = w - Q @ (Q.T @ w)
        return float(np.linalg.norm(resid)) <= scalars.TOLERANCE * max(
            1.0, float(np.linalg.norm(w))
        )

    basis = [tuple(float(x) for x in Q[:, k]) for k in range(Q.shape[1])]
    return len(basis), basis, member


def _kernel_basis(L, endo):
    """Basis of ker(endo); exact back-substitution over the integer echelon."""
    n = endo.dim
    if L.mode == scalars.FLOAT:
        import numpy as np

        A = np.array([[float(endo.matrix[i][j]) for j in range(n)] for i in range(n)])
        _, sv, vh = np.linalg.svd(A)
        rank = int((sv > sv.max() * scalars.TOLERANCE).sum())
        return [tuple(float(x) for x in v) for v in vh[rank:]]
    span = _ExactSpan()
    for row in endo.matrix:
        span.add(row)
    pivots = [p for p, _ in span.rows]
    free = [j for j in range(n) if j not in pivots]
    out = []
    for f in free:
        x = [Fraction(0)] * n
        x[f] = Fraction(1)
        for pivot, row in reversed(span.rows):
            s = sum((Fraction(row[j]) * x[j] for j in range(pivot + 1, n)), Fraction(0))
            x[pivot] = -s / Fraction(row[pivot])
        out.append(tuple(x))
    return out


def subalgebra_analysis(ctx):
    """Dimensions of im R_pm and ker R_mp plus closure/ideal verification.

    im R_plus and im R_minus must be subalgebras; ker R_minus (resp.
    ker R_plus) must sit inside im R_plus (resp. im R_minus) and be an ideal
    there.
    """
    L = ctx.algebra
    Rp, Rm = ctx.r_plus_minus()
    dim_p, basis_p, in_p = _span(L, [Rp.column(j) for j in range(L.dim)])
    dim_m, basis_m, in_m = _span(L, [Rm.column(j) for j in range(L.dim)])
    ker_for_p = _kernel_basis(L, Rm)  # the ideal inside im R_plus
    ker_for_m = _kernel_basis(L, Rp)
    subalgebras_ok = all(
        member(bracket(L, a, b))
        for basis, member in ((basis_p, in_p), (basis_m, in_m))
        for a, b in combinations(basis, 2)
    )
    ideals_ok = True
    for ker, basis, im_member in (
        (ker_for_p, basis_p, in_p),
        (ker_for_m, basis_m, in_m),
    ):
        in_ker = _span(L, ker)[2]
        ideals_ok = ideals_ok and all(
            im_member(u) and all(in_ker(bracket(L, u, v)) for v in basis) for u in ker
        )
    return {
        "dim_im_plus": dim_p,
        "dim_im_minus": dim_m,
        "dim_ker_mp": {"plus": len(ker_for_p), "minus": len(ker_for_m)},
        "subalgebras_ok": subalgebras_ok,
        "ideals_ok": ideals_ok,
    }


# ---------------------------------------------------------------------------
# named examples and JSON interchange
# ---------------------------------------------------------------------------

BUILTIN_RMATRICES = ("sl2-borel", "split2", "sl2-id")


def builtin_rmatrix(name, mode=scalars.EXACT):
    """Named (algebra, R) pairs used by the command-line tools and tests.

    sl2-borel: sl(2) split into span{e,h} and span{f}.
    split2:    gl(2) split into upper-triangular and strictly-lower parts.
    sl2-id:    the identity map on sl(2) (theta = 1).
    """
    if name == "sl2-borel":
        L = builtin("sl(2)", mode)
        return splitting_r(L, (0, 1), (2,))
    if name == "split2":
        L = builtin("upper_lower_split(2)", mode)
        return splitting_r(L, L.splitting[0], L.splitting[1])
    if name == "sl2-id":
        L = builtin("sl(2)", mode)
        return rmatrix_context(L, LinearEndo.identity(3), 1)
    raise UnsupportedName(
        "unknown built-in r-matrix %r (choose from %s)"
        % (name, ", ".join(BUILTIN_RMATRICES))
    )


def rmatrix_to_json(ctx):
    return {
        "theta": scalars.to_text(ctx.theta),
        "matrix": [[scalars.to_text(v) for v in row] for row in ctx.R.matrix],
    }


def rmatrix_from_json(L, data):
    if not isinstance(data, dict):
        raise InvalidInput(
            "malformed r-matrix JSON: expected an object, got %s" % type(data).__name__
        )
    try:
        if "plus" in data and "minus" in data:
            return splitting_r(L, data["plus"], data["minus"])
        theta = data.get("theta", "1")
        R = LinearEndo(tuple(
            tuple(scalars.coerce(v, L.mode) for v in row) for row in data["matrix"]
        ))
    except (KeyError, TypeError) as exc:
        raise InvalidInput("malformed r-matrix JSON: %s" % (exc,))
    return rmatrix_context(L, R, scalars.coerce(theta, L.mode))


def load_rmatrix(L, path):
    return rmatrix_from_json(L, scalars.read_json(path))
