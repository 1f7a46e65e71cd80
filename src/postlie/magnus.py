"""Series expansions: BCH, the post-Lie Magnus expansion and its pre-Lie
specialization, the R_pm splitting of the expansion, and the check of
the expansion's defining ODE (the star chi against the ode chi, which
solves it).

A GradedLieElement holds the t^m coefficients (each a genuine g-vector) of
a Lie-algebra-valued formal series.  BCH and the ode chi (the pre-Lie chi
is its abelian case) share one degree-by-degree solver in g, either mode.
In float mode it contracts each new degree of a table as one NumPy batch
that rounds as liealg.contract would, bit for bit: per output coordinate,
products (a_i b_j) c added to 0 in contract's entry order, the pairs of a
degree in increasing i, a total in increasing n; zero factors add nothing.
The star chi and the group-like check work in the truncated enveloping
algebra, exactly: a degree-m coefficient only involves words of length
<= m, so truncating words at the grading order loses nothing.  They load
the enveloping module on first call.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial, reduce
from math import factorial, gcd, lcm

from . import scalars
from .errors import (
    AlgebraMismatch,
    CollapseFailure,
    DimensionMismatch,
    InvalidInput,
    ModeMismatch,
    NotAbelian,
    NotPreLie,
)
from .liealg import _check_order, _same_algebra, contract, tensor_rows, vadd, vscale, vzero
from .products import check_prelie, star_commutator

# ---------------------------------------------------------------------------
# Bernoulli numbers (first kind: b1 = -1/2)
# ---------------------------------------------------------------------------


def bernoulli(n):
    """b_0..b_n by the Akiyama-Tanigawa recurrence (sign convention with
    b_1 = -1/2; the recurrence natively yields +1/2, and the two kinds
    differ only there)."""
    out = []
    a = []
    for m in range(n + 1):
        a.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    if n >= 1:
        out[1] = -out[1]
    return out


# ---------------------------------------------------------------------------
# graded Lie-algebra-valued series
# ---------------------------------------------------------------------------


class GradedLieElement:
    """t-graded g-valued series; coeffs[m] is the t^m coefficient, m=0..N.

    The degree-0 slot exists for operator outputs (it is zero for the
    Magnus expansions); JSON export covers orders 1..N.  An entry already of
    its mode's type is kept as it is, so a computed coefficient that
    overflowed reaches the check that names it; any other is coerced.
    """

    def __init__(self, algebra, order, coeffs):
        coeffs = tuple(scalars.coerce_row(c, algebra.mode) for c in coeffs)
        if len(coeffs) != order + 1 or any(len(c) != algebra.dim for c in coeffs):
            raise DimensionMismatch("need %d graded coefficients" % (order + 1,))
        self.algebra = algebra
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def zero(cls, algebra, order):
        return cls(algebra, order, [vzero(algebra.dim)] * (order + 1))

    @classmethod
    def from_vector(cls, algebra, order, x):
        _check_order(order, 1)
        coeffs = [vzero(algebra.dim)] * (order + 1)
        coeffs[1] = algebra.check_vector(x)
        return cls(algebra, order, coeffs)

    def coeff(self, m):
        return self.coeffs[m]

    def map_linear(self, endo):
        return GradedLieElement(
            self.algebra, self.order, [endo.apply(c) for c in self.coeffs]
        )

    def __add__(self, other):
        return GradedLieElement(
            self.algebra,
            self.order,
            [vadd(a, b) for a, b in zip(self.coeffs, other.coeffs)],
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return GradedLieElement(
            self.algebra, self.order, [vscale(c, v) for v in self.coeffs]
        )

    def __eq__(self, other):
        return (
            isinstance(other, GradedLieElement)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def is_zero(self):
        return all(all(c == 0 for c in v) for v in self.coeffs)

    def __repr__(self):
        return "GradedLieElement(order=%d)" % (self.order,)


def graded_to_json(x):
    return {
        "orders": [[scalars.to_text(c) for c in x.coeffs[m]] for m in range(1, x.order + 1)]
    }


def graded_from_json(L, data):
    orders = data["orders"]
    coeffs = [vzero(L.dim)] + [
        tuple(scalars.coerce(c, L.mode) for c in row) for row in orders
    ]
    return GradedLieElement(L, len(orders), coeffs)


def _extract_g_vector(L, element, n, den):
    """Read the order-n Magnus coefficient off element / den, which must
    have only length-1 words (else CollapseFailure); for den > 1 each
    nonzero entry is divided once, to a Fraction."""
    from . import enveloping as ev
    residual = ev.EnvElement(
        L, element.order, {w: c for w, c in element.terms.items() if len(w) >= 2}
    )
    if not residual.is_zero() or element.counit() != 0:
        bad = residual if not residual.is_zero() else element
        raise CollapseFailure(n, bad.scale(Fraction(1, den)))
    out = [0] * L.dim
    for w, c in element.terms.items():
        if len(w) == 1:
            out[w[0]] = c if den == 1 else Fraction(c, den)
    return tuple(out)


def _combine(L, order, terms):
    """sum s * A / d over (s, A, d) in terms as one (element, denominator)
    pair: each numerator is scaled by lcm // d into one term map."""
    from . import enveloping as ev
    den = lcm(*(d for _, _, d in terms))
    out = {}
    for s, A, d in terms:
        ev._add_into(out, A.terms, s * (den // d))
    return ev.EnvElement(L, order, out), den


# ---------------------------------------------------------------------------
# BCH
# ---------------------------------------------------------------------------


def bch(L, x, y, order):
    """Graded coefficients Z_m of Z = log(exp(xt) exp(yt)), solved in g
    degree by degree from Z' = dexp_Z^{-1}(x + e^{t ad_x} y), Z_1 = x + y
    (Varadarajan, Lie Groups, Lie Algebras, and Their Representations,
    section 2.15).  Exact entries are Fractions, and int 0 where they
    vanish."""
    _check_order(order, 1)
    x, y = L.check_vector(x), L.check_vector(y)
    ops = (_Pairs if L.mode == scalars.EXACT else _Arrays)((L.C_rows,))
    ad, xy = ops.bilinear(contract, *ops.rows), ops.lift(vadd(x, y))
    xt = [ops.zero, ops.lift(x)]
    Z = _dexp_inv_series(L, ops, order, ops.chi(xy, 1), ops.lift(y), xy, ad, ad, 1, xt)
    return GradedLieElement(L, order, [tuple(c or 0 for c in v) for v in Z])


def _dexp_inv_series(L, ops, order, Y1, seed, base, act, bracket, sign, alpha=None):
    """Y_1..Y_order of Y = sum_m Y_m t^m from Y_1: m Y_m is degree m-1 of
    dexp^{-1}_beta(u) for beta = sign Y and u = u_0 + e^{act(alpha, .)} seed,
    alpha a fixed graded series or, when None, beta itself; base = u_0 + seed
    is the degree-0 part of u (both lifted by ops).  Two tables keep the
    powers act(alpha, .)^n seed and bracket(beta, .)^n u by degree: order m
    has ops.grow add column m-1, entry n the power n, and sum the entries
    with coeffs[n].  As beta_0 = 0, a column reads only lower ones."""
    exp_c, inv_c = _series_coefficients(order, L.mode)
    Y, beta = [vzero(L.dim), Y1], [ops.zero]
    powers, brackets = [[seed]], [[base]]
    for m in range(2, order + 1):
        beta.append(ops.scale(sign, ops.lift(Y[m - 1])))
        u = ops.grow(powers, act, alpha or beta, ops.zero, exp_c)
        Y.append(ops.chi(ops.grow(brackets, bracket, beta, u, inv_c), m))
    return Y


@lru_cache(maxsize=None)
def _series_coefficients(order, mode):
    """The 1/n! and b_n/n! for n < order as scalars of the mode, the
    coefficients of dexp and dexp^{-1}; built once per (order, mode)."""
    return (
        tuple(scalars.ratio(1, factorial(n), mode) for n in range(order)),
        tuple(scalars.ratio(b, factorial(n), mode) for n, b in enumerate(bernoulli(order - 1))),
    )


# ---------------------------------------------------------------------------
# post-Lie Magnus expansion
# ---------------------------------------------------------------------------


def postlie_magnus(L, x, product, order, method="star"):
    """The expansion chi with chi_1 = x and

        chi_n = -D_n/n! - sum_{k=2..n-1} 1/k! sum_{p_1+..+p_k=n} chi_{p_1} * .. * chi_{p_k}

    computed in the truncated enveloping algebra.  D_n = x^{*n} - x^n folds
    x^n/n! and the k = n term x^{*n}/n! of the defining sum, and x * W =
    x.W + x |> W gives D_n = x.D_{n-1} + x |> x^{*(n-1)}, D_1 = 0: the words
    of length n of x^n and x^{*n}, which cancel, are never built.  Every
    chi_n must collapse to words of length 1 (the computational witness that
    it is a g-vector); a nonzero longer residual raises CollapseFailure.
    Each term is a pair (numerators, denominator), integers over integral
    structure constants: products multiply both parts, sums scale to the lcm
    of the denominators, and chi_n is divided once per entry (Fraction, or
    int 0).

    method="ode" evaluates the same series through the defining
    differential equation instead (a g-level recursion that never builds
    words, hence also available in float mode); both paths agree and the
    star path is the witness-carrying default.

    The product must be right-handed post-Lie, as x |> y = [R_- x, y] is:
    the star lift and both recursions assume it.  For the left-handed
    [R_+ x, y] the two methods disagree and neither series satisfies
    exp(x) = exp*(chi).
    """
    _check_order(order, 1)
    x = L.check_vector(x)
    if product.algebra.dim != L.dim:
        raise DimensionMismatch("product tensor and bracket algebra disagree")
    if product.algebra.mode != L.mode:
        raise ModeMismatch(
            "product in %s mode, algebra in %s mode" % (product.algebra.mode, L.mode)
        )
    if not _same_algebra(product.algebra, L):
        raise AlgebraMismatch("the product lives over another algebra")
    if method == "ode":
        # chi_m is degree m-1 of dexp*^{-1}_{-chi}(exp*(-chi) |> x) over m
        ops = (_Pairs if L.mode == scalars.EXACT else _Arrays)((L.C_rows, product.T_rows))
        tri = ops.bilinear(contract, ops.rows[1])
        bar = ops.bilinear(star_commutator, *ops.rows)
        chi = _dexp_inv_series(L, ops, order, x, ops.lift(x), ops.lift(x), tri, bar, -1)
        return GradedLieElement(L, order, chi)
    if method != "star":
        raise InvalidInput("method must be 'star' or 'ode'")
    from . import enveloping as ev
    ev._require_exact(L)

    def cleared(v):
        num, den = scalars.clear_denominators(v)
        return ev.from_g_vector(L, order, num), den

    X, dx = cleared(x)
    chi_vec = [vzero(L.dim), x]
    # P[k][m] = (numerator, den): the degree-m part of chi^{*k} is the integer
    # element numerator divided by the int den; order n adds only degree n
    P = [None, {1: (X, dx)}]
    D = ev.EnvElement(L, order, {})
    for n in range(2, order + 1):
        # x * W = x.W + x |> W: D_n = x^{*n} - x^n = x.D_{n-1} + x |> x^{*(n-1)}, over dx^n
        lift = ev.triangle_lift(X, P[n - 1][n - 1][0], product)
        D = ev.env_mul(X, D) + lift
        rhs = [(-1, D, dx**n * factorial(n))]
        P.append({})
        if n < order:  # x^{*n} = x.x^{*(n-1)} + x |> x^{*(n-1)}, read by the higher orders
            P[n][n] = ev.env_mul(X, P[n - 1][n - 1][0]) + lift, dx**n
        for k in range(2, n):
            pairs = (P[1][p] + P[k - 1][n - p] for p in range(1, n - k + 2))
            P[k][n] = _combine(
                L, order, [(1, ev.star_mul(A, B, product), da * db) for A, da, B, db in pairs]
            )
            rhs.append((-1, P[k][n][0], P[k][n][1] * factorial(k)))
        num, den = _combine(L, order, rhs)
        vec = _extract_g_vector(L, num, n, den)
        chi_vec.append(vec)
        P[1][n] = cleared(vec)
    return GradedLieElement(L, order, chi_vec)


class _Pairs:
    """The vector operations of the series on exact (integer numerators, int
    denominator) pairs: the rows are cleared to one denominator D once (kept
    when every entry is an int), a contraction multiplies the denominators
    and D, a sum is scaled to one lcm and reduced by its gcd, and chi_m is
    divided out once per entry, a Fraction each."""

    def __init__(self, rows):
        D = lcm(*(c.denominator for T in rows for r in T for *_, c in r))
        self.rows = rows if D == 1 else tuple(tensor_rows(
            len(T), [(i, j, k, c * D) for i, r in enumerate(T) for j, k, c in r], scalars.EXACT
        ) for T in rows)
        self.zero = vzero(len(rows[0])), 1
        self.bilinear = lambda f, *rows: lambda a, b: (f(*rows, a[0], b[0]), D * a[1] * b[1])

    scale = staticmethod(lambda c, v: (vscale(c.numerator, v[0]), c.denominator * v[1]))
    chi = staticmethod(lambda rhs, m: tuple(Fraction(n, rhs[1] * m) for n in rhs[0]))

    @staticmethod
    def total(terms):
        den = lcm(*(d for _, d in terms))
        out = [sum(col) for col in zip(*(vscale(den // d, v) for v, d in terms))]
        g = gcd(den, *out)
        return tuple(n // g for n in out), den // g

    lift = staticmethod(scalars.clear_denominators)

    def grow(self, table, f, beta, base, coeffs):
        """Add column d = len(table) and return its sum, one contract call per pair."""
        d, nonzero = len(table), lambda v: any(v[0])
        table.append([base] + [self.total([self.zero] + [
            f(beta[i], table[d - i][n - 1]) for i in range(1, min(d + 2 - n, len(beta)))
            if nonzero(beta[i]) and nonzero(table[d - i][n - 1])]) for n in range(1, d + 1)])
        return self.total([base] + [self.scale(coeffs[n], table[d][n]) for n in range(1, d + 1)])


class _Arrays:
    """The same on float64 arrays, a table column one 2D array, batched as the module says."""

    def __init__(self, rows):
        import numpy as np
        self.np, self.zero, self.plans = np, np.zeros(len(rows[0])), {}
        self.rows = tuple(map(self.layout, rows))
        self.scale, self.lift = (lambda c, v: c * v), partial(np.array, dtype=float)
        self.chi = lambda rhs, m: (1 / m * rhs).tolist()
        # row by row from +0.0, contract's order: NumPy adds one-entry rows pairwise, but
        # each stack folded here has one row or rows of two or more entries
        self.fold = lambda terms: np.add.reduce(terms, axis=0, initial=0.0)

    def layout(self, rows):
        """(i, j, c) of output k's entry e at [:, e, k], in contract's order, c = 0 as padding."""
        entries = [[] for _ in rows]
        for i, row in enumerate(rows):
            for j, k, c in row:
                entries[k] += i, j, c
        width = max(map(len, entries))
        padded = [e + [0] * (width - len(e)) for e in entries]
        return self.np.array(padded, dtype=float).reshape(len(rows), width // 3, 3).T

    def bilinear(self, f, *layouts):
        """f(*rows, a, b) on row pairs of A and B, f contract or star_commutator: one contraction
        of [A B] with [B A] on the layouts side by side, the one read on (b, a) shifted."""
        np, dim = self.np, len(self.zero)
        layouts += (layouts[-1] + np.array([dim, dim, 0])[:, None, None],) * (f is star_commutator)
        stacked = np.zeros((3, max(x.shape[1] for x in layouts), len(layouts) * dim))
        for b, x in enumerate(layouts):
            stacked[:, :x.shape[1], b * dim:(b + 1) * dim] = x
        # both factors are gathered from [A B]: J of [B A] is J + dim mod 2 dim there
        I, J, V = stacked[0].astype(int), (stacked[1].astype(int) + dim) % (2 * dim), stacked[2]
        def batch(A, B):
            X = np.concatenate((A, B), axis=1).T
            terms = X[I]
            terms *= X[J]
            terms *= V[:, :, None]
            out = self.fold(terms)
            # a zero factor makes +-0, or nan beside inf or nan: refold nan outputs without them
            nan = np.isnan(out)
            if nan.any():
                zero = (X[I] == 0) | (X[J] == 0) | (V[:, :, None] == 0)
                out[nan] = self.fold(np.where(zero, 0.0, terms))[nan]
            c, *ts = out.reshape(len(layouts), dim, -1).transpose(0, 2, 1)
            return c + (ts[0] - ts[1]) if ts else c
        return batch

    def grow(self, table, f, beta, base, coeffs):
        """Pair (beta_{r+1}, table[d-1-r][c]), r + c < d, row-major, adds to entry c + 1."""
        np, d = self.np, len(table)
        if d not in self.plans:
            r, c = np.nonzero(np.tri(d, dtype=bool)[::-1])
            self.plans[d] = r, r + 1, c + 1
        r, r1, c1 = self.plans[d]
        A = np.array(beta + [self.zero] * (d + 1 - len(beta)))
        B = np.concatenate(table[::-1])
        keep = A.any(1)[r1] & B.any(1)
        blocks = np.zeros((d, d + 1, len(base)))
        with np.errstate(over="ignore", invalid="ignore"):
            blocks[r[keep], c1[keep]] = f(A[r1[keep]], B[keep])
            table.append(self.fold(blocks))
            table[d][0] = base
            return reduce(lambda total, n: total + coeffs[n] * table[d][n], range(1, d + 1), base)


def verify_grouplike_identity(L, x, product, order):
    """Check exp(xt) = exp_star(chi(xt)) degree by degree, exactly."""
    from .enveloping import _GradedEnv
    chi = postlie_magnus(L, x, product, order)
    lhs = _GradedEnv.from_graded_vector(
        GradedLieElement.from_vector(L, order, x)
    ).exp()
    rhs = _GradedEnv.from_graded_vector(chi).exp(star=product)
    first_failure = min((d for d, _ in (lhs - rhs).terms), default=None)
    return {
        "ok": first_failure is None,
        "degrees_checked": order,
        "first_failure": first_failure,
        "chi": chi,
    }


# ---------------------------------------------------------------------------
# pre-Lie specialization
# ---------------------------------------------------------------------------


def prelie_magnus(L, x, product, order):
    """The pre-Lie Magnus expansion of a pre-Lie product over an abelian
    bracket: there a post-Lie product is pre-Lie, and chi is the ode chi of
    postlie_magnus (Ebrahimi-Fard, Lundervold and Munthe-Kaas, J. Lie
    Theory 25, 2015), which solves chi = sum_k (b_k/k!) l_chi^k (xt)."""
    _check_order(order, 1)
    if any(L.C_rows):
        raise NotAbelian("prelie_magnus needs an abelian bracket")
    if not check_prelie(product)["ok"]:
        raise NotPreLie("the supplied product fails the pre-Lie identity")
    if L.mode != scalars.EXACT:
        raise ModeMismatch("prelie_magnus requires an exact-mode algebra")
    return postlie_magnus(L, x, product, order, method="ode")


# ---------------------------------------------------------------------------
# the R_pm splitting of the expansion
# ---------------------------------------------------------------------------


def chi_pm(chi, ctx):
    """(+R_plus, -R_minus) applied order-wise; the two parts sum back to chi."""
    Rp, Rm = ctx.r_plus_minus()
    if Rp.dim != chi.algebra.dim:
        raise DimensionMismatch("r-matrix context does not match the expansion")
    return chi.map_linear(Rp), chi.map_linear(Rm).scale(-1)


# ---------------------------------------------------------------------------
# the defining ODE of the expansion
# ---------------------------------------------------------------------------


def verify_chi_ode(L, x, product, order):
    """Check d/dt chi(xt) = dexp*^{-1}_{-chi}( exp*(-chi) |> x ) for the
    star chi as graded t-polynomials through degree order-1.  The equation
    fixes chi_m from chi_1..chi_{m-1}, so first_failure is m-1 (d/dt shifts
    degree m down) at the lowest m where the star and ode chi differ.  A
    product that is not right post-Lie gets this report, not an exception."""
    chi = postlie_magnus(L, x, product, order)
    ode = postlie_magnus(L, x, product, order, method="ode")
    first_failure = next(
        (m - 1 for m in range(2, order + 1) if chi.coeff(m) != ode.coeff(m)), None
    )
    return {"ok": first_failure is None, "first_failure": first_failure, "chi": chi}
