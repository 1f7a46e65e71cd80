"""Series expansions: BCH, the post-Lie Magnus expansion and its pre-Lie
specialization, the R_pm splitting of the expansion, and the graded
dexp-star operators with the defining ODE verification.

A GradedLieElement holds the t^m coefficients (each a genuine g-vector) of
a Lie-algebra-valued formal series.  All series manipulations are exact:
a degree-m coefficient only ever involves enveloping-algebra words of
length <= m, so truncating words at the grading order loses nothing.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from . import enveloping as ev
from . import scalars
from .errors import (
    CollapseFailure,
    DimensionMismatch,
    InvalidInput,
    ModeMismatch,
    NotAbelian,
    NotPreLie,
    PrimitivityFailure,
)
from .liealg import bracket, contract, vadd, vscale, vsub, vzero
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
    Magnus expansions); JSON export covers orders 1..N.
    """

    def __init__(self, algebra, order, coeffs):
        coeffs = [algebra.check_vector(c) for c in coeffs]
        if len(coeffs) != order + 1:
            raise DimensionMismatch("need %d graded coefficients" % (order + 1,))
        self.algebra = algebra
        self.order = order
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, algebra, order):
        return cls(algebra, order, [vzero(algebra.dim)] * (order + 1))

    @classmethod
    def from_vector(cls, algebra, order, x, degree=1):
        if not 1 <= degree <= order:
            raise InvalidInput(
                "degree %d outside the truncation range 1..%d" % (degree, order)
            )
        coeffs = [vzero(algebra.dim)] * (order + 1)
        coeffs[degree] = algebra.check_vector(x)
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
        return GradedLieElement(
            self.algebra,
            self.order,
            [vsub(a, b) for a, b in zip(self.coeffs, other.coeffs)],
        )

    def __neg__(self):
        return self.scale(-1)

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


# ---------------------------------------------------------------------------
# graded series of enveloping-algebra elements (internal)
# ---------------------------------------------------------------------------


class _GradedEnv:
    """List of EnvElements per t-degree 0..N; exact under the grading."""

    def __init__(self, algebra, order, parts=None):
        self.algebra = algebra
        self.order = order
        if parts is None:
            parts = [ev.EnvElement(algebra, order, {}) for _ in range(order + 1)]
        self.parts = list(parts)

    @classmethod
    def unit(cls, algebra, order):
        s = cls(algebra, order)
        s.parts[0] = ev.unit(algebra, order)
        return s

    @classmethod
    def from_graded_vector(cls, x):
        s = cls(x.algebra, x.order)
        for m in range(x.order + 1):
            s.parts[m] = ev.from_g_vector(x.algebra, x.order, x.coeffs[m])
        return s

    def __add__(self, other):
        return _GradedEnv(
            self.algebra,
            self.order,
            [a + b for a, b in zip(self.parts, other.parts)],
        )

    def __sub__(self, other):
        return _GradedEnv(
            self.algebra,
            self.order,
            [a - b for a, b in zip(self.parts, other.parts)],
        )

    def is_zero(self):
        return all(p.is_zero() for p in self.parts)

    def scale(self, c):
        return _GradedEnv(self.algebra, self.order, [p.scale(c) for p in self.parts])

    def mul(self, other, star=None):
        out = _GradedEnv(self.algebra, self.order)
        for i, a in enumerate(self.parts):
            if a.is_zero():
                continue
            for j, b in enumerate(other.parts):
                if i + j > self.order or b.is_zero():
                    continue
                piece = (
                    ev.star_mul(a, b, star) if star is not None else ev.env_mul(a, b)
                )
                out.parts[i + j] = out.parts[i + j] + piece
        return out

    def exp(self, star=None):
        """Exponential of a series with zero degree-0 part (exact: the n-th
        power only reaches degrees >= n)."""
        if not self.parts[0].is_zero():
            raise InvalidInput("graded exp needs a series without degree-0 part")
        one = _GradedEnv.unit(self.algebra, self.order)
        return ev._exp_series(self, one, lambda a, b: a.mul(b, star=star), self.order)

    def log(self, star=None):
        """Logarithm of a series with degree-0 part 1."""
        one = _GradedEnv.unit(self.algebra, self.order)
        B = self - one
        if not B.parts[0].is_zero():
            raise InvalidInput("graded log needs degree-0 part equal to 1")
        return ev._log_series(B, one, lambda a, b: a.mul(b, star=star), self.order)

    def __eq__(self, other):
        return self.parts == other.parts


def _extract_g_vector(L, element, failure, context):
    """Read a g-vector off an element that must have only length-1 words."""
    residual = ev.EnvElement(
        L, element.order, {w: c for w, c in element.terms.items() if len(w) >= 2}
    )
    if not residual.is_zero() or element.counit() != 0:
        raise failure(context, residual if not residual.is_zero() else element)
    out = [0] * L.dim
    for w, c in element.terms.items():
        if len(w) == 1:
            out[w[0]] = c
    return tuple(out)


# ---------------------------------------------------------------------------
# BCH
# ---------------------------------------------------------------------------


def bch(L, x, y, order):
    """Graded coefficients of log(exp(xt) exp(yt)), each certified
    primitive before being read off as a g-vector."""
    ev._require_exact(L)
    X = _GradedEnv.from_graded_vector(GradedLieElement.from_vector(L, order, x))
    Y = _GradedEnv.from_graded_vector(GradedLieElement.from_vector(L, order, y))
    Z = X.exp().mul(Y.exp()).log()
    coeffs = [vzero(L.dim)]
    for m in range(1, order + 1):
        part = Z.parts[m]
        if not ev.is_primitive(part) and not part.is_zero():
            raise PrimitivityFailure("BCH degree %d is not primitive" % (m,))
        coeffs.append(_extract_g_vector(L, part, PrimitivityFailure, m))
    return GradedLieElement(L, order, coeffs)


# ---------------------------------------------------------------------------
# post-Lie Magnus expansion
# ---------------------------------------------------------------------------


def postlie_magnus(L, x, product, order, method="star"):
    """The expansion chi with chi_1 = x and

        chi_n = x^n/n! - sum_{k=2..n} 1/k! sum_{p_1+..+p_k=n} chi_{p_1} * .. * chi_{p_k}

    computed in the truncated enveloping algebra.  Every chi_n must
    collapse to words of length 1 (the computational witness that it is a
    g-vector); a nonzero longer residual raises CollapseFailure.

    method="ode" evaluates the same series through the defining
    differential equation instead (a g-level recursion that never builds
    words, hence also available in float mode); both paths agree and the
    star path is the witness-carrying default.

    The product must be right-handed post-Lie, as x |> y = [R_- x, y] is:
    the star lift and both recursions assume it.  For the left-handed
    [R_+ x, y] the two methods disagree and neither series satisfies
    exp(x) = exp*(chi).
    """
    x = L.check_vector(x)
    if product.algebra.dim != L.dim:
        raise DimensionMismatch("product tensor and bracket algebra disagree")
    if product.algebra.mode != L.mode:
        raise ModeMismatch(
            "product in %s mode, algebra in %s mode" % (product.algebra.mode, L.mode)
        )
    if method == "ode":
        return _chi_by_ode(L, x, product, order)
    if method != "star":
        raise InvalidInput("method must be 'star' or 'ode'")
    ev._require_exact(L)
    chi_vec = [vzero(L.dim), x]
    chi_env = [None, ev.from_g_vector(L, order, x)]
    X = ev.from_g_vector(L, order, x)
    x_power = X
    for n in range(2, order + 1):
        x_power = ev.env_mul(x_power, X)
        rhs = x_power.scale(Fraction(1, factorial(n)))
        # P[k][m] = sum over compositions of m into k parts of star products
        # of known chi's; only parts <= n-1 occur for k >= 2.
        P_prev = {m: chi_env[m] for m in range(1, n)}
        for k in range(2, n + 1):
            P_curr = {}
            for m in range(k, n + 1):
                acc = None
                for p in range(1, m - k + 2):
                    if p >= len(chi_env) or m - p not in P_prev:
                        continue
                    piece = ev.star_mul(chi_env[p], P_prev[m - p], product)
                    acc = piece if acc is None else acc + piece
                if acc is not None:
                    P_curr[m] = acc
            if n in P_curr:
                rhs = rhs - P_curr[n].scale(Fraction(1, factorial(k)))
            P_prev = P_curr
        vec = _extract_g_vector(L, rhs, CollapseFailure, n)
        chi_vec.append(vec)
        chi_env.append(ev.from_g_vector(L, order, vec))
    return GradedLieElement(L, order, chi_vec)


def _graded(f, A, B, order):
    """Degree m <= order of f(sum A_i t^i, sum B_j t^j) for a bilinear f,
    skipping zero coefficients."""
    out = [vzero(len(A[0])) for _ in range(order + 1)]
    for i, a in enumerate(A):
        if all(c == 0 for c in a):
            continue
        for j, b in enumerate(B):
            if i + j > order or all(c == 0 for c in b):
                continue
            out[i + j] = vadd(out[i + j], f(a, b))
    return out


def _ad_series(f, beta, V, coeff_of_n, order):
    """sum_n coeff_of_n(n) f_beta^n(V) for n = 0..order, where f_beta is the
    graded map f(beta, .) truncated at degree order (coeff_of_n(0) = 1)."""
    out = list(V)
    term = V
    for n in range(1, order + 1):
        term = _graded(f, beta, term, order)
        c = coeff_of_n(n)
        out = [vadd(a, vscale(c, b)) for a, b in zip(out, term)]
    return out


def _exp_tri(L, product, neg_chi, x, order):
    """exp*(-chi) |> x = sum_j (1/j!) (-chi |>)^j x up to degree order, for
    a checked x, contracted on the product's rows."""
    X = [vzero(L.dim) for _ in range(order + 1)]
    X[0] = x
    T = product.T_rows
    return _ad_series(
        lambda a, b: contract(T, a, b), neg_chi, X,
        lambda j: L.ratio(1, factorial(j)), order,
    )


def _chi_by_ode(L, x, product, order):
    """Order-by-order integration of
    d/dt chi = dexp*^{-1}_{-chi}( exp*(-chi) |> x ):
    the right side at degree m-1 only involves chi_1..chi_{m-1}, and every
    intermediate is a g-vector.  Each series is built up to degree m-1 only,
    the one degree read off.  x is checked; the recursion contracts the rows
    of L and of the product directly."""
    bern = bernoulli(order)
    bar = lambda a, b: star_commutator(L, product, a, b)
    chi = [vzero(L.dim) for _ in range(order + 1)]
    chi[1] = x
    for m in range(2, order + 1):
        deg = m - 1
        neg_chi = [vscale(-1, c) for c in chi[: deg + 1]]
        u = _exp_tri(L, product, neg_chi, x, deg)
        rhs = _ad_series(
            bar, neg_chi, u, lambda n: L.ratio(bern[n], factorial(n)), deg
        )
        chi[m] = vscale(L.ratio(1, m), rhs[deg])
    return GradedLieElement(L, order, chi)


def verify_grouplike_identity(L, x, product, order):
    """Check exp(xt) = exp_star(chi(xt)) degree by degree, exactly."""
    chi = postlie_magnus(L, x, product, order)
    lhs = _GradedEnv.from_graded_vector(
        GradedLieElement.from_vector(L, order, x)
    ).exp()
    rhs = _GradedEnv.from_graded_vector(chi).exp(star=product)
    first_failure = None
    for m in range(order + 1):
        if lhs.parts[m] != rhs.parts[m]:
            first_failure = m
            break
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
    """chi solving chi = sum_k (b_k/k!) l_chi^k (xt) order by order, for a
    pre-Lie product over an abelian bracket; agrees with postlie_magnus."""
    if any(L.C_rows):
        raise NotAbelian("prelie_magnus needs an abelian bracket")
    if not check_prelie(product)["ok"]:
        raise NotPreLie("the supplied product fails the pre-Lie identity")
    ev._require_exact(L)
    x = L.check_vector(x)
    bern = bernoulli(order)
    chi = [vzero(L.dim) for _ in range(order + 1)]
    chi[1] = x
    for m in range(2, order + 1):
        # degree-m part of sum_k b_k/k! l_chi^k(xt); x sits at degree 1 and
        # each l_chi factor adds at least one degree, so only known chi's enter
        xt = [vzero(L.dim) for _ in range(m + 1)]
        xt[1] = x
        chi[m] = _ad_series(
            product.apply, chi[:m], xt, lambda k: L.ratio(bern[k], factorial(k)), m
        )[m]
    return GradedLieElement(L, order, chi)


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
# dexp-star operators and the defining ODE of the expansion
# ---------------------------------------------------------------------------


def _as_series(x, L, order):
    if isinstance(x, GradedLieElement):
        return list(x.coeffs)
    series = [vzero(L.dim) for _ in range(order + 1)]
    series[0] = L.check_vector(x)
    return series


def dexp_star(beta, v, derived_algebra, order):
    """sum_n 1/(n+1)! ad^n_beta(v) with the derived-algebra bracket
    (the star commutator reduces to it on g-valued series)."""
    L = beta.algebra
    return _dexp_series(
        beta, v, derived_algebra, lambda n: L.ratio(1, factorial(n + 1)), order
    )


def dexp_star_inv(beta, v, derived_algebra, order):
    """sum_n b_n/n! ad^n_beta(v); inverse of dexp_star up to t^order."""
    L = beta.algebra
    bern = bernoulli(order)
    return _dexp_series(
        beta, v, derived_algebra, lambda n: L.ratio(bern[n], factorial(n)), order
    )


def _dexp_series(beta, v, derived_algebra, coeff_of_n, order):
    L = beta.algebra
    if derived_algebra.dim != L.dim:
        raise DimensionMismatch("derived algebra does not match")
    coeffs = _ad_series(
        lambda a, b: bracket(derived_algebra, a, b),
        list(beta.coeffs),
        _as_series(v, L, order),
        coeff_of_n,
        order,
    )
    return GradedLieElement(L, order, coeffs)


def verify_chi_ode(L, x, product, order):
    """Check d/dt chi(xt) = dexp*^{-1}_{-chi}( exp*(-chi) |> x ) as graded
    t-polynomials through degree order-1."""
    chi = postlie_magnus(L, x, product, order)
    bar = ev.derived_bracket_algebra(L, product)
    neg = chi.scale(-1)
    u = _exp_tri(L, product, list(neg.coeffs), L.check_vector(x), order)
    rhs = dexp_star_inv(neg, GradedLieElement(L, order, u), bar, order)
    first_failure = None
    for m in range(order):
        lhs_m = vscale(m + 1, chi.coeff(m + 1))  # d/dt shifts degree down
        if lhs_m != rhs.coeff(m):
            first_failure = m
            break
    return {"ok": first_failure is None, "first_failure": first_failure, "chi": chi}
