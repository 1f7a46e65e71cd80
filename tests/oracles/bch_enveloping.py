"""The Baker-Campbell-Hausdorff series computed in the truncated enveloping
algebra, kept only to cross-check ``magnus.bch``:

- ``bch_enveloping``: log(exp(xt) exp(yt)) over (degree, word) sums, each
  degree certified primitive before it is read off as a g-vector (the
  package solves the g-level recursion Z' = dexp_Z^{-1}(x + e^{t ad_x} y)
  and never builds a word).

Exact only.  Every nonzero entry is a Fraction and every zero entry int 0,
so the package must agree with it in value and in type.
"""

from postlie import enveloping as ev
from postlie.enveloping import _GradedEnv
from postlie.liealg import _check_order, vzero
from postlie.magnus import GradedLieElement, _extract_g_vector


def _part(Z, m):
    """The degree-m coefficient of a graded series as an EnvElement."""
    return ev.EnvElement(Z.algebra, Z.order, {w: c for (d, w), c in Z.terms.items() if d == m})


def _log(A):
    """Logarithm of a graded series with degree-0 part 1."""
    one = _GradedEnv.unit(A.algebra, A.order)
    B = A - one
    assert _part(B, 0).is_zero(), "graded log needs degree-0 part equal to 1"
    return ev._log_series(B, one, _GradedEnv.mul)


def bch_enveloping(L, x, y, order):
    """Graded coefficients of log(exp(xt) exp(yt)), each certified
    primitive before being read off as a g-vector."""
    _check_order(order, 1)
    ev._require_exact(L)
    X = _GradedEnv.from_graded_vector(GradedLieElement.from_vector(L, order, x))
    Y = _GradedEnv.from_graded_vector(GradedLieElement.from_vector(L, order, y))
    Z = _log(X.exp().mul(Y.exp()))
    coeffs = [vzero(L.dim)]
    for m in range(1, order + 1):
        part = _part(Z, m)
        assert ev.is_primitive(part) or part.is_zero(), "BCH degree %d is not primitive" % (m,)
        coeffs.append(_extract_g_vector(L, part, m, 1))
    return GradedLieElement(L, order, coeffs)
