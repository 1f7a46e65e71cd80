"""The star recursion of the post-Lie Magnus expansion on Fraction
coefficients, kept only to cross-check ``magnus.postlie_magnus``:

- ``star_chi_fractions``: chi_n = x^n/n! - sum_{k=2..n} (1/k!) P[k][n],
  with P[k][n] the degree-n part of chi^{*k}, every term scaled by its
  rational factor as it is formed (the package keeps integer numerators
  over one denominator per element and divides once per chi entry).

It keeps the recursion as the defining identity writes it: the plain
power x^n by env_mul and the k = n term x^{*n} by star_mul, whose words of
length n cancel.  The package forms their difference D_n = x^{*n} - x^n
as x.D_{n-1} + x |> x^{*(n-1)} and never builds those words.  Both read
chi_n off the same residual, the same rational term map at every order,
so the entries must agree in value and in type: int for chi_1 and for
zero entries, Fraction otherwise.
"""

from fractions import Fraction
from math import factorial

from postlie import enveloping as ev
from postlie.liealg import vzero
from postlie.magnus import GradedLieElement, _extract_g_vector


def star_chi_fractions(L, x, product, order):
    """chi(xt) through order by the star recursion, each term a Fraction
    multiple of an enveloping element; x must be a checked exact vector."""
    X = ev.from_g_vector(L, order, x)
    chi_vec = [vzero(L.dim), x]
    P = [None, {1: X}]
    x_power = X
    for n in range(2, order + 1):
        x_power = ev.env_mul(x_power, X)
        rhs = x_power.scale(Fraction(1, factorial(n)))
        P.append({})
        for k in range(2, n + 1):
            parts = [
                ev.star_mul(P[1][p], P[k - 1][n - p], product) for p in range(1, n - k + 2)
            ]
            P[k][n] = sum(parts[1:], parts[0])
            rhs = rhs - P[k][n].scale(Fraction(1, factorial(k)))
        vec = _extract_g_vector(L, rhs, n, 1)
        chi_vec.append(vec)
        P[1][n] = ev.from_g_vector(L, order, vec)
    return GradedLieElement(L, order, chi_vec)
