"""The ODE recursion of the post-Lie Magnus expansion on tuples of scalars,
kept only to cross-check ``magnus.postlie_magnus(..., method="ode")``:

- ``ode_chi_fractions``: chi_m is 1/m times the degree m-1 coefficient of
  the right side of d/dt chi = dexp*^{-1}_{-chi}( exp*(-chi) |> x ), every
  intermediate a tuple of the algebra's scalars scaled by its factor as it
  is formed, one ``liealg.contract`` call per pair of nonzero vectors.

On an exact algebra it runs on Fraction vectors, where the package keeps
integer numerators over one denominator per vector and divides once per
chi entry: both divide the same right side by m, so the entries must agree
in value and in type (chi_1 as given, and a Fraction for every entry of
chi_m with m >= 2, zeros included).  On a float algebra it makes the float
operations of the package's batched kernel in the same order, so the two
must agree bit for bit, inf and nan included.
"""

from math import factorial

from postlie.liealg import contract, vadd, vscale, vzero
from postlie.magnus import GradedLieElement, bernoulli
from postlie.products import star_commutator


def _graded_at(f, A, B, d):
    """Degree d of f(sum A_i t^i, sum B_j t^j) for a bilinear f, adding the
    products in increasing i and skipping zero coefficients."""
    out = vzero(len(B[0]))
    for i in range(max(0, d + 1 - len(B)), min(d + 1, len(A))):
        if any(A[i]) and any(B[d - i]):
            out = vadd(out, f(A[i], B[d - i]))
    return out


def _grow(table, f, beta, base, coeffs):
    """Append degree d = len(table[0]) to table[n], the degree-by-degree
    coefficients of f(beta, .)^n applied to table[0], given base, the
    degree-d coefficient of table[0]; return sum_n coeffs[n] table[n][d]."""
    d = len(table[0])
    table[0].append(base)
    table.append([vzero(len(base))] * d)
    out = base
    for n in range(1, d + 1):
        table[n].append(_graded_at(f, beta, table[n - 1], d))
        out = vadd(out, vscale(coeffs[n], table[n][d]))
    return out


def _ode_steps(L, x, product, chi, order):
    """For m = 2..order, yield the degree m-1 coefficient of the right side,
    from the powers (-chi |>)^n x and bar(-chi, .)^n u of
    u = exp*(-chi) |> x, kept per degree."""
    bern = bernoulli(order)
    exp_c = [L.ratio(1, factorial(n)) for n in range(order)]
    inv_c = [L.ratio(bern[n], factorial(n)) for n in range(order)]
    tri = lambda a, b: contract(product.T_rows, a, b)
    bar = lambda a, b: star_commutator(L.C_rows, product.T_rows, a, b)
    neg_chi = [vzero(L.dim)]
    powers, bars = [[x]], [[x]]
    for m in range(2, order + 1):
        neg_chi.append(vscale(-1, chi[m - 1]))
        u = _grow(powers, tri, neg_chi, vzero(L.dim), exp_c)
        yield _grow(bars, bar, neg_chi, u, inv_c)


def ode_chi_fractions(L, x, product, order):
    """chi(xt) through order by the ODE recursion on tuples of the
    algebra's scalars; x must be a vector checked in the algebra's mode."""
    chi = [vzero(L.dim), x]
    for m, rhs in enumerate(_ode_steps(L, x, product, chi, order), start=2):
        chi.append(vscale(L.ratio(1, m), rhs))
    return GradedLieElement(L, order, chi)
