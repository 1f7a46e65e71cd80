"""Dense reference computations for the sparse tensor core.

Deliberately does NOT import the package: each function works on plain
nested sequences (a structure or product tensor T[i][j][k]) and plain
callables, and is the straightforward dense scan the library replaced.
The floating-point additions happen in the same order as in the library,
so float results can be compared with ``==``.
"""

from fractions import Fraction
from math import comb, factorial


def dense_structure(dim, entries, zero=0):
    """C[i][j][k] from sparse entries (i, j, k, value), i < j, completed
    antisymmetrically."""
    C = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, k, v in entries:
        C[i][j][k] += v
        C[j][i][k] -= v
    return C


def dense_contract(T, x, y):
    """sum_ijk x_i y_j T[i][j][k] e_k by a full scan of T."""
    n = len(x)
    out = [0] * n
    for i in range(n):
        if x[i] == 0:
            continue
        for j in range(n):
            if y[j] == 0:
                continue
            coeff = x[i] * y[j]
            for k in range(n):
                if T[i][j][k] != 0:
                    out[k] += coeff * T[i][j][k]
    return tuple(out)


def dense_jacobi_violation(C, is_zero):
    """First (i, j, k, l), i < j < k, whose Jacobi defect
    sum_m C[i][j][m] C[m][k][l] + C[k][i][m] C[m][j][l] + C[j][k][m] C[m][i][l]
    fails ``is_zero``, with the defect; None when the identity holds."""
    n = len(C)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(n):
                    defect = 0
                    for m in range(n):
                        defect += (
                            C[i][j][m] * C[m][k][l]
                            + C[k][i][m] * C[m][j][l]
                            + C[j][k][m] * C[m][i][l]
                        )
                    if not is_zero(defect):
                        return (i, j, k, l), defect
    return None


def bernoulli(n):
    """b_0..b_n with b_1 = -1/2, from sum_{k<=m} C(m+1, k) b_k = 0."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b


def chi_by_ode_untruncated(x, order, apply, bracket, scalar=float):
    """chi_1..chi_order of the post-Lie Magnus expansion by the recursion
    d/dt chi = dexp*^{-1}_{-chi}(exp*(-chi) |> x), building every graded
    series up to degree ``order`` at every step (the degree m-1 entry is
    the only one read).  ``apply`` is the product x |> y, ``bracket`` the
    Lie bracket, ``scalar`` maps a rational coefficient to the scalar
    domain.  Returns the list chi[0..order] with chi[0] = 0."""
    n = len(x)
    zero = (0,) * n

    def add(a, b):
        return tuple(p + q for p, q in zip(a, b))

    def scale(c, a):
        return tuple(c * p for p in a)

    def graded(product, A, B):
        out = [zero] * (order + 1)
        for i, a in enumerate(A):
            if all(c == 0 for c in a):
                continue
            for j, b in enumerate(B):
                if i + j > order or all(c == 0 for c in b):
                    continue
                out[i + j] = add(out[i + j], product(a, b))
        return out

    def bar(a, b):
        return add(bracket(a, b), tuple(p - q for p, q in zip(apply(a, b), apply(b, a))))

    bern = bernoulli(order)
    chi = [zero] * (order + 1)
    chi[1] = tuple(x)
    for m in range(2, order + 1):
        deg = m - 1
        neg_chi = [scale(-1, c) for c in chi]
        u = [zero] * (order + 1)
        u[0] = tuple(x)
        term = u
        for j in range(1, deg + 1):
            term = graded(apply, neg_chi, term)
            c = scalar(Fraction(1, factorial(j)))
            u = [add(a, scale(c, b)) for a, b in zip(u, term)]
        rhs = list(u)
        ad_term = u
        for k in range(1, deg + 1):
            ad_term = graded(bar, neg_chi, ad_term)
            c = scalar(bern[k] / factorial(k))
            rhs = [add(a, scale(c, b)) for a, b in zip(rhs, ad_term)]
        chi[m] = scale(scalar(Fraction(1, m)), rhs[deg])
    return chi
