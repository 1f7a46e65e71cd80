"""Dense reference computations for the sparse tensor core and for the
defect reports of the r-matrix and post-Lie checks.

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


def dense_r_pm(R, half):
    """R_pm = (r +/- delta_ij) * half over every entry of the dense matrix R."""
    return tuple(
        tuple(tuple(half * (r + s * (i == j)) for j, r in enumerate(row)) for i, row in enumerate(R))
        for s in (1, -1)
    )


def dense_rmatrix_product_entries(Rs, C_rows):
    """The entries (i, j, k, Rs[a][i] * c) of the product [R_s x_i, x_j] by a
    scan of every pair (a, i), in increasing i, then a, then row order."""
    return [
        (i, j, k, Rs[a][i] * c)
        for i in range(len(Rs))
        for a, row in enumerate(C_rows)
        if Rs[a][i] != 0
        for j, k, c in row
    ]


def _apply(M, x):
    """M x for a dense square matrix (column convention), summed over the
    nonzero coordinates of x in index order."""
    nonzero = [(j, c) for j, c in enumerate(x) if c != 0]
    return tuple(sum(row[j] * c for j, c in nonzero) for row in M)


def _add(a, b):
    return tuple(p + q for p, q in zip(a, b))


def _sub(a, b):
    return tuple(p - q for p, q in zip(a, b))


def _scale(c, a):
    return tuple(c * p for p in a)


def _basis(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


def _worst(reports, is_zero):
    """(ok, worst max-norm, first index reaching it) over (index, defect)."""
    ok, worst, where = True, 0.0, None
    for index, d in reports:
        if not all(is_zero(c) for c in d):
            ok = False
        norm = max((abs(float(c)) for c in d), default=0.0)
        if norm > worst:
            worst, where = norm, index
    return ok, worst, where


def dense_mcybe_report(C, R, theta, is_zero):
    """(ok, worst norm, worst pair) of the modified Yang-Baxter defect
    R([Rx,y] + [x,Ry]) - [Rx,Ry] - theta [x,y] over basis pairs i < j."""
    n = len(C)
    br = lambda a, b: dense_contract(C, a, b)
    reports = []
    for i in range(n):
        for j in range(i + 1, n):
            x, y = _basis(n, i), _basis(n, j)
            Rx, Ry = _apply(R, x), _apply(R, y)
            d = _sub(_apply(R, _add(br(Rx, y), br(x, Ry))), br(Rx, Ry))
            reports.append(((i, j), _sub(d, _scale(theta, br(x, y)))))
    return _worst(reports, is_zero)


def dense_pm_failures(C, R, half, is_zero):
    """The failure list of the R_pm identities for R_pm = (R +/- id)/2: per
    sign (+1 then -1) and basis pair i < j, the bracket identity
    [R_s x, R_s y] = R_s([R_s x, y] + [x, R_s y] - s[x, y]) and the
    morphism identity R_s([x, y]_R) = [R_s x, R_s y]."""
    n = len(C)
    br = lambda a, b: dense_contract(C, a, b)
    failures = []
    for sign in (1, -1):
        Rs = [
            [half * (R[i][j] + sign * (1 if i == j else 0)) for j in range(n)]
            for i in range(n)
        ]
        for i in range(n):
            for j in range(i + 1, n):
                x, y = _basis(n, i), _basis(n, j)
                Rx, Ry = _apply(Rs, x), _apply(Rs, y)
                lhs = br(Rx, Ry)
                inner = _sub(_add(br(Rx, y), br(x, Ry)), _scale(sign, br(x, y)))
                if not all(is_zero(c) for c in _sub(lhs, _apply(Rs, inner))):
                    failures.append({"identity": "bracket", "sign": sign, "pair": (i, j)})
                r_br = _scale(half, _add(br(_apply(R, x), y), br(x, _apply(R, y))))
                if not all(is_zero(c) for c in _sub(_apply(Rs, r_br), lhs)):
                    failures.append({"identity": "morphism", "sign": sign, "pair": (i, j)})
    return failures


def _associator(T, x, y, z):
    prod = lambda a, b: dense_contract(T, a, b)
    return _sub(prod(prod(x, y), z), prod(x, prod(y, z)))


def dense_postlie_reports(T, C, left, is_zero):
    """(derivation, bracket) reports, each (ok, worst norm, worst triple),
    of the post-Lie axioms of the product T over the bracket C on all basis
    triples: x o [y,z] = [x o y, z] + [y, x o z], and [x,y] o z equal to
    a(x,y,z) - a(y,x,z) (left) or a(y,x,z) - a(x,y,z) (right)."""
    n = len(C)
    br = lambda a, b: dense_contract(C, a, b)
    prod = lambda a, b: dense_contract(T, a, b)
    first, second = [], []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                x, y, z = _basis(n, i), _basis(n, j), _basis(n, k)
                first.append(((i, j, k), _sub(
                    prod(x, br(y, z)), _add(br(prod(x, y), z), br(y, prod(x, z)))
                )))
                p, q = (x, y) if left else (y, x)
                rhs = _sub(_associator(T, p, q, z), _associator(T, q, p, z))
                second.append(((i, j, k), _sub(prod(br(x, y), z), rhs)))
    return _worst(first, is_zero), _worst(second, is_zero)


def dense_prelie_report(T, is_zero):
    """(ok, worst norm, worst triple) of a(x,y,z) - a(y,x,z) on basis triples."""
    n = len(T)
    reports = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                x, y, z = _basis(n, i), _basis(n, j), _basis(n, k)
                reports.append(((i, j, k), _sub(
                    _associator(T, x, y, z), _associator(T, y, x, z)
                )))
    return _worst(reports, is_zero)


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
