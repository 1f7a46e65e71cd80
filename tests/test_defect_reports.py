"""The defect reports of is_rmatrix, check_pm_identities, check_postlie and
check_prelie against the dense loops in tests/oracles/dense_reference.py,
on seeded perturbations of R and of the product tensor T: ok, the worst
norm and the first index reaching it must agree.  The product rows of
from_rmatrix must equal a dense tabulation of [R_pm e_i, e_j], and the
structures products derives from the rows of C and T must equal their
tabulation on basis vectors in tests/oracles/tabulation.py."""

import pickle
from fractions import Fraction
from functools import partial

import pytest

from postlie import liealg, products, rmatrix, scalars
from postlie.errors import InvalidInput, JacobiViolation
from postlie.liealg import LinearEndo
from oracles.dense_reference import (
    dense_contract,
    dense_mcybe_report,
    dense_pm_failures,
    dense_postlie_reports,
    dense_prelie_report,
    dense_structure,
)
from oracles.tabulation import algebra_from_bracket, product_from_function
from conftest import seeded

TOL = 1e-10
CASES = 8
MODES = [scalars.EXACT, scalars.FLOAT]


def _convert(mode):
    return Fraction if mode == scalars.EXACT else float


def _deltas(mode):
    if mode == scalars.EXACT:
        return (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 3))
    # 1e-11 stays below the tolerance: ok holds while the worst norm is not 0
    return (1e-11, 1e-3, -0.25, 2.0)


def _is_zero(mode):
    if mode == scalars.EXACT:
        return lambda v: v == 0
    return lambda v: abs(v) <= TOL


def _context(name, mode):
    """A named r-matrix, or the splitting r-matrix of upper_lower_split(n)."""
    if name.startswith("upper_lower_split"):
        L = liealg.builtin(name, mode=mode)
        return rmatrix.splitting_r(L, *L.splitting)
    return rmatrix.builtin_rmatrix(name, mode=mode)


def _dense_C(L):
    convert = _convert(L.mode)
    data = liealg.algebra_to_json(L)
    entries = [(i, j, k, convert(scalars.parse_rational(v)))
               for i, j, k, v in data["structure"]]
    return dense_structure(data["dim"], entries, convert(0))


def _dense_T(product):
    convert = _convert(product.algebra.mode)
    n = product.algebra.dim
    T = [[[convert(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, v in products.product_to_json(product)["product"]:
        T[i][j][k] = convert(scalars.parse_rational(v))
    return T


def _perturb(entry_of, shape, rng, mode):
    """Up to two entries shifted by a random delta; none in one case of four,
    so the unperturbed report is compared too."""
    for _ in range(rng.choice((0, 1, 1, 2))):
        index = tuple(rng.randrange(n) for n in shape)
        entry_of(index, rng.choice(_deltas(mode)))


def _assert_report(got, want, keys, mode):
    ok, worst, where = want
    assert got[keys[0]] == ok
    assert got[keys[2]] == where
    if mode == scalars.EXACT:
        assert got[keys[1]] == worst
    else:
        assert got[keys[1]] == pytest.approx(worst, rel=1e-12, abs=0.0)


def _perturbed_R(ctx, rng):
    R = [list(row) for row in ctx.R.matrix]

    def shift(index, delta):
        R[index[0]][index[1]] += delta

    _perturb(shift, (len(R), len(R)), rng, ctx.algebra.mode)
    return R


def _perturbed_product(product, rng):
    T = _dense_T(product)
    n = len(T)

    def shift(index, delta):
        i, j, k = index
        T[i][j][k] += delta

    _perturb(shift, (n, n, n), rng, product.algebra.mode)
    entries = [
        (i, j, k, c)
        for i, plane in enumerate(T)
        for j, row in enumerate(plane)
        for k, c in enumerate(row)
    ]
    return T, products.BilinearProduct(product.algebra, entries)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ["sl2-borel", "split2", "upper_lower_split(3)"])
def test_is_rmatrix_and_pm_identities_match_the_dense_loops(name, mode):
    ctx = _context(name, mode)
    L = ctx.algebra
    C = _dense_C(L)
    rng = seeded(71)
    failing = 0
    for _ in range(CASES):
        R = _perturbed_R(ctx, rng)
        theta = scalars.coerce(rng.choice((0, 1)), mode)
        want = dense_mcybe_report(C, R, theta, _is_zero(mode))
        got = rmatrix.is_rmatrix(L, R, theta)
        _assert_report(got, want, ("ok", "worst_defect_norm", "worst_pair"), mode)
        failing += not want[0]
        perturbed = rmatrix.RMatrixContext(L, LinearEndo(R), ctx.theta)
        assert rmatrix.check_pm_identities(perturbed)["failures"] == dense_pm_failures(
            C, R, L.ratio(1, 2), _is_zero(mode)
        )
    assert failing >= CASES // 2


def _dense_product_rows(ctx, sign):
    """The rows of T[i][j] = [R_pm e_i, e_j] by a full scan of C, with
    R_pm = (R +/- id)/2 taken from R."""
    L = ctx.algebra
    C = _dense_C(L)
    R = ctx.R.matrix
    n = L.dim
    s = 1 if sign == "+" else -1
    columns = [
        tuple(L.ratio(1, 2) * (R[a][i] + s * (1 if a == i else 0)) for a in range(n))
        for i in range(n)
    ]
    T = [[dense_contract(C, columns[i], L.basis(j)) for j in range(n)] for i in range(n)]
    return tuple(
        tuple((j, k, c) for j in range(n) for k, c in enumerate(T[i][j]) if c != 0)
        for i in range(n)
    )


@pytest.mark.parametrize("name,mode", [
    *(("upper_lower_split(%d)" % n, scalars.FLOAT) for n in range(2, 7)),
    *((name, scalars.EXACT) for name in ("split2", "sl2-borel", "sl2-id")),
])
def test_from_rmatrix_rows_equal_the_dense_tabulation(name, mode):
    ctx = _context(name, mode)
    for sign in ("+", "-"):
        assert products.from_rmatrix(ctx, sign).T_rows == _dense_product_rows(ctx, sign)


def _dense_gl2(mode):
    """gl(2) in the basis P e_i for P upper triangular with ones: an entry of
    C[a] gets up to four terms, where the standard basis gives at most two."""
    L = liealg.builtin("gl(2)")
    P = [[1 if i <= j else 0 for j in range(4)] for i in range(4)]
    P_inv = [[1 if i == j else -1 if j == i + 1 else 0 for j in range(4)] for i in range(4)]
    mat = lambda M, v: tuple(sum(M[i][j] * v[j] for j in range(4)) for i in range(4))
    dense = algebra_from_bracket(
        L, lambda x, y: mat(P_inv, liealg.bracket(L, mat(P, x), mat(P, y)))
    )
    convert = _convert(mode)
    entries = [(i, j, k, convert(scalars.parse_rational(v)))
               for i, j, k, v in liealg.algebra_to_json(dense)["structure"]]
    return liealg.new_lie_algebra(4, None, entries, mode=mode)


@pytest.mark.parametrize("mode", MODES)
def test_from_rmatrix_rows_for_a_dense_R(mode):
    # a dense R on an algebra with dense structure constants: each entry of T
    # sums several products, so the order of the float additions is tested
    L = _dense_gl2(mode)
    rng = seeded(83)
    convert = _convert(mode)
    R = [[convert(rng.choice(_deltas(mode))) for _ in range(L.dim)] for _ in range(L.dim)]
    ctx = rmatrix.RMatrixContext(L, LinearEndo(R), 1)
    for sign in ("+", "-"):
        assert products.from_rmatrix(ctx, sign).T_rows == _dense_product_rows(ctx, sign)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name,sign", [("sl2-borel", "-"), ("split2", "+")])
def test_postlie_and_prelie_reports_match_the_dense_loops(name, sign, mode):
    ctx = _context(name, mode)
    L = ctx.algebra
    C = _dense_C(L)
    base = products.from_rmatrix(ctx, sign)
    rng = seeded(73)
    keys = ("ok", "worst_defect_norm", "worst_triple")
    failing = 0
    for _ in range(CASES):
        T, product = _perturbed_product(base, rng)
        for handedness in (products.LEFT, products.RIGHT):
            derivation, bracket = dense_postlie_reports(
                T, C, handedness == products.LEFT, _is_zero(mode)
            )
            got = products.check_postlie(product, handedness)
            _assert_report(got["derivation_axiom"], derivation, keys, mode)
            _assert_report(got["bracket_axiom"], bracket, keys, mode)
            assert got["ok"] == (derivation[0] and bracket[0])
            failing += not derivation[0]
        want = dense_prelie_report(T, _is_zero(mode))
        _assert_report(products.check_prelie(product), want, keys, mode)
    assert failing >= CASES // 2


@pytest.mark.parametrize("mode", MODES)
def test_prelie_report_on_theta_zero_products(mode):
    # x o y = [ad_e x, y] is pre-Lie (ad_e solves the theta = 0 equation), so
    # the unperturbed cases report ok with a zero worst norm
    L = liealg.builtin("sl(2)", mode=mode)
    R = liealg.ad(L, L.basis(0))
    base = product_from_function(
        L, lambda x, y: liealg.bracket(L, R.apply(x), y)
    )
    rng = seeded(79)
    seen = set()
    for _ in range(CASES):
        T, product = _perturbed_product(base, rng)
        want = dense_prelie_report(T, _is_zero(mode))
        _assert_report(
            products.check_prelie(product), want,
            ("ok", "worst_defect_norm", "worst_triple"), mode,
        )
        seen.add(want[0])
    assert seen == {True, False}


def _tabulated_derived_algebra(product):
    """The star-commutator algebra, tabulated on basis vectors."""
    L = product.algebra
    return algebra_from_bracket(L, partial(products.star_commutator, L.C_rows, product.T_rows))


def _tabulated_to_right(product):
    """x o y - [x,y], tabulated on basis vectors."""
    L = product.algebra
    return product_from_function(
        L, lambda x, y: liealg.vsub(product.apply(x, y), liealg.bracket(L, x, y))
    )


def _tabulated_lie_admissible(product):
    """x o y + [x,y]/2, tabulated on basis vectors."""
    L = product.algebra
    half = L.ratio(1, 2)
    return product_from_function(
        L,
        lambda x, y: liealg.vadd(product.apply(x, y), liealg.vscale(half, liealg.bracket(L, x, y))),
    )


def _tabulated_left_derived_bracket(product):
    """x o y - y o x - [x,y] of a left post-Lie product, tabulated on basis
    vectors."""
    L = product.algebra
    return algebra_from_bracket(L, lambda x, y: liealg.vsub(
        liealg.vsub(product.apply(x, y), product.apply(y, x)), liealg.bracket(L, x, y)
    ))


def _algebra_outcome(build, product):
    """(pickle of the algebra build(product) returns, None), or (None, the
    indices and defect of the JacobiViolation it raises or re-raises)."""
    try:
        return pickle.dumps(build(product)), None
    except JacobiViolation as exc:
        violation = exc
    except InvalidInput as exc:
        violation = exc.__cause__
        assert isinstance(violation, JacobiViolation), exc
        assert "is not right post-Lie" in str(exc) and "[R_minus x, y]" in str(exc)
        assert "basis triple (%d,%d,%d), component %d: defect %s" % (
            *violation.indices, violation.defect) in str(exc)
    return None, (violation.indices, violation.defect)


def _conjugated(ctx, s, k):
    """The context of E R E^-1 for the automorphism E = exp(s ad x_k), x_k
    nilpotent with ad^3 x_k = 0: its R has non-integral entries for a
    non-integral s, and is an r-matrix up to rounding."""
    L = ctx.algebra
    ad = liealg.ad(L, L.basis(k)).scale(s)
    half_square = ad.compose(ad).scale(L.ratio(1, 2))
    one = LinearEndo.identity(L.dim)
    E, E_inv = one + ad + half_square, one - ad + half_square
    return rmatrix.RMatrixContext(L, E.compose(ctx.R).compose(E_inv), ctx.theta)


def _perturbed_products(rng):
    """At least 30 float products with non-integral entries: the products of
    conjugated splittings, which are post-Lie up to rounding, and products
    with a random entry added at (i, j, k), and in one case of two at
    (j, i, k) too, which leaves the star commutator as it was up to
    rounding.  (i, j, k) is a nonzero entry of C in one case of two, where
    c + (t - t') and (c + t) - t' differ in the last bits."""
    out = []
    for name, nilpotent in (("sl2-borel", 2), ("split2", 3), ("upper_lower_split(3)", 8)):
        ctx = _context(name, scalars.FLOAT)
        n = ctx.algebra.dim
        support = [(i, j, k) for i, row in enumerate(ctx.algebra.C_rows) for j, k, _ in row]
        for _ in range(4):
            conjugated = _conjugated(ctx, rng.uniform(-1.5, 1.5), nilpotent)
            out += [products.from_rmatrix(conjugated, sign) for sign in "+-"]
        for _ in range(4):
            base = products.from_rmatrix(ctx, rng.choice("+-"))
            if rng.randrange(2):
                i, j, k = rng.choice(support)
            else:
                i, j, k = (rng.randrange(n) for _ in range(3))
            v = rng.uniform(-2.0, 2.0)
            extra = [(i, j, k, v)] + [(j, i, k, v)] * rng.randrange(2)
            entries = [(a, b, c, t) for a, row in enumerate(base.T_rows) for b, c, t in row]
            out.append(products.BilinearProduct(ctx.algebra, entries + extra))
    return out


def test_derived_structures_equal_the_dense_tabulation():
    """derived_algebra, to_right and lie_admissible, read off the rows of C
    and T, are pickle-identical to their tabulation on basis vectors, and
    raise for the same Jacobi triple where it fails; derived_algebra of
    [R_minus x, y] is the R-bracket algebra, and in exact mode that of the
    right-conversion of a left product has x o y - y o x - [x,y]."""
    contexts = [
        _context(name, mode)
        for name in (*rmatrix.BUILTIN_RMATRICES, *("upper_lower_split(%d)" % n for n in (2, 3, 4)))
        for mode in MODES
    ]
    perturbed = _perturbed_products(seeded(89))
    assert len(perturbed) >= 30
    assert not any(all(float(t).is_integer() for row in p.T_rows for _, _, t in row)
                   for p in perturbed)
    cases = [products.from_rmatrix(ctx, sign) for ctx in contexts for sign in "+-"]
    seen = {"derived": set(), "left": set()}
    for product in cases + perturbed:
        L = product.algebra
        got = _algebra_outcome(products.derived_algebra, product)
        assert got == _algebra_outcome(_tabulated_derived_algebra, product)
        seen["derived"].add(got[1] is None)
        want = _tabulated_lie_admissible(product).T_rows
        assert pickle.dumps(products.lie_admissible(product).T_rows) == pickle.dumps(want)
        try:
            right = products.to_right(product)
        except InvalidInput as exc:
            assert "needs a left post-Lie product" in str(exc)
            seen["left"].add(False)
            continue
        seen["left"].add(True)
        assert pickle.dumps(right.T_rows) == pickle.dumps(_tabulated_to_right(product).T_rows)
        if L.mode == scalars.EXACT:
            assert _algebra_outcome(products.derived_algebra, right) == _algebra_outcome(
                _tabulated_left_derived_bracket, product
            )
    assert seen == {"derived": {True, False}, "left": {True, False}}
    for ctx in contexts:
        L = ctx.algebra
        r_algebra = algebra_from_bracket(L, lambda x, y: rmatrix.r_bracket(L, ctx.R, x, y))
        derived = products.derived_algebra(products.from_rmatrix(ctx, "-"))
        assert pickle.dumps(derived) == pickle.dumps(r_algebra)
