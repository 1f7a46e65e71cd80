import hashlib
import math
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest

from postlie import enveloping as ev
from postlie import flows, liealg, magnus, products, rmatrix, scalars
from postlie.errors import (
    CollapseFailure,
    InvalidInput,
    NotAbelian,
    NotPreLie,
)
from conftest import BUILTIN_RMATRICES, exact_context, random_vector, seeded
from oracles.bch_enveloping import bch_enveloping
from oracles.closed_forms import prelie_magnus_fixed_point
from oracles.ode_chi_fractions import _ode_steps as fraction_ode_steps
from oracles.ode_chi_fractions import ode_chi_fractions
from oracles import star_chi_fractions as star_oracle
from oracles.star_chi_fractions import star_chi_fractions
from oracles.tabulation import product_from_function

F = Fraction


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------


def test_bernoulli_values():
    # oracle: independent recurrence sum_{j<=m} C(m+1,j) B_j = 0 seeded at
    # B_0 = 1 (first kind, B_1 = -1/2), tests/oracles/oracle_values.py
    want = [
        F(1),
        F(-1, 2),
        F(1, 6),
        F(0),
        F(-1, 30),
        F(0),
        F(1, 42),
        F(0),
        F(-1, 30),
        F(0),
        F(5, 66),
    ]
    assert magnus.bernoulli(10) == want


def test_bernoulli_recurrence():
    from math import comb

    b = magnus.bernoulli(12)
    for m in range(1, 12):
        assert sum(comb(m + 1, j) * b[j] for j in range(m + 1)) == 0


# ---------------------------------------------------------------------------
# graded elements
# ---------------------------------------------------------------------------


def test_graded_element_arithmetic(sl2):
    x = magnus.GradedLieElement.from_vector(sl2, 4, (1, 0, 2))
    y = magnus.GradedLieElement(sl2, 4, [(0, 0, 0)] * 2 + [(0, 1, 0)] + [(0, 0, 0)] * 2)
    z = x + y.scale(F(3))
    assert z.coeff(1) == (1, 0, 2)
    assert z.coeff(2) == (0, 3, 0)
    assert (z - z).is_zero()
    assert magnus.GradedLieElement.zero(sl2, 4).is_zero()
    with pytest.raises(InvalidInput):
        magnus.GradedLieElement.from_vector(sl2, 0, (1, 0, 0))


def test_graded_json_round_trip(sl2):
    x = magnus.GradedLieElement.from_vector(sl2, 3, (1, 0, 2))
    y = x + magnus.GradedLieElement(sl2, 3, [(0, 0, 0)] * 2 + [(0, F(-1, 2), 0), (0, 0, 0)])
    data = magnus.graded_to_json(y)
    back = magnus.graded_from_json(sl2, data)
    assert back == y


# ---------------------------------------------------------------------------
# BCH by the g-level recursion, against the enveloping-algebra oracle
# ---------------------------------------------------------------------------


def test_bch_low_degrees(sl2):
    e, f = sl2.basis(0), sl2.basis(2)
    out = magnus.bch(sl2, e, f, 4)
    assert out.coeff(1) == (1, 0, 1)
    # oracle: (1/2)[e,f] = h/2, hand evaluation
    assert out.coeff(2) == (0, F(1, 2), 0)
    # oracle: (1/12)([e,[e,f]] + [f,[f,e]]) = -(e+f)/6, hand evaluation
    # cross-checked in tests/oracles/oracle_values.py
    assert out.coeff(3) == (F(-1, 6), 0, F(-1, 6))
    # oracle: degree-4 term -(1/24)[f,[e,[e,f]]] for the (x,y)=(e,f) pair,
    # evaluated with the independent bracket tables = -(1/12) h ... value
    # frozen from the graded-log expansion cross-checked at two truncations
    assert out.coeff(4) == (0, F(-1, 12), 0)


def test_bch_degree_one_and_two_generic(sl2):
    rng = seeded(211)
    for _ in range(6):
        x, y = random_vector(sl2, rng), random_vector(sl2, rng)
        out = magnus.bch(sl2, x, y, 2)
        assert out.coeff(1) == liealg.vadd(x, y)
        half = liealg.vscale(F(1, 2), liealg.bracket(sl2, x, y))
        assert out.coeff(2) == half


@pytest.mark.parametrize("name", ["sl(2)", "gl(2)", "so(3)"])
def test_bch_degrees_four_and_five_match_the_closed_forms(name):
    """Degree 4 is -1/24 [y,[x,[x,y]]]; degree 5 is the quintic
    -1/720 ([y,[y,[y,[y,x]]]] + [x,[x,[x,[x,y]]]])
    + 1/360 ([x,[y,[y,[y,x]]]] + [y,[x,[x,[x,y]]]])
    + 1/120 ([y,[x,[y,[x,y]]]] + [x,[y,[x,[y,x]]]]),
    each bracket evaluated with the structure constants."""
    L = liealg.builtin(name)
    rng = seeded(409)

    def nest(*letters):  # [a1,[a2,[...,[a_{k-1}, a_k]]]]
        out = letters[-1]
        for a in reversed(letters[:-1]):
            out = liealg.bracket(L, a, out)
        return out

    def combo(*pairs):
        out = liealg.vzero(L.dim)
        for c, v in pairs:
            out = liealg.vadd(out, liealg.vscale(c, v))
        return out

    for _ in range(3):
        x = random_vector(L, rng)
        y = tuple(c / rng.choice([1, 2, 3]) for c in random_vector(L, rng))
        out = magnus.bch(L, x, y, 5)
        assert out.coeff(4) == combo((F(-1, 24), nest(y, x, x, y)))
        assert out.coeff(5) == combo(
            (F(-1, 720), nest(y, y, y, y, x)),
            (F(-1, 720), nest(x, x, x, x, y)),
            (F(1, 360), nest(x, y, y, y, x)),
            (F(1, 360), nest(y, x, x, x, y)),
            (F(1, 120), nest(y, x, y, x, y)),
            (F(1, 120), nest(x, y, x, y, x)),
        )


def _bch_pair(L, seed):
    rng = seeded(seed)
    x = random_vector(L, rng)
    return x, tuple(c / rng.choice([1, 2, 3]) for c in random_vector(L, rng))


# the oracle's word count grows exponentially with the order: these are the
# orders it finishes in well under a second
BCH_ORACLE_CASES = (
    [("sl(2)", n) for n in range(1, 7)]
    + [("gl(2)", n) for n in range(2, 6)]
    + [("so(3)", n) for n in range(3, 6)]
    + [("gl(3)", n) for n in (2, 3)]
)


@pytest.mark.parametrize("name,order", BCH_ORACLE_CASES)
def test_bch_matches_the_enveloping_oracle_in_value_and_type(name, order):
    L = liealg.builtin(name)
    x, y = _bch_pair(L, 2400 + order)
    got = magnus.bch(L, x, y, order).coeffs
    assert pickle.dumps(got) == pickle.dumps(bch_enveloping(L, x, y, order).coeffs)


DEMO_PAIR = (F(1, 2), 0, 0), (0, 0, F(1, 3))  # e/2 and f/3 of demo 01


def test_bch_of_the_demo_pair_matches_the_enveloping_oracle(sl2):
    x, y = DEMO_PAIR
    got = magnus.bch(sl2, x, y, 8).coeffs
    assert pickle.dumps(got) == pickle.dumps(bch_enveloping(sl2, x, y, 8).coeffs)


@pytest.mark.parametrize("name", ["gl(3)", "gl(4)"])
def test_bch_identities_at_order_ten(name):
    """Z(-y, -x) = -Z(x, y), Z(x, 0) = x and Z(x, x) = 2x, exactly."""
    L, order = liealg.builtin(name), 10
    x, y = _bch_pair(L, 2410)
    neg = lambda v: liealg.vscale(-1, v)
    assert magnus.bch(L, neg(y), neg(x), order) == magnus.bch(L, x, y, order).scale(-1)
    along = lambda v: magnus.GradedLieElement.from_vector(L, order, v)
    assert magnus.bch(L, x, liealg.vzero(L.dim), order) == along(x)
    assert magnus.bch(L, x, x, order) == along(liealg.vscale(2, x))


# largest relative error (absolute below 1) measured on these pairs: 6.7e-15
BCH_FLOAT_TOLERANCE = 2e-14


def test_float_bch_matches_the_exact_series_at_order_eight():
    pairs = [(name, _bch_pair(liealg.builtin(name), 2400 + order))
             for name, order in BCH_ORACLE_CASES] + [("sl(2)", DEMO_PAIR)]
    worst = 0
    for name, (x, y) in pairs:
        L, Lf = liealg.builtin(name), liealg.builtin(name, mode=scalars.FLOAT)
        want = magnus.bch(L, x, y, 8).coeffs
        got = magnus.bch(Lf, [float(c) for c in x], [float(c) for c in y], 8).coeffs
        assert all(type(c) is float for v in got for c in v)
        worst = max(worst, *(
            abs(a - b) / max(1, abs(b)) for u, v in zip(got, want) for a, b in zip(u, v)
        ))
    assert worst <= BCH_FLOAT_TOLERANCE


# the first 16 hex digits of the sha256 of float bch at order 8, every
# coefficient as float.hex and joined by spaces, recorded from the library
# while bch still ran its own copy of the ode chi's recursion
BCH_FLOAT_BITS = {
    "gl(3)": "a231a00c3b93072c", "so(3)": "95ec5b3e74a25048", "sl(2)": "b252e4da2b89412a",
}


def test_float_bch_bits_are_pinned():
    """BCH_FLOAT_TOLERANCE bounds float bch against the exact series; this
    pins its bits, so that a rewrite of the recursion cannot move them
    unseen.  gl(3) and so(3) take the first pair of the oracle cases,
    sl(2) the demo pair."""
    pairs = {
        "gl(3)": _bch_pair(liealg.builtin("gl(3)"), 2402),
        "so(3)": _bch_pair(liealg.builtin("so(3)"), 2403),
        "sl(2)": DEMO_PAIR,
    }
    for name, (x, y) in pairs.items():
        Lf = liealg.builtin(name, mode=scalars.FLOAT)
        got = magnus.bch(Lf, [float(c) for c in x], [float(c) for c in y], 8).coeffs
        text = " ".join(c.hex() for v in got for c in v)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == BCH_FLOAT_BITS[name]


def test_graded_exp_log_reject_bad_degree_zero_part(sl2):
    one = ev._GradedEnv.unit(sl2, 3)
    with pytest.raises(InvalidInput, match="without degree-0 part"):
        one.exp()
    # the boundary case the check accepts: exp(0) = 1
    assert (one - one).exp() == one


# ---------------------------------------------------------------------------
# the chi expansion: closed forms and both computation paths
# ---------------------------------------------------------------------------


def test_chi_closed_forms_sl2_borel(borel_ctx, borel_product):
    L = borel_ctx.algebra
    x = (1, 0, 1)  # e + f
    chi = magnus.postlie_magnus(L, x, borel_product, 5)
    assert chi.coeff(1) == (1, 0, 1)
    # oracle: chi_2 = -(1/2) x|>x with x|>x = [R_-x, x] = -h,
    # tests/oracles/oracle_values.py
    assert chi.coeff(2) == (0, F(-1, 2), 0)
    # oracle: chi_3 = (1/4)[R_-(x|>x), x] + (1/12)([[R_-x,x],x] +
    # [R_-x,[R_-x,x]]) evaluated by hand = e/6 - f/3
    assert chi.coeff(3) == (F(1, 6), 0, F(-1, 3))
    # frozen from the star recursion, cross-checked against the
    # derivation-equation path (method="ode") which shares no code
    assert chi.coeff(4) == (0, F(1, 12), 0)
    assert chi.coeff(5) == (F(-1, 30), 0, F(2, 15))


def test_chi_closed_forms_gl2_split(split2_ctx, split2_product):
    L = split2_ctx.algebra
    idx = {lab: i for i, lab in enumerate(L.labels)}
    x = [0] * 4
    x[idx["E12"]] = 1
    x[idx["E21"]] = 1
    chi = magnus.postlie_magnus(L, tuple(x), split2_product, 4)
    # oracle: matrix route in tests/oracles/oracle_values.py,
    # chi_2 = -(1/2)[R_-x, x] = diag(-1/2, 1/2)
    want2 = [0] * 4
    want2[idx["E11"]] = F(-1, 2)
    want2[idx["E22"]] = F(1, 2)
    assert list(chi.coeff(2)) == want2
    # chi_3, chi_4: frozen after verifying the two independent paths agree
    want3 = [0] * 4
    want3[idx["E12"]] = F(1, 6)
    want3[idx["E21"]] = F(-1, 3)
    assert list(chi.coeff(3)) == want3
    want4 = [0] * 4
    want4[idx["E11"]] = F(1, 12)
    want4[idx["E22"]] = F(-1, 12)
    assert list(chi.coeff(4)) == want4


def test_chi_two_paths_agree(borel_ctx, borel_product, split2_ctx, split2_product):
    cases = [(borel_ctx, borel_product), (split2_ctx, split2_product)]
    rng = seeded(223)
    for ctx, prod in cases:
        L = ctx.algebra
        for _ in range(4):
            x = random_vector(L, rng, span=2)
            star = magnus.postlie_magnus(L, x, prod, 6, method="star")
            ode = magnus.postlie_magnus(L, x, prod, 6, method="ode")
            for m in range(1, 7):
                assert star.coeff(m) == ode.coeff(m), (m, x)


@pytest.mark.parametrize("method", ["star", "ode"])
@pytest.mark.parametrize("order", [0, -1])
def test_chi_rejects_an_order_below_one(borel_ctx, borel_product, method, order):
    with pytest.raises(InvalidInput) as exc:
        magnus.postlie_magnus(
            borel_ctx.algebra, (1, 0, 1), borel_product, order, method=method
        )
    assert str(exc.value) == "order must be at least 1 (got %d)" % order


def test_chi_identity_r_matrix_is_trivial():
    ctx = rmatrix.builtin_rmatrix("sl2-id")
    prod = products.from_rmatrix(ctx, "-")
    L = ctx.algebra
    chi = magnus.postlie_magnus(L, (1, 2, -1), prod, 5)
    assert chi.coeff(1) == (1, 2, -1)
    for m in range(2, 6):
        assert all(c == 0 for c in chi.coeff(m))


def test_chi_scaling_homogeneity(borel_ctx, borel_product):
    # chi_m(c x) = c^m chi_m(x): the expansion is graded in its argument
    L = borel_ctx.algebra
    x = (1, 1, 2)
    c = F(2, 3)
    chi1 = magnus.postlie_magnus(L, x, borel_product, 5)
    chi2 = magnus.postlie_magnus(
        L, tuple(c * v for v in x), borel_product, 5
    )
    for m in range(1, 6):
        assert chi2.coeff(m) == tuple(c**m * v for v in chi1.coeff(m))


def _entries(chi):
    """chi's coefficients as (value, type) pairs: == compares both."""
    return [[(c, type(c)) for c in v] for v in chi.coeffs]


@pytest.mark.parametrize("name", ["sl2-borel", "split2", "upper_lower_split(3)"])
def test_star_chi_on_integer_numerators_matches_fraction_oracle(name):
    # the star recursion divides once per chi entry; the oracle scales every
    # term by its Fraction factor: same values, same entry types
    ctx = exact_context(name)
    L, prod = ctx.algebra, products.from_rmatrix(ctx, "-")
    rng = seeded(1901)
    directions = [
        [rng.choice((-2, -1, 1, 2)) for _ in range(L.dim)],
        [F(rng.choice((-3, -1, 1, 3)), 2) for _ in range(L.dim)],
        [F(rng.choice((-2, -1, 0, 1, 2)), rng.choice((1, 3))) for _ in range(L.dim)],
        [F(k % 3 - 1, 2 + k % 2) for k in range(L.dim)],
    ]
    for x in directions:
        chi = magnus.postlie_magnus(L, x, prod, 5)
        want = star_chi_fractions(L, L.check_vector(x), prod, 5)
        assert _entries(chi) == _entries(want), x


def test_star_chi_with_fraction_product_entries_matches_fraction_oracle(borel_ctx, borel_product):
    L = borel_ctx.algebra
    half = products.BilinearProduct(
        L, [(i, j, k, F(c, 2)) for i, row in enumerate(borel_product.T_rows) for j, k, c in row]
    )
    assert any(type(c) is F for row in half.T_rows for _, _, c in row)
    for x in [(1, 0, 1), (F(1, 2), 1, F(-2, 3))]:
        chi = magnus.postlie_magnus(L, x, half, 5)
        assert _entries(chi) == _entries(star_chi_fractions(L, L.check_vector(x), half, 5))


@pytest.mark.parametrize("sign", "-+")
@pytest.mark.parametrize(
    "name, order",
    [("sl2-borel", 6), ("split2", 6), ("upper_lower_split(3)", 5), ("upper_lower_split(4)", 4)],
)
def test_star_chi_residual_matches_fraction_oracle_at_every_order(name, order, sign, monkeypatch):
    # the package forms -D_n/n! from D_n = x^{*n} - x^n = x.D_{n-1} + x |> x^{*(n-1)},
    # the oracle x^n/n! - x^{*n}/n!: the element each hands _extract_g_vector is the
    # same rational term map at every order, the longer words (which sum to 0) included
    ctx = exact_context(name)
    L, prod = ctx.algebra, products.from_rmatrix(ctx, sign)
    rng = seeded(3503)
    x = L.check_vector([F(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2, 3))) for _ in range(L.dim)])
    extract, seen = magnus._extract_g_vector, {}

    def spy(who):
        def read(L, element, n, den):
            seen.setdefault(who, []).append(
                (n, {w: F(c, den) for w, c in element.terms.items()})
            )
            return extract(L, element, n, den)
        return read

    monkeypatch.setattr(magnus, "_extract_g_vector", spy("package"))
    monkeypatch.setattr(star_oracle, "_extract_g_vector", spy("oracle"))
    magnus.postlie_magnus(L, x, prod, order)
    star_chi_fractions(L, x, prod, order)
    assert [n for n, _ in seen["package"]] == list(range(2, order + 1))
    assert seen["package"] == seen["oracle"]


@pytest.mark.parametrize("name, order", [("upper_lower_split(3)", 5), ("upper_lower_split(4)", 4)])
def test_star_chi_normalizes_no_word_of_the_top_length(name, order):
    # the words of length n of x^n and x^{*n} cancel, and are not built: D_n
    # has shorter words only, and x^{*n} is formed below the top order only.
    # Building x^N beside x^{*N} normalized every word of length N = order
    ctx = exact_context(name)
    L = ctx.algebra
    assert not L._pbw_cache
    x = [(-1) ** k * (k % 3 + 1) for k in range(L.dim)]
    magnus.postlie_magnus(L, x, products.from_rmatrix(ctx, "-"), order)
    assert max(map(len, L._pbw_cache)) == order - 1


def test_collapse_failure_carries_the_rational_residual(borel_ctx, borel_product, monkeypatch):
    # twice the plain product in place of the star product leaves -x^2/2 at
    # order 2; the residual is reported divided by the common denominator.
    # The package reads x * W as x.W + x |> W, so its lift is the plain
    # product; the oracle reads the star product itself
    monkeypatch.setattr(ev, "star_mul", lambda A, B, product: ev.env_mul(A, B).scale(2))
    monkeypatch.setattr(ev, "triangle_lift", lambda A, B, product: ev.env_mul(A, B))
    L, x = borel_ctx.algebra, (F(1, 2), 1, F(2, 3))
    with pytest.raises(CollapseFailure) as got:
        magnus.postlie_magnus(L, x, borel_product, 3)
    with pytest.raises(CollapseFailure) as want:
        star_chi_fractions(L, L.check_vector(x), borel_product, 3)
    assert str(got.value) == str(want.value)
    assert got.value.residual == want.value.residual and got.value.order == 2


# ---------------------------------------------------------------------------
# the defining identity and the collapse property
# ---------------------------------------------------------------------------


def test_grouplike_identity_holds_for_minus_products():
    rng = seeded(227)
    for name in BUILTIN_RMATRICES:
        ctx = rmatrix.builtin_rmatrix(name)
        prod = products.from_rmatrix(ctx, "-")
        L = ctx.algebra
        for _ in range(3):
            x = random_vector(L, rng, span=2)
            report = magnus.verify_grouplike_identity(L, x, prod, 5)
            assert report["ok"], (name, x, report)
            assert report["degrees_checked"] == 5


def test_grouplike_identity_fails_for_plus_product(borel_ctx):
    # the lifted recursions pair with right-handed tensors; feeding the
    # left-handed companion breaks the identity at degree 3, which the
    # checker must surface rather than mask
    prod = products.from_rmatrix(borel_ctx, "+")
    L = borel_ctx.algebra
    report = magnus.verify_grouplike_identity(L, (1, 0, 1), prod, 4)
    assert not report["ok"]
    assert report["first_failure"] == 3


def test_collapse_residual_zero(borel_ctx, borel_product):
    # every chi_n must be a bare Lie element: length->=2 PBW residual zero
    L = borel_ctx.algebra
    rng = seeded(229)
    for _ in range(5):
        x = random_vector(L, rng, span=2)
        chi = magnus.postlie_magnus(L, x, borel_product, 5)
        assert not chi.is_zero()  # reaching here means no CollapseFailure


def test_collapse_alone_does_not_certify_a_postlie_tensor(sl2):
    # the lifted product is coproduct-compatible for ANY tensor, so the
    # recursion's outputs stay primitive and extraction succeeds even for
    # junk input (CollapseFailure guards the invariant rather than being a
    # reachable rejection path); what a junk tensor does break is the
    # defining group-like identity, and the checkers must catch that
    # e o f = h, everything else zero: not post-Lie
    bad = products.BilinearProduct(sl2, [(0, 2, 1, 1)])
    assert not products.check_postlie(bad, products.RIGHT)["ok"]
    chi = magnus.postlie_magnus(sl2, (1, 0, 1), bad, 4)  # no CollapseFailure
    assert chi.coeff(2) == (0, F(-1, 2), 0)  # -(1/2) x|>x is tensor-generic
    report = magnus.verify_grouplike_identity(sl2, (1, 0, 1), bad, 5)
    assert not report["ok"] and report["first_failure"] == 3
    # the ode check catches it too, one degree lower on the right side
    report = magnus.verify_chi_ode(sl2, (1, 0, 1), bad, 5)
    assert not report["ok"] and report["first_failure"] == 2


# ---------------------------------------------------------------------------
# factorization parts
# ---------------------------------------------------------------------------


def test_chi_pm_recombines(borel_ctx, borel_product):
    L = borel_ctx.algebra
    chi = magnus.postlie_magnus(L, (1, 0, 1), borel_product, 4)
    plus, minus = magnus.chi_pm(chi, borel_ctx)
    total = plus + minus
    for m in range(1, 5):
        assert total.coeff(m) == chi.coeff(m)


def test_chi_pm_parts_live_in_their_ranges(borel_ctx, borel_product):
    # borel splitting: plus part has no f component, minus part only f
    L = borel_ctx.algebra
    chi = magnus.postlie_magnus(L, (1, 0, 1), borel_product, 4)
    plus, minus = magnus.chi_pm(chi, borel_ctx)
    for m in range(1, 5):
        assert plus.coeff(m)[2] == 0
        assert minus.coeff(m)[0] == 0 and minus.coeff(m)[1] == 0


# ---------------------------------------------------------------------------
# the defining ODE
# ---------------------------------------------------------------------------


def test_verify_chi_ode_passes_exactly(borel_ctx, borel_product):
    L = borel_ctx.algebra
    report = magnus.verify_chi_ode(L, (1, 0, 1), borel_product, 4)
    assert report["ok"], report
    report2 = magnus.verify_chi_ode(L, (2, 1, -1), borel_product, 4)
    assert report2["ok"], report2


def _directions(L, seed):
    """Integer directions and directions with denominators 2 and 3."""
    rng = seeded(seed)
    return [
        [rng.choice((-2, -1, 1, 2)) for _ in range(L.dim)],
        [F(rng.choice((-3, -1, 1, 3)), 2) for _ in range(L.dim)],
        [F(rng.choice((-2, -1, 0, 1, 2)), rng.choice((1, 3))) for _ in range(L.dim)],
        [F(k % 3 - 1, 2 + k % 2) for k in range(L.dim)],
    ]


@pytest.mark.parametrize(
    "name, order",
    [("sl2-borel", 10), ("split2", 10), ("upper_lower_split(3)", 9), ("upper_lower_split(4)", 8)],
)
def test_ode_chi_on_integer_numerators_matches_fraction_oracle(name, order):
    # the ode recursion runs on integer numerators over one denominator and
    # divides once per chi entry; the oracle runs on Fraction vectors: same
    # values, same entry types (chi_1 as checked, a Fraction for every entry
    # of chi_m with m >= 2, zeros included)
    ctx = exact_context(name)
    L, prod = ctx.algebra, products.from_rmatrix(ctx, "-")
    for x in _directions(L, 2101):
        chi = magnus.postlie_magnus(L, x, prod, order, method="ode")
        want = ode_chi_fractions(L, L.check_vector(x), prod, order)
        assert _entries(chi) == _entries(want), x
        assert all(type(c) is F for v in chi.coeffs[2:] for c in v)


def test_ode_chi_with_fraction_product_entries_matches_fraction_oracle(borel_ctx, borel_product):
    L = borel_ctx.algebra
    half = products.BilinearProduct(
        L, [(i, j, k, F(c, 2)) for i, row in enumerate(borel_product.T_rows) for j, k, c in row]
    )
    for x in [(1, 0, 1), (F(1, 2), 1, F(-2, 3))] + _directions(L, 2102):
        chi = magnus.postlie_magnus(L, x, half, 9, method="ode")
        assert _entries(chi) == _entries(ode_chi_fractions(L, L.check_vector(x), half, 9))


def _float_ode_case(case):
    """(algebra, x, product, order) of a float ode-chi case."""
    kind, arg = case
    if kind == "toda":
        n, scale = arg
        problem = flows.toda_problem(
            n, [scale * (i % 3 - 0.6) for i in range(n)],
            [scale * (0.4 + 0.1 * i) for i in range(n - 1)], [0.0, 1.0], 10,
        )
        return problem.algebra, problem.x0, products.from_rmatrix(problem.ctx, "-"), 10
    if kind == "split":
        L = liealg.builtin("upper_lower_split(%d)" % arg, mode=scalars.FLOAT)
        ctx, order = rmatrix.splitting_r(L, *L.splitting), 9
    else:
        ctx, order = rmatrix.builtin_rmatrix(arg, mode=scalars.FLOAT), 12
    rng = seeded(2103)
    x = tuple(rng.choice((-1, 1)) * rng.uniform(0.1, 1.0) for _ in range(ctx.algebra.dim))
    if kind == "sparse":
        x = (3e35, 0.0, -4e35)
    return ctx.algebra, x, products.from_rmatrix(ctx, "-"), order


# the last three overflow; in the last two an inf or a nan meets a zero factor
OVERFLOWING = [("toda", (4, 1e35)), ("toda", (4, 1e100)), ("sparse", "sl2-borel")]
FLOAT_ODE_CASES = (
    [("toda", (n, 1.0)) for n in range(2, 9)]
    + [("split", 3), ("split", 4), ("builtin", "sl2-borel"), ("builtin", "split2")]
    + OVERFLOWING
)


@pytest.mark.parametrize("case", FLOAT_ODE_CASES, ids=str)
def test_float_ode_chi_is_bit_identical_to_the_tuple_recursion(case):
    # the batched float kernel makes every float operation of the recursion
    # on tuples, in its order: the same bits (pickled), inf and nan in the
    # same places, Python floats, and no NumPy warning, also where it overflows
    L, x, prod, order = _float_ode_case(case)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chi = magnus.postlie_magnus(L, x, prod, order, method="ode")
    want = ode_chi_fractions(L, x, prod, order)
    flags = lambda g: [(math.isinf(c), math.isnan(c)) for v in g.coeffs for c in v]
    assert flags(chi) == flags(want)
    assert any(map(any, flags(chi))) == (case in OVERFLOWING)
    assert all(type(c) is float for v in chi.coeffs for c in v)
    assert pickle.dumps(chi.coeffs) == pickle.dumps(want.coeffs)


def test_batched_contraction_adds_underflowing_products_to_plus_zero():
    # products that underflow are +-0; contract adds them to 0, so an output
    # whose products are all -0 is +0.0, and the batched kernel's fold starts
    # at +0.0 too (one from its first row or from -0.0 gives -0.0 there).
    # No chi or bch coefficient shows the sign: each later sum starts at +0.0
    L = liealg.builtin("upper_lower_split(3)", mode=scalars.FLOAT)
    ops = magnus._Arrays((L.C_rows,))
    batch = ops.bilinear(liealg.contract, *ops.rows)
    rng = np.random.default_rng(31)
    A, B = rng.choice([-1e-200, 1e-200], (2, 64, L.dim)).tolist()
    want = [[float(c) for c in liealg.contract(L.C_rows, a, b)] for a, b in zip(A, B)]
    assert pickle.dumps(batch(np.array(A), np.array(B)).tolist()) == pickle.dumps(want)


def _fraction_ode_report(L, x, product, order):
    """verify_chi_ode's report as the Fraction-vector recursion gives it."""
    chi = magnus.postlie_magnus(L, x, product, order)
    steps = fraction_ode_steps(L, chi.coeff(1), product, chi.coeffs, order)
    for m, rhs in enumerate(steps, start=2):
        if liealg.vscale(m, chi.coeff(m)) != rhs:
            return {"ok": False, "first_failure": m - 1}
    return {"ok": True, "first_failure": None}


@pytest.mark.parametrize("name", ["sl2-borel", "split2", "upper_lower_split(3)"])
@pytest.mark.parametrize("sign", ["-", "+"])
def test_verify_chi_ode_report_matches_the_fraction_recursion(name, sign):
    ctx = exact_context(name)
    L, prod = ctx.algebra, products.from_rmatrix(ctx, sign)
    for x in _directions(L, 7)[:2] + [[1] * L.dim]:
        report = magnus.verify_chi_ode(L, x, prod, 6)
        want = _fraction_ode_report(L, L.check_vector(x), prod, 6)
        assert {k: report[k] for k in want} == want, x
        if sign == "-":
            assert report["ok"], x


@pytest.mark.parametrize("order", [5, 8])
def test_verify_chi_ode_left_handed_first_failure_matches_the_fraction_recursion(borel_ctx, order):
    L = borel_ctx.algebra
    left = products.from_rmatrix(borel_ctx, "+")
    report = magnus.verify_chi_ode(L, (1, 0, 1), left, order)
    assert _fraction_ode_report(L, (1, 0, 1), left, order) == {"ok": False, "first_failure": 3}
    assert not report["ok"] and report["first_failure"] == 3


def test_verify_chi_ode_reports_a_left_handed_product(borel_ctx):
    # [R_+ x, y] is left post-Lie: the ode check meets the first wrong
    # degree where the group-like identity does, and raises nothing
    L = borel_ctx.algebra
    left = products.from_rmatrix(borel_ctx, "+")
    report = magnus.verify_chi_ode(L, (1, 0, 1), left, 5)
    assert not report["ok"] and report["first_failure"] == 3
    assert magnus.verify_grouplike_identity(L, (1, 0, 1), left, 5)["first_failure"] == 3


# ---------------------------------------------------------------------------
# pre-Lie specialization
# ---------------------------------------------------------------------------


def _theta_zero_product(s=None):
    """Pre-Lie product [Rx, y] from the nilpotent r-matrix R = ad_e,
    optionally conjugated by exp(s ad_f)."""
    sl2 = liealg.builtin("sl(2)")
    R = liealg.ad(sl2, sl2.basis(0))
    if s is not None:
        adf = liealg.ad(sl2, sl2.basis(2)).scale(s)
        # exp(ad) of a nilpotent endo: cubic terms suffice on sl(2)
        ident = liealg.LinearEndo.identity(3)
        E = ident + adf + adf.compose(adf).scale(F(1, 2))
        Einv = ident + adf.scale(-1) + adf.compose(adf).scale(F(1, 2))
        R = E.compose(R).compose(Einv)
    prod = product_from_function(
        sl2, lambda x, y: liealg.bracket(sl2, R.apply(x), y)
    )
    return sl2, prod


def test_prelie_magnus_matches_postlie_with_abelian_bracket():
    """The pre-Lie chi, the star chi and the ode chi all equal the fixed
    point of chi = sum_k (b_k/k!) l_chi^k (xt) through order 8, on the
    theta = 0 product of sl(2) over a flat bracket and on a 2-dim pre-Lie
    product whose l_a is not nilpotent (a o a = 2a, a o b = b)."""
    sl2, prod = _theta_zero_product()
    flat = liealg.new_lie_algebra(3, ["e", "h", "f"], [])
    flat_prod = product_from_function(flat, prod.apply)
    rng = seeded(233)
    cases = [(flat, flat_prod, random_vector(sl2, rng, span=2)) for _ in range(5)]
    flat2 = liealg.new_lie_algebra(2, ["a", "b"], [])
    grow = products.BilinearProduct(flat2, [(0, 0, 0, 2), (0, 1, 1, 1)])
    cases.append((flat2, grow, (F(1), F(-1, 2))))
    for L, P, x in cases:
        want = prelie_magnus_fixed_point(L, x, P, 8)
        for chi in (
            magnus.prelie_magnus(L, x, P, 8),
            magnus.postlie_magnus(L, x, P, 8),
            magnus.postlie_magnus(L, x, P, 8, method="ode"),
        ):
            assert list(chi.coeffs) == want


def test_prelie_magnus_rejects_nonabelian(sl2, borel_product):
    with pytest.raises(NotAbelian):
        magnus.prelie_magnus(sl2, (1, 0, 1), borel_product, 3)


def test_prelie_magnus_rejects_non_prelie_product():
    flat = liealg.new_lie_algebra(3, ["a", "b", "c"], [])
    # a o b = c and b o a = a, associator asymmetric
    bad = products.BilinearProduct(flat, [(0, 1, 2, 1), (1, 0, 0, 1)])
    if not products.check_prelie(bad)["ok"]:
        with pytest.raises(NotPreLie):
            magnus.prelie_magnus(flat, (1, 1, 1), bad, 3)


def test_conjugated_theta_zero_products_are_prelie():
    for s in (F(1), F(-2), F(1, 2)):
        sl2, prod = _theta_zero_product(s)
        assert products.check_prelie(prod)["ok"]


# ---------------------------------------------------------------------------
# float mode
# ---------------------------------------------------------------------------


def test_float_mode_ode_path_matches_exact():
    ctx_e = rmatrix.builtin_rmatrix("sl2-borel")
    prod_e = products.from_rmatrix(ctx_e, "-")
    chi_e = magnus.postlie_magnus(ctx_e.algebra, (F(3, 10), 0, F(3, 10)), prod_e, 6)

    ctx_f = rmatrix.builtin_rmatrix("sl2-borel", mode=scalars.FLOAT)
    prod_f = products.from_rmatrix(ctx_f, "-")
    chi_f = magnus.postlie_magnus(
        ctx_f.algebra, (0.3, 0.0, 0.3), prod_f, 6, method="ode"
    )
    for m in range(1, 7):
        exact = [float(v) for v in chi_e.coeff(m)]
        got = list(chi_f.coeff(m))
        assert max(abs(a - b) for a, b in zip(exact, got)) < 1e-15


def test_star_method_requires_exact_mode():
    ctx_f = rmatrix.builtin_rmatrix("sl2-borel", mode=scalars.FLOAT)
    prod_f = products.from_rmatrix(ctx_f, "-")
    with pytest.raises(Exception):
        magnus.postlie_magnus(ctx_f.algebra, (0.3, 0.0, 0.3), prod_f, 4, method="star")
