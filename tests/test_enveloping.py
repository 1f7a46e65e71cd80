import gc
import weakref
from fractions import Fraction

import pytest

from postlie import enveloping as env
from postlie import liealg, magnus, products, rmatrix, scalars
from postlie.errors import (
    AlgebraMismatch,
    ModeMismatch,
    NotInAugmentationIdeal,
    NotUnitNormalized,
    OrderMismatch,
)
from conftest import random_word, random_vector, seeded
from oracles.closed_forms import F_map_explicit, phi_partition

F = Fraction
ORDER = 4


def _random_element(L, order, rng, max_terms=3, max_len=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        w = random_word(L, rng, max_len)
        terms[w] = terms.get(w, 0) + F(rng.randint(-3, 3))
    return env.env_element(L, order, terms)


# ---------------------------------------------------------------------------
# PBW normalization and the associative product
# ---------------------------------------------------------------------------


def test_pbw_normal_form_frozen_example(sl2):
    # oracle: rewriting f.h.e by rightmost-descent elimination with
    # [h,e]=2e, [e,f]=h, [h,f]=-2f gives e.h.f + 4 e.f - 2 h - h.h
    # (tests/oracles/oracle_values.py, independent rewriter)
    got = env.pbw_normalize(sl2, (2, 1, 0), ORDER)
    assert got.terms == {
        (0, 1, 2): F(1),
        (0, 2): F(4),
        (1,): F(-2),
        (1, 1): F(-1),
    }


def test_sorted_words_are_fixed_points(sl2):
    for w in [(), (0,), (0, 1), (0, 1, 2), (1, 1, 2)]:
        got = env.pbw_normalize(sl2, w, ORDER)
        assert got.terms == {w: F(1)}


def test_single_swap_rewrite(sl2):
    # f.e = e.f + [f,e] = e.f - h
    got = env.pbw_normalize(sl2, (2, 0), ORDER)
    assert got.terms == {(0, 2): F(1), (1,): F(-1)}


def test_letter_commutator_is_bracket(sl2):
    rng = seeded(51)
    for _ in range(10):
        x, y = random_vector(sl2, rng), random_vector(sl2, rng)
        X = env.from_g_vector(sl2, ORDER, x)
        Y = env.from_g_vector(sl2, ORDER, y)
        comm = env.env_mul(X, Y) - env.env_mul(Y, X)
        want = env.from_g_vector(sl2, ORDER, liealg.bracket(sl2, x, y))
        assert comm == want


def test_env_mul_associative(sl2):
    """Associativity within the truncation grade.

    The grade cut is by normalized word length, which is not an algebra
    quotient: words just above the grade may normalize back down when
    multiplied further, so association orders can disagree once
    intermediate products overflow the grade.  Keep the raw lengths in
    range and the product is honestly associative.
    """
    rng = seeded(53)
    for _ in range(8):
        A = _random_element(sl2, 9, rng)
        B = _random_element(sl2, 9, rng)
        C = _random_element(sl2, 9, rng)
        assert env.env_mul(env.env_mul(A, B), C) == env.env_mul(A, env.env_mul(B, C))


def test_env_mul_associative_basis_words_at_grade_five(sl2):
    N = 5
    E = env.letter(sl2, N, 0)
    Fl = env.letter(sl2, N, 2)
    H = env.letter(sl2, N, 1)
    lhs = env.env_mul(env.env_mul(E, Fl), H)
    rhs = env.env_mul(E, env.env_mul(Fl, H))
    assert lhs == rhs
    assert lhs.coefficient((0, 1, 2)) == 1  # e.h.f with the f pushed right


def test_unit_is_neutral(sl2):
    rng = seeded(59)
    A = _random_element(sl2, ORDER, rng)
    one = env.unit(sl2, ORDER)
    assert env.env_mul(one, A) == A
    assert env.env_mul(A, one) == A


def test_exact_mode_required(sl2):
    Lf = liealg.builtin("sl(2)", mode=scalars.FLOAT)
    with pytest.raises(ModeMismatch):
        env.unit(Lf, ORDER)


def test_mismatched_operands_rejected(sl2, so3):
    A = env.unit(sl2, ORDER)
    with pytest.raises(OrderMismatch):
        env.env_mul(A, env.unit(sl2, ORDER + 1))
    with pytest.raises(AlgebraMismatch):
        env.env_mul(A, env.unit(so3, ORDER))


# ---------------------------------------------------------------------------
# Hopf structure of the plain product
# ---------------------------------------------------------------------------


def _coassoc_defect(A):
    """Compare (Delta x id)Delta with (id x Delta)Delta as triple dicts."""
    lhs, rhs = {}, {}
    for (a, b), c in env.coproduct(A).terms.items():
        Aa = env.EnvElement(A.algebra, A.order, {a: 1})
        for (a1, a2), c2 in env.coproduct(Aa).terms.items():
            if len(a1) + len(a2) + len(b) <= A.order:
                key = (a1, a2, b)
                lhs[key] = lhs.get(key, 0) + c * c2
        Ab = env.EnvElement(A.algebra, A.order, {b: 1})
        for (b1, b2), c2 in env.coproduct(Ab).terms.items():
            if len(a) + len(b1) + len(b2) <= A.order:
                key = (a, b1, b2)
                rhs[key] = rhs.get(key, 0) + c * c2
    keys = set(lhs) | set(rhs)
    return {k: lhs.get(k, 0) - rhs.get(k, 0) for k in keys if lhs.get(k, 0) != rhs.get(k, 0)}


def test_coproduct_coassociative(sl2):
    rng = seeded(61)
    for _ in range(8):
        A = _random_element(sl2, ORDER, rng)
        assert _coassoc_defect(A) == {}


def test_counit_axiom(sl2):
    rng = seeded(67)
    for _ in range(8):
        A = _random_element(sl2, ORDER, rng)
        left = env.EnvElement(sl2, ORDER, {})
        right = env.EnvElement(sl2, ORDER, {})
        for (a, b), c in env.coproduct(A).terms.items():
            if not a:  # counit of the left leg
                right = right + env.EnvElement(sl2, ORDER, {b: c})
            if not b:
                left = left + env.EnvElement(sl2, ORDER, {a: c})
        assert left == A and right == A


def test_coproduct_is_algebra_morphism(sl2):
    rng = seeded(71)
    for _ in range(6):
        A = _random_element(sl2, ORDER, rng, max_len=2)
        B = _random_element(sl2, ORDER, rng, max_len=2)
        lhs = env.coproduct(env.env_mul(A, B))
        rhs = env.tensor_mul(env.coproduct(A), env.coproduct(B))
        assert (lhs - rhs).is_zero()


def test_coproduct_of_two_letter_word(sl2):
    A = env.pbw_normalize(sl2, (0, 2), ORDER)  # e.f, already sorted
    got = env.coproduct(A).terms
    assert got == {
        ((0, 2), ()): F(1),
        ((), (0, 2)): F(1),
        ((0,), (2,)): F(1),
        ((2,), (0,)): F(1),
    }


def test_antipode_of_two_letter_word(sl2):
    # S(e.f) = f.e = e.f - h
    A = env.pbw_normalize(sl2, (0, 2), ORDER)
    assert env.antipode(A).terms == {(0, 2): F(1), (1,): F(-1)}
    assert env.antipode(env.unit(sl2, ORDER)) == env.unit(sl2, ORDER)


def _antipode_convolution(A):
    """m(S x id)Delta(A), which must equal counit(A) * 1."""
    total = env.EnvElement(A.algebra, A.order, {})
    for (a, b), c in env.coproduct(A).terms.items():
        Sa = env.antipode(env.EnvElement(A.algebra, A.order, {a: 1}))
        piece = env.env_mul(Sa, env.EnvElement(A.algebra, A.order, {b: 1}))
        total = total + piece.scale(c)
    return total


def test_antipode_axiom(sl2):
    rng = seeded(73)
    for _ in range(8):
        A = _random_element(sl2, ORDER, rng)
        want = env.unit(sl2, ORDER).scale(A.counit())
        assert _antipode_convolution(A) == want


def test_antipode_on_letters_and_primitivity(sl2):
    for i in range(3):
        X = env.letter(sl2, ORDER, i)
        assert env.antipode(X) == X.scale(-1)
        assert env.is_primitive(X)
    assert not env.is_primitive(env.env_mul(env.letter(sl2, ORDER, 0),
                                            env.letter(sl2, ORDER, 0)))


def test_exponential_of_letter_is_grouplike(sl2):
    # single letters have no normalization feedback, so the truncated
    # series is the exact degree-<=N part (generic vectors need the
    # graded machinery: see verify_grouplike_identity)
    for i in range(3):
        G = env.exp(env.letter(sl2, 5, i))
        assert env.is_grouplike(G)
    assert not env.is_grouplike(env.letter(sl2, 5, 0))


def test_exp_log_round_trip_on_letters(sl2):
    X = env.letter(sl2, ORDER, 2).scale(F(3))
    assert env.log(env.exp(X)) == X
    G = env.exp(X)
    assert env.exp(env.log(G)) == G
    assert env.exp(env.EnvElement(sl2, ORDER, {})) == env.unit(sl2, ORDER)
    assert env.log(env.unit(sl2, ORDER)).is_zero()


def test_exp_requires_augmentation_ideal(sl2):
    with pytest.raises(NotInAugmentationIdeal):
        env.exp(env.unit(sl2, ORDER))
    with pytest.raises(NotUnitNormalized):
        env.log(env.letter(sl2, ORDER, 0))


# ---------------------------------------------------------------------------
# the star product and its Hopf structure
# ---------------------------------------------------------------------------


def test_star_on_letters_adds_triangle(borel_ctx, borel_product):
    L = borel_ctx.algebra
    rng = seeded(79)
    for _ in range(8):
        x, y = random_vector(L, rng), random_vector(L, rng)
        X = env.from_g_vector(L, ORDER, x)
        Y = env.from_g_vector(L, ORDER, y)
        got = env.star_mul(X, Y, borel_product)
        want = env.env_mul(X, Y) + env.from_g_vector(
            L, ORDER, borel_product.apply(x, y)
        )
        assert got == want


def test_triangle_lift_base_cases(borel_ctx, borel_product):
    L = borel_ctx.algebra
    rng = seeded(149)
    A = _random_element(L, ORDER, rng)
    one = env.unit(L, ORDER)
    assert env.triangle_lift(one, A, borel_product) == A
    # letters reduce to the g-level tensor
    for i in range(L.dim):
        for j in range(L.dim):
            got = env.triangle_lift(
                env.letter(L, ORDER, i), env.letter(L, ORDER, j), borel_product
            )
            want = env.from_g_vector(
                L, ORDER, borel_product.apply(L.basis(i), L.basis(j))
            )
            assert got == want


def test_triangle_lift_two_letter_recursion(borel_ctx, borel_product):
    # x.y |> z = x |> (y |> z) - (x |> y) |> z on basis words
    L = borel_ctx.algebra
    for i in range(L.dim):
        for j in range(L.dim):
            for k in range(L.dim):
                xy = env.env_mul(env.letter(L, ORDER, i), env.letter(L, ORDER, j))
                lhs = env.triangle_lift(xy, env.letter(L, ORDER, k), borel_product)
                y_z = borel_product.apply(L.basis(j), L.basis(k))
                x_yz = borel_product.apply(L.basis(i), y_z)
                xy_g = borel_product.apply(L.basis(i), L.basis(j))
                xyg_z = borel_product.apply(xy_g, L.basis(k))
                want = env.from_g_vector(L, ORDER, liealg.vsub(x_yz, xyg_z))
                assert lhs == want


def test_star_mul_associative_with_unit(borel_ctx, borel_product):
    L = borel_ctx.algebra
    rng = seeded(83)
    one = env.unit(L, ORDER)
    for _ in range(5):
        A = _random_element(L, ORDER, rng)
        B = _random_element(L, ORDER, rng)
        C = _random_element(L, ORDER, rng)
        assert env.star_mul(one, A, borel_product) == A
        assert env.star_mul(A, one, borel_product) == A
        lhs = env.star_mul(env.star_mul(A, B, borel_product), C, borel_product)
        rhs = env.star_mul(A, env.star_mul(B, C, borel_product), borel_product)
        assert lhs == rhs


def test_star_coproduct_multiplicative(borel_ctx, borel_product):
    # the unshuffle coproduct is a morphism for the star product as well
    L = borel_ctx.algebra
    rng = seeded(89)
    for _ in range(5):
        A = _random_element(L, ORDER, rng, max_len=2)
        B = _random_element(L, ORDER, rng, max_len=2)
        lhs = env.coproduct(env.star_mul(A, B, borel_product))
        rhs = env.tensor_star_mul(
            env.coproduct(A), env.coproduct(B), borel_product
        )
        assert (lhs - rhs).is_zero()


def _star_antipode_convolution(A, product):
    total = env.EnvElement(A.algebra, A.order, {})
    for (a, b), c in env.coproduct(A).terms.items():
        Sa = env.star_antipode(env.EnvElement(A.algebra, A.order, {a: 1}), product)
        piece = env.star_mul(
            Sa, env.EnvElement(A.algebra, A.order, {b: 1}), product
        )
        total = total + piece.scale(c)
    return total


def test_star_antipode_axiom(borel_ctx, borel_product):
    L = borel_ctx.algebra
    rng = seeded(97)
    for _ in range(6):
        A = _random_element(L, ORDER, rng)
        want = env.unit(L, ORDER).scale(A.counit())
        assert _star_antipode_convolution(A, borel_product) == want


def test_hopf_identity_failures(borel_ctx, borel_product):
    # none fails for the post-Lie product of the r-matrix; the product
    # e o e = e alone is not post-Lie, and the only identity it breaks is the
    # star antipode, exactly where the convolution above says so
    L = borel_ctx.algebra
    bad = products.product_from_json(L, {"dim": 3, "product": [[0, 0, 0, 1]]})
    rng = seeded(44)
    flagged = 0
    for _ in range(8):
        A = _random_element(L, ORDER, rng, max_len=4)
        B = _random_element(L, ORDER, rng, max_len=4)
        assert env.hopf_identity_failures(A, B, borel_product) == []
        want = env.unit(L, ORDER).scale(A.counit())
        fails = _star_antipode_convolution(A, bad) != want
        assert env.hopf_identity_failures(A, B, bad) == ["star_antipode"] * fails
        flagged += fails
    assert flagged


def test_exp_star_log_star_round_trip(borel_ctx, borel_product):
    L = borel_ctx.algebra
    X = env.from_g_vector(L, ORDER, (1, 0, 1))
    G = env.exp_star(X, borel_product)
    assert env.log_star(G, borel_product) == X
    assert env.is_grouplike(G)  # star exponentials are group-like too


# ---------------------------------------------------------------------------
# the word-to-star morphism, its inverse, and the linearization map
# ---------------------------------------------------------------------------


def test_phi_on_single_letters_is_identity(borel_ctx, borel_product):
    L = borel_ctx.algebra
    for i in range(L.dim):
        assert env.phi(L, (i,), borel_product, ORDER) == env.letter(L, ORDER, i)


def test_phi_matches_partition_formula(borel_ctx, borel_product):
    L = borel_ctx.algebra
    rng = seeded(103)
    for _ in range(10):
        w = random_word(L, rng, max_len=4)
        lhs = env.phi(L, w, borel_product, ORDER)
        rhs = phi_partition(L, w, borel_product, ORDER)
        assert lhs == rhs


def test_phi_term_counts_are_bell_numbers():
    assert [env.phi_term_count(n) for n in range(1, 7)] == [1, 2, 5, 15, 52, 203]


def test_phi_term_count_equals_the_partition_count():
    # the Bell triangle against enumeration, B_0 = 1 included
    for n in range(9):
        assert env.phi_term_count(n) == sum(1 for _ in env._set_partitions(n))


def test_phi_is_morphism_to_star(borel_ctx, borel_product):
    L = borel_ctx.algebra
    rng = seeded(107)
    for _ in range(10):
        w1 = random_word(L, rng, max_len=2)
        w2 = random_word(L, rng, max_len=2)
        lhs = env.phi(L, w1 + w2, borel_product, ORDER)
        rhs = env.star_mul(
            env.phi(L, w1, borel_product, ORDER),
            env.phi(L, w2, borel_product, ORDER),
            borel_product,
        )
        assert lhs == rhs


def test_phi_inverse_round_trip(borel_ctx, borel_product):
    L = borel_ctx.algebra
    bar = env.derived_bracket_algebra(L, borel_product)
    rng = seeded(109)
    for _ in range(8):
        w = random_word(L, rng, max_len=3)
        B = env.phi_inverse(L, w, borel_product, ORDER, bar=bar)
        total = env.EnvElement(L, ORDER, {})
        for word, c in B.terms.items():
            total = total + env.phi(L, word, borel_product, ORDER).scale(c)
        assert total == env.pbw_normalize(L, w, ORDER)


def test_phi_inverse_two_letter_closed_form(borel_ctx, borel_product):
    # the inverse on a two-letter word is the word minus the product term
    L = borel_ctx.algebra
    bar = env.derived_bracket_algebra(L, borel_product)
    for i in range(L.dim):
        for j in range(L.dim):
            got = env.phi_inverse(L, (i, j), borel_product, ORDER, bar=bar)
            want = env.env_mul(
                env.letter(bar, ORDER, i), env.letter(bar, ORDER, j)
            ) - env.from_g_vector(
                bar, ORDER, borel_product.apply(L.basis(i), L.basis(j))
            )
            assert got == want


def test_star_antipode_degenerates_without_product(sl2):
    zero = products.BilinearProduct(
        sl2, [[[0] * 3 for _ in range(3)] for _ in range(3)]
    )
    rng = seeded(137)
    for _ in range(6):
        A = _random_element(sl2, ORDER, rng)
        assert env.star_antipode(A, zero) == env.antipode(A)
        B = _random_element(sl2, ORDER, rng)
        assert env.star_mul(A, B, zero) == env.env_mul(A, B)


def test_derived_bracket_algebra_is_r_bracket(borel_ctx, borel_product):
    L = borel_ctx.algebra
    bar = env.derived_bracket_algebra(L, borel_product)
    rng = seeded(113)
    for _ in range(10):
        x, y = random_vector(L, rng), random_vector(L, rng)
        assert liealg.bracket(bar, x, y) == rmatrix.r_bracket(
            L, borel_ctx.R, x, y
        )


def test_F_map_equals_phi_and_explicit_form(borel_ctx, borel_product):
    L = borel_ctx.algebra
    rng = seeded(127)
    for _ in range(8):
        w = tuple(sorted(random_word(L, rng, max_len=3)))
        A = env.EnvElement(L, ORDER, {w: F(1)})
        via_hopf = env.F_map(A, borel_ctx)
        explicit = F_map_explicit(A, borel_ctx)
        assert via_hopf == explicit
        assert via_hopf == env.phi(L, w, borel_product, ORDER)


def test_F_map_closed_forms_on_short_words(borel_ctx):
    # single letters are fixed (R+ - R- = id); two-letter words pick up
    # the correction [R-(x1), x2]
    L = borel_ctx.algebra
    Rp, Rm = borel_ctx.r_plus_minus()
    for i in range(L.dim):
        A = env.EnvElement(L, ORDER, {(i,): F(1)})
        assert env.F_map(A, borel_ctx) == env.letter(L, ORDER, i)
    for i in range(L.dim):
        for j in range(i, L.dim):
            A = env.EnvElement(L, ORDER, {(i, j): F(1)})
            word = env.env_mul(env.letter(L, ORDER, i), env.letter(L, ORDER, j))
            corr = env.from_g_vector(
                L,
                ORDER,
                liealg.bracket(L, Rm.apply(L.basis(i)), L.basis(j)),
            )
            assert env.F_map(A, borel_ctx) == word + corr


def test_sts_trivial_case_unit(borel_ctx, borel_product):
    L = borel_ctx.algebra
    rng = seeded(139)
    B = _random_element(L, ORDER, rng)
    report = env.sts_product_check(env.unit(L, ORDER), B, borel_ctx, borel_product)
    assert report["ok"] and report["lhs"] == B


def test_sts_product_identity(borel_ctx, borel_product):
    L = borel_ctx.algebra
    rng = seeded(131)
    for _ in range(6):
        w = tuple(sorted(random_word(L, rng, max_len=2)))
        a = env.EnvElement(L, ORDER, {w: F(1)})
        B = _random_element(L, ORDER, rng, max_terms=2, max_len=2)
        report = env.sts_product_check(a, B, borel_ctx, borel_product)
        assert report["ok"], env.render(report["difference"])


def test_render_is_deterministic(sl2):
    A = env.env_element(sl2, ORDER, {(1, 0): F(1)})
    # h.e normalizes to e.h + [h,e] = e.h + 2e; printed length-lex
    assert env.render(A) == "2*e + e·h"
    assert env.render(env.unit(sl2, ORDER)) == "1"
    assert env.render(env.EnvElement(sl2, ORDER, {})) == "0"


def test_lifted_contexts_are_freed_with_their_product():
    contexts = []
    for _ in range(3):
        ctx = rmatrix.builtin_rmatrix("split2")
        prod = products.from_rmatrix(ctx, "-")
        magnus.postlie_magnus(ctx.algebra, (1, 0, 1, 1), prod, 4)
        contexts.extend(weakref.ref(c) for c in env._lift_contexts[prod].values())
        del ctx, prod
    gc.collect()
    assert len(contexts) == 3
    assert [c for c in contexts if c() is not None] == []
