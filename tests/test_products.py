import json
import math
from fractions import Fraction

import pytest

from postlie import liealg, products, rmatrix
from postlie.errors import DimensionMismatch, InvalidInput, NonFiniteNumber
from conftest import random_vector, seeded
from oracles.tabulation import product_from_function

F = Fraction


def _zero_product(L):
    return products.BilinearProduct(L, [])


def test_from_rmatrix_matches_pointwise(borel_ctx):
    L = borel_ctx.algebra
    rng = seeded(31)
    for sign, Rs in zip("+-", borel_ctx.r_plus_minus()):
        prod = products.from_rmatrix(borel_ctx, sign)
        for _ in range(10):
            x, y = random_vector(L, rng), random_vector(L, rng)
            assert prod.apply(x, y) == liealg.bracket(L, Rs.apply(x), y)


def test_minus_product_is_right_post_lie(borel_ctx, split2_ctx):
    for ctx in (borel_ctx, split2_ctx):
        prod = products.from_rmatrix(ctx, "-")
        report = products.check_postlie(prod, products.RIGHT)
        assert report["ok"], report


def test_plus_product_is_left_post_lie(borel_ctx, split2_ctx):
    for ctx in (borel_ctx, split2_ctx):
        prod = products.from_rmatrix(ctx, "+")
        report = products.check_postlie(prod, products.LEFT)
        assert report["ok"], report


def test_handedness_is_not_interchangeable(split2_ctx):
    # the same tensor fails the opposite axiom set (the bracket axiom flips)
    prod = products.from_rmatrix(split2_ctx, "-")
    report = products.check_postlie(prod, products.LEFT)
    assert not report["ok"]
    assert not report["bracket_axiom"]["ok"]
    assert report["derivation_axiom"]["ok"]  # shared between both sets


def test_zero_product_is_left_post_lie(sl2):
    report = products.check_postlie(_zero_product(sl2), products.LEFT)
    assert report["ok"]


def test_check_postlie_rejects_bad_handedness(sl2):
    with pytest.raises(InvalidInput):
        products.check_postlie(_zero_product(sl2), "sideways")


def test_left_only_maps_reject_a_right_product(borel_ctx):
    # [R- x, y] on sl2-borel is right post-Lie, not left: the map defined
    # for left products checks the left axioms and refuses it
    prod = products.from_rmatrix(borel_ctx, "-")
    assert products.check_postlie(prod, products.RIGHT)["ok"]
    with pytest.raises(InvalidInput, match="left post-Lie"):
        products.to_right(prod)


def test_derived_bracket_of_zero_product_is_negated_bracket(sl2):
    # x o y - y o x - [x,y] of the left zero product is the star commutator
    # of its right-conversion
    derived = products.derived_algebra(products.to_right(_zero_product(sl2)))
    rng = seeded(37)
    for _ in range(10):
        x, y = random_vector(sl2, rng), random_vector(sl2, rng)
        assert liealg.bracket(derived, x, y) == tuple(
            -c for c in liealg.bracket(sl2, x, y)
        )


def test_to_right_preserves_derived_data(sl2):
    pr = products.to_right(_zero_product(sl2))
    # right conversion of the zero product is x o' y = -[x,y]
    x, y = (1, 0, 2), (0, 1, -1)
    assert pr.apply(x, y) == tuple(-c for c in liealg.bracket(sl2, x, y))
    report = products.check_postlie(pr, products.RIGHT)
    assert report["ok"]


def test_lie_admissible_antisymmetrization_recovers_r_bracket(borel_ctx):
    # for x |> y = [R_minus x, y] the companion's antisymmetrization
    # x|>y - y|>x + [x,y] equals the halved R-bracket on the nose
    L = borel_ctx.algebra
    prod = products.from_rmatrix(borel_ctx, "-")
    comp = products.lie_admissible(prod)
    rng = seeded(41)
    for _ in range(10):
        x, y = random_vector(L, rng), random_vector(L, rng)
        anti = liealg.vsub(comp.apply(x, y), comp.apply(y, x))
        assert anti == rmatrix.r_bracket(L, borel_ctx.R, x, y)


def test_lie_admissible_quarter_associator_identity(split2_ctx):
    # oracle: expanding [R~x,R~y] - R~([R~x,y]+[x,R~y]) with R~ = R/2 against
    # the theta=1 equation leaves +[x,y]/4, so the associator asymmetry of
    # the companion is +[[x,y],z]/4 (pinned numerically on all basis triples)
    L = split2_ctx.algebra
    prod = products.from_rmatrix(split2_ctx, "-")
    comp = products.lie_admissible(prod)
    quarter = F(1, 4)
    for i in range(L.dim):
        for j in range(L.dim):
            for k in range(L.dim):
                x, y, z = L.basis(i), L.basis(j), L.basis(k)
                a1 = liealg.vsub(
                    comp.apply(comp.apply(x, y), z), comp.apply(x, comp.apply(y, z))
                )
                a2 = liealg.vsub(
                    comp.apply(comp.apply(y, x), z), comp.apply(y, comp.apply(x, z))
                )
                want = liealg.vscale(
                    quarter,
                    liealg.bracket(L, liealg.bracket(L, x, y), z),
                )
                assert liealg.vsub(a1, a2) == want


def test_check_prelie_on_theta_zero_product(sl2):
    # R = ad_e solves the theta=0 equation; x o y = [Rx, y] is then pre-Lie
    R = liealg.ad(sl2, sl2.basis(0))
    prod = product_from_function(
        sl2, lambda x, y: liealg.bracket(sl2, R.apply(x), y)
    )
    assert products.check_prelie(prod)["ok"]


def test_check_prelie_fails_for_theta_one_product(borel_ctx):
    prod = products.from_rmatrix(borel_ctx, "-")
    report = products.check_prelie(prod)
    assert not report["ok"]
    assert report["worst_triple"] is not None


def test_product_json_round_trip(borel_ctx):
    prod = products.from_rmatrix(borel_ctx, "-")
    data = products.product_to_json(prod)
    back = products.product_from_json(borel_ctx.algebra, data)
    assert back.T_rows == prod.T_rows


def test_product_json_dimension_check(sl2):
    data = {"dim": 4, "product": []}
    with pytest.raises(DimensionMismatch):
        products.product_from_json(sl2, data)


def test_out_of_range_entry_rejected(sl2):
    with pytest.raises(DimensionMismatch, match=r"\(0, 3, 1, 1\)"):
        products.BilinearProduct(sl2, [(0, 1, 2, 1), (0, 3, 1, 1)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_float_entry_rejected(bad):
    """A float-mode product refuses a NaN or infinite entry when it is built,
    from entries and from a product dict alike."""
    L = liealg.builtin("sl(2)", mode="float")
    with pytest.raises(NonFiniteNumber, match=r"\(0, 0, 0, -?(nan|inf)\)"):
        products.BilinearProduct(L, [(0, 1, 2, 1.0), (0, 0, 0, bad)])
    with pytest.raises(NonFiniteNumber):
        products.product_from_json(L, {"dim": 3, "product": [[0, 1, 2, 1.0], [0, 0, 0, bad]]})


def test_product_file_sums_a_repeated_entry(borel_ctx, tmp_path):
    """A product file, like an algebra file, sums the values of an index
    triple it lists twice."""
    L = borel_ctx.algebra
    entries = products.product_to_json(products.from_rmatrix(borel_ctx, "-"))["product"]
    i, j, k, v = entries[0]
    files = {
        "repeated": entries + [[i, j, k, "1/3"], [0, 0, 2, "1/2"], [0, 0, 2, "-1/4"]],
        "summed": [[i, j, k, str(F(v) + F(1, 3))]] + entries[1:] + [[0, 0, 2, "1/4"]],
    }
    loaded = {}
    for name, product in files.items():
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps({"dim": L.dim, "product": product}))
        loaded[name] = products.load_product(L, str(path))
    assert loaded["repeated"].T_rows == loaded["summed"].T_rows
    assert loaded["repeated"].apply(L.basis(0), L.basis(0))[2] == F(1, 4)
