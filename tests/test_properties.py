"""Property tests over random integer directions on exact splittings: the
star and ode chi agree exactly, and exp(x) = exp*(chi) holds degree by
degree.  Hypothesis runs derandomized, so every run draws the same
examples."""

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from postlie import liealg, magnus, products, rmatrix

NAMES = ("sl2-borel", "split2", "upper_lower_split(3)")
ORDER = 4


@lru_cache(maxsize=None)
def _algebra_and_product(name):
    if name.startswith("upper_lower_split"):
        L = liealg.builtin(name)
        ctx = rmatrix.splitting_r(L, *L.splitting)
    else:
        ctx = rmatrix.builtin_rmatrix(name)
    return ctx.algebra, products.from_rmatrix(ctx, "-")


@settings(derandomize=True, deadline=None, max_examples=15, database=None)
@given(
    name=st.sampled_from(NAMES),
    coords=st.lists(st.integers(-3, 3), min_size=9, max_size=9),
)
def test_star_and_ode_chi_agree_and_exp_factorizes(name, coords):
    L, P = _algebra_and_product(name)
    x = tuple(coords[: L.dim])
    star = magnus.postlie_magnus(L, x, P, ORDER)
    assert star == magnus.postlie_magnus(L, x, P, ORDER, method="ode")
    report = magnus.verify_grouplike_identity(L, x, P, ORDER)
    assert report["ok"] and report["chi"] == star
