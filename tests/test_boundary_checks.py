"""The public entry points check and coerce the vectors they are given: a
vector of the wrong length raises DimensionMismatch, and in exact mode a
float or a bool entry raises ModeMismatch.  The loops behind them contract
vectors that were checked once, so these are the checks."""

import pytest

from postlie import enveloping as ev
from postlie import flows, liealg, magnus, products, rmatrix, scalars
from postlie.errors import (
    AlgebraMismatch,
    DimensionMismatch,
    InvalidInput,
    ModeMismatch,
    OrderMismatch,
)

GOOD = (1, 0, 1)
BAD = {
    "length": ((1, 0, 1, 0), DimensionMismatch),
    "float": ((1, 0.5, 1), ModeMismatch),
    "bool": ((1, True, 1), ModeMismatch),
}


def _entry_points():
    """name -> (function of the vector arguments, number of them), on the
    exact sl2-borel context and its right post-Lie product."""
    ctx = rmatrix.builtin_rmatrix("sl2-borel")
    L = ctx.algebra
    P = products.from_rmatrix(ctx, "-")
    return {
        "bracket": (lambda x, y: liealg.bracket(L, x, y), 2),
        "apply": (P.apply, 2),
        "mcybe_defect": (lambda x, y: rmatrix.mcybe_defect(L, ctx.R, 1, x, y), 2),
        # the left post-Lie product [R_plus x, y]
        "post_product": (products.from_rmatrix(ctx, "+").apply, 2),
        "r_bracket": (lambda x, y: rmatrix.r_bracket(L, ctx.R, x, y), 2),
        "magnus-star": (lambda x: magnus.postlie_magnus(L, x, P, 3), 1),
        "magnus-ode": (lambda x: magnus.postlie_magnus(L, x, P, 3, method="ode"), 1),
    }


CASES = [
    (name, position, kind)
    for name, (_, arity) in _entry_points().items()
    for position in range(arity)
    for kind in BAD
]


@pytest.mark.parametrize(
    "name,position,kind", CASES, ids=["%s-%d-%s" % case for case in CASES]
)
def test_entry_point_rejects_a_bad_vector(name, position, kind):
    f, arity = _entry_points()[name]
    bad, error = BAD[kind]
    args = [GOOD] * arity
    f(*args)
    args[position] = bad
    with pytest.raises(error):
        f(*args)


@pytest.mark.parametrize("method", ["star", "ode"])
def test_postlie_magnus_rejects_a_product_over_another_algebra(method):
    # the recursions contract the product's rows directly, so the product
    # must match the algebra in dimension and mode
    L = rmatrix.builtin_rmatrix("sl2-borel").algebra
    for other, error in (
        (rmatrix.builtin_rmatrix("split2"), DimensionMismatch),
        (rmatrix.builtin_rmatrix("sl2-borel", mode="float"), ModeMismatch),
    ):
        with pytest.raises(error):
            magnus.postlie_magnus(L, GOOD, products.from_rmatrix(other, "-"), 3, method=method)


def test_prelie_magnus_rejects_a_product_over_another_algebra():
    # the pre-Lie chi is the ode chi, and gets its typed errors
    flat = liealg.new_lie_algebra(2, ["a", "b"], [])
    for other, error, message in (
        (liealg.new_lie_algebra(2, ["a", "b"], [], mode=scalars.FLOAT), ModeMismatch,
         "product in float mode, algebra in exact mode"),
        (liealg.new_lie_algebra(3, ["a", "b", "c"], []), DimensionMismatch,
         "product tensor and bracket algebra disagree"),
    ):
        product = products.BilinearProduct(other, [(0, 0, 0, 2), (0, 1, 1, 1)])
        with pytest.raises(error, match=message):
            magnus.prelie_magnus(flat, (1, 1), product, 3)


def _order_entry_points():
    """name -> function of the truncation order, for the chi, BCH, pre-Lie
    and flow entry points that share one order check."""
    ctx = rmatrix.builtin_rmatrix("sl2-borel")
    L, P = ctx.algebra, products.from_rmatrix(ctx, "-")
    flat = liealg.new_lie_algebra(2, ["a", "b"], [])
    flat_product = products.BilinearProduct(flat, [])
    float_ctx = rmatrix.builtin_rmatrix("split2", mode=scalars.FLOAT)
    return {
        "magnus-star": lambda n: magnus.postlie_magnus(L, GOOD, P, n),
        "magnus-ode": lambda n: magnus.postlie_magnus(L, GOOD, P, n, method="ode"),
        "bch": lambda n: magnus.bch(L, GOOD, (0, 1, 0), n),
        "prelie": lambda n: magnus.prelie_magnus(flat, (1, 1), flat_product, n),
        "flow-problem": lambda n: flows.FlowProblem(float_ctx, [0, 1, 0, 1], (0.5,), n),
    }


ORDER_CASES = [
    (name, order)
    for name in _order_entry_points()
    for order in (2.5, 1.0, True, False, "3", None, 0, -2)
]


@pytest.mark.parametrize(
    "name,order", ORDER_CASES, ids=["%s-%r" % case for case in ORDER_CASES]
)
def test_an_order_must_be_an_int_of_at_least_one(name, order):
    """An order is an int, not a bool, of at least 1; anything else is
    InvalidInput naming the value, not a TypeError, True read as order 1,
    a truncation-range message or a float cut by int()."""
    f = _order_entry_points()[name]
    f(2)
    with pytest.raises(InvalidInput) as exc:
        f(order)
    assert "order must be" in str(exc.value) and "(got %r)" % (order,) in str(exc.value)


def _grade_entry_points():
    """name -> function of the truncation grade, for the enveloping-algebra
    constructors and the word-to-star maps that share one grade check."""
    ctx = rmatrix.builtin_rmatrix("sl2-borel")
    L, P = ctx.algebra, products.from_rmatrix(ctx, "-")
    return {
        "unit": lambda n: ev.unit(L, n),
        "env-element": lambda n: ev.env_element(L, n, {(0, 1, 2): 1}),
        "letter": lambda n: ev.letter(L, n, 1),
        "from-g-vector": lambda n: ev.from_g_vector(L, n, GOOD),
        "pbw-normalize": lambda n: ev.pbw_normalize(L, (2, 0), n),
        "word-of-vectors": lambda n: ev.word_of_vectors(L, n, [GOOD, GOOD]),
        "phi": lambda n: ev.phi(L, (2, 0), P, n),
        "phi-inverse": lambda n: ev.phi_inverse(L, (2, 0), P, n),
    }


GRADE_CASES = [
    (name, order)
    for name in _grade_entry_points()
    for order in (2.5, 1.0, True, False, "3", None, -1, -2)
]


@pytest.mark.parametrize(
    "name,order", GRADE_CASES, ids=["%s-%r" % case for case in GRADE_CASES]
)
def test_a_grade_must_be_an_int_of_at_least_zero(name, order):
    """A truncation grade is an int, not a bool, of at least 0 (grade 0
    keeps the scalars); anything else is InvalidInput naming the value, not
    an element at a negative or bool grade or a zero element at grade 2.5."""
    f = _grade_entry_points()[name]
    f(0)
    f(2)
    with pytest.raises(InvalidInput) as exc:
        f(order)
    assert "order must be" in str(exc.value) and "(got %r)" % (order,) in str(exc.value)


def _sl2_borel_tensors():
    """Delta(e.h) at grade 4 and Delta(h.f) at grade 2 on sl2-borel, and
    Delta(E12.E21) at grade 4 on split2."""
    L = rmatrix.builtin_rmatrix("sl2-borel").algebra
    M = rmatrix.builtin_rmatrix("split2").algebra
    e, h, f = range(3)
    return (
        ev.coproduct(ev.env_element(L, 4, {(e, h): 1})),
        ev.coproduct(ev.env_element(L, 2, {(h, f): 1})),
        ev.coproduct(ev.env_element(M, 4, {(1, 3): 1})),
    )


def test_tensor_square_products_check_their_operands():
    """tensor_mul and tensor_star_mul raise OrderMismatch on two grades and
    AlgebraMismatch on two algebras, in either operand order, as + and -
    do; they used to return a tensor at the first operand's grade, or one
    holding a letter out of range for its algebra."""
    ctx = rmatrix.builtin_rmatrix("sl2-borel")
    P = products.from_rmatrix(ctx, "-")
    at4, at2, split = _sl2_borel_tensors()
    products_of = (ev.tensor_mul, lambda S, T: ev.tensor_star_mul(S, T, P))
    for mul in products_of:
        mul(at4, at4)
        for S, T in ((at4, at2), (at2, at4)):
            with pytest.raises(OrderMismatch):
                mul(S, T)
        for S, T in ((at4, split), (split, at4)):
            with pytest.raises(AlgebraMismatch):
                mul(S, T)


def test_tensor_of_checks_its_operands():
    L = rmatrix.builtin_rmatrix("sl2-borel").algebra
    M = rmatrix.builtin_rmatrix("split2").algebra
    A, B = ev.letter(L, 4, 0), ev.letter(L, 2, 1)
    ev.tensor_of(A, A)
    for S, T in ((A, B), (B, A)):
        with pytest.raises(OrderMismatch):
            ev.tensor_of(S, T)
    for S, T in ((A, ev.letter(M, 4, 3)), (ev.letter(M, 4, 3), A)):
        with pytest.raises(AlgebraMismatch):
            ev.tensor_of(S, T)


def test_an_algebra_of_more_than_256_letters_is_refused():
    """A word holds one byte per letter index, so the enveloping algebra
    takes at most 256 basis elements: on 257 its entry points raise
    DimensionMismatch naming the limit, and on 256 the last letter is a
    letter like any other."""
    big = liealg.new_lie_algebra(257, ["x%d" % i for i in range(257)], [])
    calls = (
        lambda: ev.unit(big, 2),
        lambda: ev.letter(big, 2, 0),
        lambda: ev.env_element(big, 2, {(): 1}),
        lambda: ev.lifted(big, products.BilinearProduct(big, []), 2),
    )
    for call in calls:
        with pytest.raises(DimensionMismatch) as exc:
            call()
        assert "at most 256 basis elements (this algebra has 257)" in str(exc.value)
    L = liealg.new_lie_algebra(256, ["x%d" % i for i in range(256)], [])
    last = ev.letter(L, 2, 255)
    assert last.coefficient([255]) == 1
    assert ev.render(ev.env_mul(last, ev.letter(L, 2, 0))) == "x0·x255"


def test_a_word_that_is_not_bytes_is_refused():
    """Elements hold each word as bytes, and a tuple word would never meet
    the bytes word it spells; EnvElement and TensorSquareElement refuse it
    by name, and env_element takes raw words of ints."""
    L = rmatrix.builtin_rmatrix("sl2-borel").algebra
    cases = (
        (ev.EnvElement, {(0, 2): 1}, "(0, 2)"),
        (ev.EnvElement, {bytes((0,)): 1, (2,): 1}, "(2,)"),
        (ev.TensorSquareElement, {(bytes((0,)), (2,)): 1}, "(2,)"),
    )
    for make, terms, word in cases:
        with pytest.raises(InvalidInput) as exc:
            make(L, 4, terms)
        assert "word %s is not bytes" % word in str(exc.value)
    assert ev.EnvElement(L, 4, {bytes((0, 2)): 1}) == ev.env_element(L, 4, {(0, 2): 1})
