import math
from fractions import Fraction

import pytest

from postlie import scalars
from postlie.errors import InvalidInput, MalformedNumber, ModeMismatch


def test_modes_are_distinct_strings():
    assert scalars.EXACT != scalars.FLOAT
    scalars.check_mode(scalars.EXACT)
    scalars.check_mode(scalars.FLOAT)
    with pytest.raises(ModeMismatch):
        scalars.check_mode("symbolic")


def test_coerce_exact_accepts_ints_fractions_strings():
    assert scalars.coerce(3, scalars.EXACT) == Fraction(3)
    assert scalars.coerce(Fraction(1, 3), scalars.EXACT) == Fraction(1, 3)
    assert scalars.coerce("-2/7", scalars.EXACT) == Fraction(-2, 7)


def test_coerce_exact_rejects_floats():
    with pytest.raises(ModeMismatch):
        scalars.coerce(0.5, scalars.EXACT)


def test_coerce_float_accepts_ints_floats_strings():
    assert scalars.coerce(0.5, scalars.FLOAT) == 0.5
    assert scalars.coerce(3, scalars.FLOAT) == 3.0
    assert scalars.coerce("1/4", scalars.FLOAT) == 0.25


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, 10**400, "1e400", "-1e400"],
    ids=["nan", "inf", "-inf", "10**400", "'1e400'", "'-1e400'"],
)
def test_coerce_float_rejects_non_finite_numbers(value):
    # the float conversion of 10**400 and "1e400" raises OverflowError, and
    # nan and inf convert without an error
    with pytest.raises(InvalidInput, match="is not a finite number"):
        scalars.coerce(value, scalars.FLOAT)


def test_coerce_float_rejects_raw_fractions():
    # callers convert explicitly; silently mixing the two scalar kinds is
    # how tolerance bugs sneak in
    with pytest.raises(ModeMismatch):
        scalars.coerce(Fraction(1, 2), scalars.FLOAT)


def test_parse_and_format_rational_round_trip():
    for text in ("0", "5", "-3/4", "22/7"):
        assert scalars.format_rational(scalars.parse_rational(text)) == text


@pytest.mark.parametrize("text", ["nan", "inf", "abc", "1/0", ""])
@pytest.mark.parametrize("mode", [scalars.EXACT, scalars.FLOAT])
def test_text_that_is_no_rational_is_malformed(text, mode):
    with pytest.raises(MalformedNumber, match="is not a number"):
        scalars.coerce(text, mode)


def test_is_zero_respects_mode_and_tolerance():
    assert scalars.TOLERANCE == 1e-10
    assert scalars.is_zero(Fraction(0), scalars.EXACT)
    assert not scalars.is_zero(Fraction(1, 10**12), scalars.EXACT)
    assert scalars.is_zero(1e-12, scalars.FLOAT)
    assert scalars.is_zero(-1e-10, scalars.FLOAT)
    assert not scalars.is_zero(1.5e-10, scalars.FLOAT)
    assert not scalars.is_zero(1e-8, scalars.FLOAT)


@pytest.mark.parametrize("value,text", [
    (0, "0"), (-3, "-3"), (Fraction(22, 7), "22/7"), (Fraction(-1, 2), "-1/2"),
    (0.1, "0.1"), (-2.0, "-2.0"), (1e-300, "1e-300"),
])
def test_to_text(value, text):
    # a float keeps its repr, which reads back to the same float; anything
    # else is written as p/q
    assert scalars.to_text(value) == text
    mode = scalars.FLOAT if isinstance(value, float) else scalars.EXACT
    assert scalars.coerce(text, mode) == value


def test_ratio_is_exact_in_exact_mode():
    assert scalars.ratio(1, 3, scalars.EXACT) == Fraction(1, 3)
    assert scalars.ratio(1, 3, scalars.FLOAT) == pytest.approx(1 / 3)
