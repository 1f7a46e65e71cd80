"""Scalar handling: exact rationals vs floats, selected per computation context.

The mode lives on the owning algebra/context, never on individual values.
Exact mode works with int/Fraction (arithmetic is exact by construction);
float mode works with int/float.  Mixing a float into an exact context
raises ModeMismatch.  Every scalar rule lives here: coercion with its
finite-number rule for float mode and the JSON readers, the zero test
(exactly zero, or within TOLERANCE in float mode), the JSON text form and
cleared denominators.
"""

import json
import math
from fractions import Fraction

from .errors import DimensionMismatch, InvalidInput, MalformedNumber, ModeMismatch, NonFiniteNumber

EXACT = "exact"
FLOAT = "float"

# a float is zero when its absolute value is at most this
TOLERANCE = 1e-10

# per mode, the types whose values coerce_row and coerce_entry keep as they
# are (a bool is not among them: type(True) is bool)
NATIVE = {EXACT: frozenset((int, Fraction)), FLOAT: frozenset((float,))}


def check_mode(mode):
    if mode not in (EXACT, FLOAT):
        raise ModeMismatch("unknown scalar mode %r (use 'exact' or 'float')" % (mode,))
    return mode


def coerce(value, mode):
    """Validate and normalize one scalar for the given mode.  In float mode,
    NaN, an infinity or a number beyond the float range is NonFiniteNumber."""
    if isinstance(value, bool):
        raise ModeMismatch("booleans are not scalars")
    if mode == EXACT:
        if isinstance(value, (int, Fraction)):
            return Fraction(value) if not isinstance(value, int) else value
        if isinstance(value, str):
            return parse_rational(value)
        raise ModeMismatch("exact mode rejects %r (use int, Fraction or 'p/q')" % (value,))
    if isinstance(value, (int, float, str)):
        try:
            out = float(parse_rational(value) if isinstance(value, str) else value)
            if math.isfinite(out):
                return out
        except OverflowError:
            pass
        raise NonFiniteNumber("%s is not a finite number" % (value,))
    raise ModeMismatch("float mode rejects %r" % (value,))


def coerce_row(row, mode):
    """row as a tuple of scalars of the mode; an entry of one of the mode's
    own types is kept as it is, with no call to coerce."""
    native = NATIVE[mode]
    return tuple(v if type(v) in native else coerce(v, mode) for v in row)


def coerce_entry(value, mode):
    """value if of one of the mode's own types and finite, else coerce(value, mode)."""
    if type(value) in NATIVE[mode] and (mode == EXACT or math.isfinite(value)):
        return value
    return coerce(value, mode)


def is_native(values, mode):
    """True when coerce_entry keeps each of the values as it is: every one is
    of the mode's own types and, in float mode, their sum is finite, so no
    value is NaN or infinite."""
    values = list(values)
    return set(map(type, values)) <= NATIVE[mode] and (mode == EXACT or math.isfinite(sum(values)))


def parse_rational(s):
    """Parse 'p/q', 'p' or a decimal into a Fraction (used by the JSON
    loaders); any other text, 'nan' and 'p/0' among it, is MalformedNumber."""
    try:
        return Fraction(str(s).strip())
    except (ValueError, ZeroDivisionError):
        raise MalformedNumber(
            "%r is not a number (write p/q, p or a decimal)" % (s,)
        ) from None


def format_rational(q):
    """Serialize a scalar back to the 'p/q' / 'p' string form."""
    q = Fraction(q)
    return "%d/%d" % (q.numerator, q.denominator) if q.denominator != 1 else "%d" % q.numerator


def to_text(v):
    """A scalar as text: repr for a float (it reads back exactly), 'p/q' or
    'p' otherwise."""
    return repr(v) if isinstance(v, float) else format_rational(v)


# the input errors read_json names the file in; a check verdict such as
# YangBaxterFailure, an InvalidInput too, keeps its type and fields
_FILE_ERRORS = (InvalidInput, NonFiniteNumber, MalformedNumber, ModeMismatch, DimensionMismatch)


def read_json(path, build):
    """build(document) for the JSON document in the file at path.  Every
    number in it must be finite: NaN, Infinity, a float literal beyond the
    float range, and a number that build coerces to float mode beyond it
    raise NonFiniteNumber; text that build reads as a number and is none
    raises MalformedNumber, and an entry the mode does not take (null,
    true, a float literal in exact mode) ModeMismatch.  These, a plain
    InvalidInput and a DimensionMismatch raised while reading name the
    file."""

    def finite(text):
        value = float(text)
        if not math.isfinite(value):
            raise NonFiniteNumber("%s is not a finite number" % (text,))
        return value

    try:
        with open(path) as fh:
            return build(json.load(fh, parse_float=finite, parse_constant=finite))
    except _FILE_ERRORS as exc:
        if type(exc) not in _FILE_ERRORS:
            raise
        raise type(exc)("%s: %s" % (path, exc)) from None


def is_zero(value, mode):
    if mode == EXACT:
        return value == 0
    return abs(value) <= TOLERANCE


def clear_denominators(v):
    """(integer numerators, int denominator) of the exact scalars of v: each
    entry times the lcm of their denominators, and that lcm."""
    den = math.lcm(*(c.denominator for c in v))
    return tuple(c.numerator * (den // c.denominator) for c in v), den


def ratio(p, q, mode):
    """The scalar p/q of ints or Fractions in the given mode: exact, or the
    float nearest to it (for ints the same value as p / q)."""
    exact = Fraction(p, q)
    return exact if mode == EXACT else float(exact)
