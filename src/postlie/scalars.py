"""Scalar handling: exact rationals vs floats, selected per computation context.

The mode lives on the owning algebra/context, never on individual values.
Exact mode works with int/Fraction (arithmetic is exact by construction);
float mode works with int/float.  Mixing a float into an exact context
raises ModeMismatch.  Every scalar rule lives here: coercion, the zero test
(exactly zero, or within TOLERANCE in float mode) and the text form that
the JSON writers use.
"""

from fractions import Fraction

from .errors import ModeMismatch

EXACT = "exact"
FLOAT = "float"

# a float is zero when its absolute value is at most this
TOLERANCE = 1e-10

# per mode, the types whose values coerce returns as they are (a bool is not
# among them: type(True) is bool)
NATIVE = {EXACT: frozenset((int, Fraction)), FLOAT: frozenset((float,))}


def check_mode(mode):
    if mode not in (EXACT, FLOAT):
        raise ModeMismatch("unknown scalar mode %r (use 'exact' or 'float')" % (mode,))
    return mode


def coerce(value, mode):
    """Validate and normalize one scalar for the given mode."""
    if isinstance(value, bool):
        raise ModeMismatch("booleans are not scalars")
    if mode == EXACT:
        if isinstance(value, (int, Fraction)):
            return Fraction(value) if not isinstance(value, int) else value
        if isinstance(value, str):
            return parse_rational(value)
        raise ModeMismatch("exact mode rejects %r (use int, Fraction or 'p/q')" % (value,))
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        return float(parse_rational(value))
    raise ModeMismatch("float mode rejects %r" % (value,))


def parse_rational(s):
    """Parse 'p/q' or 'p' into a Fraction (used by the JSON loaders)."""
    return Fraction(str(s).strip())


def format_rational(q):
    """Serialize a scalar back to the 'p/q' / 'p' string form."""
    q = Fraction(q)
    return "%d/%d" % (q.numerator, q.denominator) if q.denominator != 1 else "%d" % q.numerator


def to_text(v):
    """A scalar as text: repr for a float (it reads back exactly), 'p/q' or
    'p' otherwise."""
    return repr(v) if isinstance(v, float) else format_rational(v)


def is_zero(value, mode):
    if mode == EXACT:
        return value == 0
    return abs(value) <= TOLERANCE


def ratio(p, q, mode):
    """The scalar p/q in the given mode (exact division vs float division)."""
    return Fraction(p, q) if mode == EXACT else p / q
