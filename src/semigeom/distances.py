"""Extended distance values: exact rationals, infinity, or a horizon stamp.

Distances in this package are either an exact nonnegative rational, the
value infinity (no path exists, provably), or ``beyond(h)`` meaning the
true value exceeds the exploration horizon ``h`` and is otherwise unknown.
Infinity absorbs addition and positive scaling; a horizon stamp propagates
through sums so that derived quantities stay honestly marked.
"""

from fractions import Fraction
from math import lcm

from .descriptions import parse_ratio

_FINITE = 0
_INFINITE = 1
_BEYOND = 2


class ExtDist:
    """A finite rational distance, infinity, or an exceeds-horizon marker."""

    __slots__ = ("_status", "value", "horizon")

    def __init__(self, status, value=None, horizon=None):
        self._status = status
        self.value = value
        self.horizon = horizon

    def is_finite(self):
        return self._status == _FINITE

    def is_infinite(self):
        return self._status == _INFINITE

    def is_beyond(self):
        return self._status == _BEYOND

    def is_decisive(self):
        """True when the value is exact (finite or provably infinite)."""
        return self._status != _BEYOND

    def plus(self, other):
        """Sum with another ExtDist or a plain rational."""
        if not isinstance(other, ExtDist):
            other = finite(other)
        if self._status == _INFINITE or other._status == _INFINITE:
            return INFINITE
        if self._status == _BEYOND:
            return self
        if other._status == _BEYOND:
            return other
        return finite(self.value + other.value)

    def scaled(self, k):
        """Multiply by a positive rational constant."""
        if k <= 0:
            raise ValueError("scale factor must be positive")
        if self._status == _FINITE:
            return finite(self.value * k)
        return self

    def __eq__(self, other):
        if not isinstance(other, ExtDist):
            return NotImplemented
        return (self._status, self.value, self.horizon) == (
            other._status,
            other.value,
            other.horizon,
        )

    def __hash__(self):
        return hash((self._status, self.value, self.horizon))

    def __repr__(self):
        return "ExtDist(%s)" % self.format()

    def format(self):
        """Render as 'p/q', 'inf', or '>h'."""
        if self._status == _FINITE:
            return str(self.value)
        if self._status == _INFINITE:
            return "inf"
        return ">%d" % self.horizon


def _ratio(value):
    """A nonnegative int, Fraction or 'p/q' string as parse_ratio's (p, q)."""
    # str and int first: isinstance(value, Fraction), an ABC, is the slow test
    if isinstance(value, (str, int)) or not isinstance(value, Fraction):
        p, q = parse_ratio(value)
    else:
        p, q = value.numerator, value.denominator
    if p < 0:
        raise ValueError("distances are nonnegative, got %s" % Fraction(p, q))
    return p, q


def finite(value):
    """Wrap a nonnegative rational (int, Fraction, or 'p/q' string)."""
    p, q = _ratio(value)
    return ExtDist(_FINITE, value=value if type(value) is Fraction else Fraction(p, q))


def beyond(horizon):
    """The distance exceeds the horizon; the exact value is unknown."""
    return ExtDist(_BEYOND, horizon=int(horizon))


INFINITE = ExtDist(_INFINITE)

ZERO = finite(0)

INF = float("inf")


def _code(entry):
    """One matrix entry as scaled_rows codes it, before scaling: the ints
    (p, q) for a finite p/q, INF, or the int -1 - h for beyond(h)."""
    if not isinstance(entry, ExtDist):
        return INF if entry is None else _ratio(entry)
    if entry._status == _FINITE:
        return entry.value.numerator, entry.value.denominator
    if entry._status == _INFINITE:
        return INF
    return -1 - entry.horizon


def scaled_rows(matrix):
    """(L, rows): a distance matrix as exact integers over one denominator.

    Entries are ExtDist values, None (infinity) or what finite() takes;
    each is read as ints (no Fraction is made for it) and checked as it is
    consumed, so the first bad one in row-major order raises what finite()
    raises for it.  L is the least common denominator of the finite
    entries.  In the rows a finite entry d is the int d * L, infinity is
    the float INF and a horizon stamp beyond(h) is the negative int -1 - h,
    so that a sign test finds the stamps and decode reads each entry back.
    Every check that compares entries (or entries and constants brought
    onto the same scale) runs on these ints.
    """
    codes = [list(map(_code, row)) for row in matrix]
    scale = lcm(*{c[1] for row in codes for c in row if type(c) is tuple})
    return scale, [[c[0] * (scale // c[1]) if type(c) is tuple else c for c in row]
                   for row in codes]


def decode(code, scale=1):
    """The ExtDist of one entry of scaled_rows' rows over scale."""
    if code == INF:
        return INFINITE
    if code < 0:
        return beyond(-1 - code)
    return finite(Fraction(code, scale))
