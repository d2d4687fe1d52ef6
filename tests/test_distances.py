"""Extended distance arithmetic: classification, sums, scaling, formatting,
and the integer row encoding (scaled_rows) with its decoder."""

import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semigeom.distances import (INF, INFINITE, ZERO, ExtDist, beyond, decode, finite,
                                scaled_rows)
from semigeom.geometry import make_space


def test_finite_accepts_int_fraction_and_string():
    assert finite(3).value == Fraction(3)
    assert finite(Fraction(3, 2)).value == Fraction(3, 2)
    assert finite("3/2").value == Fraction(3, 2)
    assert finite("3/2") == finite(Fraction(3, 2))
    # decode hands finite() a new Fraction, which it keeps as it is
    q = Fraction(3, 2)
    assert finite(q).value is q


@pytest.mark.parametrize("text", ["1e2000000", "1e3", "1.5", " 1/2 "])
def test_rational_strings_are_read_strictly(text):
    # Fraction(str) reads exponents, decimal points and spaces, and builds
    # 10**(2*10**6) from "1e2000000" before any check runs
    message = "Invalid literal for Fraction: %r" % text
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        finite(text)
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        make_space(["u", "v"], [[0, text], [1, 0]])


def test_documented_rational_strings_are_read():
    assert finite("3/2").value == Fraction(3, 2)
    assert finite("-0") == ZERO
    space = make_space(["u", "v"], [["-0", "3/2"], [1, 0]])
    assert (space.d(0, 0), space.d(0, 1)) == (ZERO, finite(Fraction(3, 2)))


def test_finite_rejects_floats_and_negatives():
    with pytest.raises(TypeError):
        finite(0.5)
    with pytest.raises(ValueError):
        finite(-1)
    with pytest.raises(ValueError):
        finite(Fraction(-1, 3))


@pytest.mark.parametrize("call, value", [
    (finite, True),
    (finite, False),
    (lambda value: make_space(["u", "v"], [[0, value], [1, 0]]), True),
    (lambda value: make_space(["u", "v"], [[value, True], [True, 0]]), False),
    (lambda value: scaled_rows([[1, value]]), True),
])
def test_bools_are_not_rationals(call, value):
    # a space file refuses them with this text; finite(True) was once the
    # distance 1, and make_space read False and True as 0 and 1
    message = "expected a rational, got %r" % value
    with pytest.raises(TypeError, match="^%s$" % re.escape(message)) as got:
        call(value)
    assert isinstance(got.value, ValueError)


def test_classification_predicates():
    assert finite(2).is_finite() and finite(2).is_decisive()
    assert INFINITE.is_infinite() and INFINITE.is_decisive()
    b = beyond(5)
    assert b.is_beyond() and not b.is_decisive()
    assert not b.is_finite() and not b.is_infinite()
    assert b.horizon == 5


def test_zero_is_finite_zero():
    assert ZERO == finite(0)
    assert ZERO.value == 0


def test_plus_finite():
    assert finite(2).plus(finite(Fraction(1, 2))) == finite(Fraction(5, 2))
    # plain rationals are accepted on the right
    assert finite(2).plus(3) == finite(5)


def test_plus_infinite_absorbs_everything():
    assert INFINITE.plus(finite(7)) == INFINITE
    assert finite(7).plus(INFINITE) == INFINITE
    assert INFINITE.plus(beyond(2)) == INFINITE
    assert beyond(2).plus(INFINITE) == INFINITE


def test_plus_beyond_propagates_first_stamp():
    assert beyond(4).plus(finite(2)) == beyond(4)
    assert finite(2).plus(beyond(4)) == beyond(4)
    assert beyond(3).plus(beyond(5)) == beyond(3)
    assert beyond(5).plus(beyond(3)) == beyond(5)


def test_scaled():
    assert finite(3).scaled(2) == finite(6)
    assert finite(3).scaled(Fraction(1, 2)) == finite(Fraction(3, 2))
    assert INFINITE.scaled(5) == INFINITE
    assert beyond(4).scaled(2) == beyond(4)
    for bad in (0, -1, Fraction(-1, 2)):
        with pytest.raises(ValueError):
            finite(1).scaled(bad)


def test_format():
    assert finite(3).format() == "3"
    assert finite(Fraction(3, 2)).format() == "3/2"
    assert INFINITE.format() == "inf"
    assert beyond(7).format() == ">7"
    assert repr(beyond(7)) == "ExtDist(>7)"


def test_equality_and_hash():
    assert finite(2) == finite(2)
    assert finite(2) != finite(3)
    assert finite(2) != INFINITE
    assert beyond(2) != beyond(3)
    assert INFINITE != beyond(2)
    assert finite(2) != 2  # no cross-type equality
    assert len({finite(2), finite(2), beyond(1), beyond(1), INFINITE}) == 3


def test_no_ordering_operators():
    with pytest.raises(TypeError):
        finite(1) < finite(2)


# -- the integer row encoding -------------------------------------------------

RATIONALS = st.builds(Fraction, st.integers(0, 40), st.integers(1, 12))
ENTRIES = st.one_of(
    st.integers(0, 40),
    RATIONALS,
    st.none(),
    RATIONALS.map(finite),
    st.just(INFINITE),
    st.integers(0, 9).map(beyond),
)
# what finite() refuses: negatives, floats and values that are not rationals
BAD_ENTRIES = st.one_of(
    st.integers(-40, -1),
    st.builds(Fraction, st.integers(-40, -1), st.integers(1, 12)),
    st.floats(allow_nan=False),
    st.sampled_from(["x", "-1/2", 1j, [1], b"1"]),
)


def square_matrices(min_points=0):
    return st.integers(min_points, 6).flatmap(lambda n: st.lists(
        st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n))


def reference_entry(entry):
    """(status, exact value): an entry read on its own, through Fraction."""
    if entry is None or entry == INFINITE:
        return "inf", None
    if isinstance(entry, ExtDist):
        if entry.is_beyond():
            return "beyond", entry.horizon
        return "finite", entry.value
    return "finite", Fraction(entry)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(square_matrices())
def test_scaled_rows_matches_per_entry_fractions(matrix):
    scale, rows = scaled_rows(matrix)
    entries = [list(map(reference_entry, row)) for row in matrix]
    assert scale == lcm(*(q.denominator for row in entries
                          for status, q in row if status == "finite"))
    assert list(map(len, rows)) == list(map(len, matrix))
    for row, reference, originals in zip(rows, entries, matrix):
        for code, (status, value), entry in zip(row, reference, originals):
            if status == "finite":
                assert type(code) is int and code == value * scale
                want = finite(value)
            elif status == "inf":
                assert code == INF
                want = INFINITE
            else:
                assert code == -1 - value
                want = beyond(value)
            assert decode(code, scale) == want
            if isinstance(entry, ExtDist):
                assert decode(code, scale) == entry


def lazily(matrix, stop):
    """The matrix as generators of its rows, failing the test when an
    entry past the cell `stop` (row-major) is consumed."""
    for i, row in enumerate(matrix):
        yield (pytest.fail("consumed an entry past %r" % (stop,)) if (i, j) > stop else v
               for j, v in enumerate(row))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_scaled_rows_raises_what_finite_raises_at_the_first_bad_entry(data):
    matrix = data.draw(square_matrices(min_points=1))
    n = len(matrix)
    cells = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               min_size=1, max_size=3))
    for i, j in cells:
        matrix[i][j] = data.draw(BAD_ENTRIES)
    first = min(cells)
    with pytest.raises((TypeError, ValueError)) as want:
        finite(matrix[first[0]][first[1]])
    for given_matrix in (matrix, lazily(matrix, first)):
        with pytest.raises(want.type) as got:
            scaled_rows(given_matrix)
        assert str(got.value) == str(want.value)

