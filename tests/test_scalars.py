import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmat import ParameterError, Rational64, RationalOverflowError, construct, element, inverse, scalars

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def test_normalization():
    r = Rational64(2, 4)
    assert (r.num, r.den) == (1, 2)
    r = Rational64(1, -2)
    assert (r.num, r.den) == (-1, 2)
    assert Rational64(0, 7) == Rational64(0)


def test_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        Rational64(1, 0)


def test_overflow_on_construction():
    with pytest.raises(RationalOverflowError):
        Rational64(2**63)
    with pytest.raises(RationalOverflowError):
        Rational64(1, 2**64 + 1)
    # reduction can bring a value back into range
    assert Rational64(2**64, 4) == Rational64(2**62)


def test_overflow_on_arithmetic():
    big = Rational64(2**62)
    with pytest.raises(RationalOverflowError):
        big + big
    with pytest.raises(RationalOverflowError):
        Rational64(2**32) * Rational64(2**31)
    # intermediates may exceed 64 bits if the reduced result fits
    a = Rational64(INT64_MAX, 2)
    assert a / Rational64(INT64_MAX, 2) == 1


small = st.integers(min_value=-(2**31), max_value=2**31)
nonzero = small.filter(lambda v: v != 0)


@given(small, nonzero, small, nonzero)
def test_arithmetic_matches_fraction(a, b, c, d):
    x, y = Rational64(a, b), Rational64(c, d)
    fx, fy = Fraction(a, b), Fraction(c, d)
    assert (x + y).as_fraction() == fx + fy
    assert (x - y).as_fraction() == fx - fy
    assert (x * y).as_fraction() == fx * fy
    if c != 0:
        assert (x / y).as_fraction() == fx / fy
    assert (x < y) == (fx < fy)
    assert (x == y) == (fx == fy)


def test_powers():
    assert Rational64(2, 3) ** 3 == Rational64(8, 27)
    assert Rational64(2, 3) ** -2 == Rational64(9, 4)
    assert Rational64(5) ** 0 == 1
    with pytest.raises(ZeroDivisionError):
        Rational64(0) ** -1


def test_integer_interop():
    assert Rational64(6, 3) == 2
    assert 2 == Rational64(6, 3)
    assert Rational64(1, 2) + 1 == Rational64(3, 2)
    assert 1 - Rational64(1, 2) == Rational64(1, 2)
    assert 2 * Rational64(1, 4) == Rational64(1, 2)
    assert 1 / Rational64(2) == Rational64(1, 2)
    assert Rational64(1, 3) < 1
    assert hash(Rational64(4, 2)) == hash(2)
    assert hash(Rational64(1, 3)) == hash(Fraction(1, 3))


@example(-1, 1)
@example(-(2**63), 1)
@given(
    st.integers(-(2**63), 2**63 - 1),
    st.one_of(
        st.just(1),
        st.integers(1, 2**63 - 1),
        st.sampled_from([sys.hash_info.modulus * k for k in (1, 2, 3, 4)]),
    ),
)
def test_hash_equals_fraction_hash(num, den):
    assert hash(Rational64(num, den)) == hash(Fraction(num, den))


def test_float_conversion_correctly_rounded():
    assert float(Rational64(1, 3)) == 1 / 3
    assert float(Rational64(-7, 11)) == -7 / 11


def test_str_rendering():
    assert str(Rational64(1, 2)) == "1/2"
    assert str(Rational64(3)) == "3"
    assert str(Rational64(-1, 2)) == "-1/2"


def test_from_number():
    assert Rational64.from_number(5) == 5
    assert Rational64.from_number(0.5) == Rational64(1, 2)
    assert Rational64.from_number(Fraction(3, 7)) == Rational64(3, 7)
    with pytest.raises(RationalOverflowError):
        Rational64.from_number(1e-10)  # denominator 2**93
    with pytest.raises(ParameterError):
        Rational64.from_number(float("nan"))
    with pytest.raises(ParameterError):
        Rational64.from_number(float("inf"))


# -- the constructor against a plain sequence of checks -------------------------


def _reference_init(num, den=1):
    """(num, den) of Rational64(num, den) by one check after another, or the
    exception it raises."""
    if isinstance(num, Rational64) and den == 1:
        return num.num, num.den
    if not isinstance(num, int) or not isinstance(den, int):
        raise TypeError(f"Rational64 components must be int, got {num!r}/{den!r}")
    if den == 0:
        raise ZeroDivisionError("rational with zero denominator")
    if den < 0:
        num, den = -num, -den
    g = math.gcd(num, den)
    if g > 1:
        num //= g
        den //= g
    if num < INT64_MIN or num > INT64_MAX or den > INT64_MAX:
        nbits, dbits = num.bit_length(), den.bit_length()
        if max(nbits, dbits) > 256:
            value = f"with a {nbits}-bit numerator and {dbits}-bit denominator"
        else:
            value = f"{num}/{den}"
        raise RationalOverflowError(f"rational value {value} exceeds the signed 64-bit range")
    return num, den


def _typed_outcome(fn, args):
    """The components with their types, or the exception type and message."""
    try:
        result = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    num, den = result if isinstance(result, tuple) else (result.num, result.den)
    return (type(num), num), (type(den), den)


class _Int(int):
    pass


EDGES = [0, 1, -1, 2, INT64_MIN, INT64_MAX, INT64_MIN - 1, INT64_MAX + 1, 2**64, -(2**64), 3**200]
wide_ints = st.one_of(st.integers(-(2**64), 2**64), st.sampled_from(EDGES))
components = st.one_of(
    wide_ints,
    st.booleans(),
    wide_ints.map(_Int),
    st.builds(Rational64, st.integers(-9, 9), st.integers(1, 9)),
    st.sampled_from([1.0, 0.5, "1", None]),
)
# a common factor k, so that reduction may bring a pair back into the 64-bit range
scaled_pairs = st.builds(
    lambda n, d, k: (n * k, d * k), wide_ints, wide_ints, st.integers(-(2**64), 2**64)
)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(st.one_of(st.tuples(components), st.tuples(components, components), scaled_pairs))
def test_constructor_matches_the_reference(args):
    assert _typed_outcome(Rational64, args) == _typed_outcome(_reference_init, args)


@pytest.mark.parametrize(
    "args",
    [(Rational64(3, 4),), (Rational64(3, 4), 1), (Rational64(3, 4), True), (Rational64(3, 4), 2),
     (True,), (True, 2), (False, -3), (5, True), (4, -6), (INT64_MIN, -1), (INT64_MIN, 1),
     (-INT64_MAX, -1), (1, INT64_MIN), (0, INT64_MIN), (2**300, 2**299), (2**300, 3),
     (_Int(6), _Int(4)), (1, 0), (True, False), (1.0, 2), (1, 2.0)],
)
def test_constructor_edge_cases_match_the_reference(args):
    assert _typed_outcome(Rational64, args) == _typed_outcome(_reference_init, args)


@pytest.mark.parametrize("value, want", [(10**400, math.inf), (-(10**400), -math.inf), (2**1023, 2.0**1023)])
def test_from_int_beyond_the_float_range_is_the_signed_inf(value, want):
    assert scalars.from_int(scalars.FLOAT64, value) == want


def test_float_inversehilbert_entries_beyond_the_range_are_signed_inf():
    # entry (i, j) of the inverse Hilbert matrix has sign (-1)^(i + j); at n = 260 the
    # middle ones have over 308 digits
    for h in (
        construct("inversehilbert", n=260, scalar_kind="float64"),
        inverse(construct("hilbert", n=260, scalar_kind="float64")),
    ):
        assert element(h, 130, 130) == math.inf
        assert element(h, 130, 131) == -math.inf
