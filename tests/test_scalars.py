import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tmat import ParameterError, Rational64, RationalOverflowError

INT64_MAX = 2**63 - 1


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
