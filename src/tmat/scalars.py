"""Scalar kinds: 64-bit binary floats and checked 64-bit rationals.

Matrix entries are either Python floats (binary64) or Rational64 values.
Rational64 keeps an exact numerator/denominator pair, reduced after every
operation; any result whose reduced numerator or denominator falls outside
the signed 64-bit range raises RationalOverflowError instead of silently
promoting to big integers. Exact algorithms (closed forms, elimination) work
on unbounded integers and Fractions instead, and hand their result back
through from_exact, the one place where a computed value is range-checked.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, inf

from .errors import ParameterError, RationalOverflowError

FLOAT64 = "float64"
RATIONAL64 = "rational64"
SCALAR_KINDS = (FLOAT64, RATIONAL64)

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

_HASH_MODULUS, _HASH_INF = sys.hash_info.modulus, sys.hash_info.inf


class Rational64:
    """Exact rational with signed 64-bit numerator and denominator.

    Normalized so that den > 0 and gcd(|num|, den) == 1. All arithmetic is
    checked: intermediate products use Python's big integers, but the reduced
    result must fit in 64 bits.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if type(num) is not int or type(den) is not int or den <= 0:
            if isinstance(num, Rational64) and den == 1:
                self.num, self.den = num.num, num.den
                return
            if not isinstance(num, int) or not isinstance(den, int):
                raise TypeError(f"Rational64 components must be int, got {num!r}/{den!r}")
            if den == 0:
                raise ZeroDivisionError("rational with zero denominator")
            if den < 0:
                num, den = -num, -den
        if den != 1 and (g := gcd(num, den)) > 1:
            num, den = num // g, den // g
        if not INT64_MIN <= num <= INT64_MAX >= den:
            nbits, dbits = num.bit_length(), den.bit_length()
            # str() of a huge int is slow and capped at 4300 digits
            if max(nbits, dbits) > 256:
                value = f"with a {nbits}-bit numerator and {dbits}-bit denominator"
            else:
                value = f"{num}/{den}"
            raise RationalOverflowError(f"rational value {value} exceeds the signed 64-bit range")
        self.num = num
        self.den = den

    # -- conversions -------------------------------------------------------

    @classmethod
    def from_number(cls, value) -> "Rational64":
        """Exact conversion from int, Fraction, float, or Rational64."""
        if isinstance(value, Rational64):
            return value
        if isinstance(value, bool):  # reject: booleans are not scalars
            raise ParameterError(f"expected a number, got {value!r}")
        if isinstance(value, int):
            return cls(value)
        if isinstance(value, Fraction):
            return cls(value.numerator, value.denominator)
        if isinstance(value, float):
            if value != value or value in (float("inf"), float("-inf")):
                raise ParameterError(f"cannot represent {value!r} as a rational")
            n, d = value.as_integer_ratio()
            return cls(n, d)
        raise ParameterError(f"cannot convert {value!r} to rational64")

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def as_integer_ratio(self) -> tuple[int, int]:
        return self.num, self.den

    def __float__(self) -> float:
        # big-int division is correctly rounded in CPython
        return self.num / self.den

    def __int__(self) -> int:
        if self.den != 1:
            raise ValueError(f"{self} is not an integer")
        return self.num

    @property
    def is_integer(self) -> bool:
        return self.den == 1

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if type(other) is Rational64 or isinstance(other, Rational64):
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return Rational64(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Rational64(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Rational64(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Rational64(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.num == 0:
            raise ZeroDivisionError("rational division by zero")
        return Rational64(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            if self.num == 0:
                raise ZeroDivisionError("zero to a negative power")
            return Rational64(self.den**-exponent, self.num**-exponent)
        return Rational64(self.num**exponent, self.den**exponent)

    def __neg__(self):
        return Rational64(-self.num, self.den)

    def __pos__(self):
        return self

    def __abs__(self):
        return Rational64(abs(self.num), self.den)

    # -- comparisons ---------------------------------------------------------

    def _cmp(self, other):
        o = self._coerce(other)
        if o is None:
            return None
        return self.num * o.den - o.num * self.den

    def __eq__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c == 0

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0

    def __hash__(self):
        # CPython's hash of Fraction(num, den), computed without building one
        try:
            h = abs(self.num) * pow(self.den, -1, _HASH_MODULUS) % _HASH_MODULUS
        except ValueError:  # den is a multiple of the modulus
            h = _HASH_INF
        h = h if self.num >= 0 else -h
        return -2 if h == -1 else h

    def __bool__(self):
        return self.num != 0

    def __repr__(self):
        return f"Rational64({self.num}, {self.den})"

    def __str__(self):
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"


# -- kind helpers used throughout the catalog --------------------------------


def check_kind(kind: str) -> str:
    if kind not in SCALAR_KINDS:
        raise ParameterError(f"unknown scalar kind '{kind}' (expected one of {SCALAR_KINDS})")
    return kind


_ZERO, _ONE = Rational64(0), Rational64(1)  # shared: nothing mutates a Rational64


def zero(kind: str):
    return _ZERO if kind == RATIONAL64 else 0.0


def one(kind: str):
    return _ONE if kind == RATIONAL64 else 1.0


def from_int(kind: str, value: int):
    if kind == RATIONAL64:
        return Rational64(value)
    try:
        return float(value)
    except OverflowError:  # beyond the float range: the signed inf, as from_exact gives
        return inf if value > 0 else -inf


def ratio(kind: str, num: int, den: int):
    """num/den in the requested kind."""
    if kind == RATIONAL64:
        return Rational64(num, den)
    return num / den


def exact(value) -> Fraction:
    """Fraction view of a scalar, for exact work on unbounded integers."""
    return Fraction(*value.as_integer_ratio())


def from_exact(kind: str, value, what: str):
    """An exact int or Fraction result of operation `what`, in `kind`.

    This is the one overflow boundary for computed results: only the returned
    value must fit in 64 bits, and a rational64 refusal names the operation
    and suggests float64. A float64 value beyond the float range becomes a
    signed inf, as a float product would.
    """
    if kind == RATIONAL64:
        try:
            return Rational64(value.numerator, value.denominator)
        except RationalOverflowError as exc:
            raise RationalOverflowError(
                f"{what}: {exc}; use scalar kind float64 for this instance"
            ) from None
    try:
        return float(value)
    except OverflowError:
        return inf if value > 0 else -inf


def value_is_integer(value) -> bool:
    if isinstance(value, Rational64):
        return value.den == 1
    if isinstance(value, float):
        return value == value and value not in (float("inf"), float("-inf")) and value.is_integer()
    if isinstance(value, complex):
        return value.imag == 0.0 and value.real.is_integer()
    return isinstance(value, int)
