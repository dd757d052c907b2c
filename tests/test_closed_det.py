"""Closed-form determinants on plain integers: hilbert, inversehilbert and
cauchy against independent Fraction oracles, refusals included.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tmat
from oracles import cofactor_det
from tmat import FLOAT64, RATIONAL64, construct, determinant
from tmat.catalog import _inv_hilbert_det_int
from tmat.scalars import from_exact

EXACT = settings(derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])

small_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


def _result(fn):
    """The value of fn(), or the type and message of the refusal it raised."""
    try:
        return fn()
    except tmat.TmatError as exc:
        return type(exc), str(exc)


# -- hilbert and inversehilbert: Choi's product against the superfactorials ----


def _superfactorial(n):
    """c_n = prod_{k=1}^{n-1} k!"""
    p = f = 1
    for k in range(1, n):
        f *= k
        p *= f
    return p


@pytest.mark.parametrize("n", range(61))
def test_inverse_hilbert_det_is_the_superfactorial_quotient(n):
    c2n, cn4 = _superfactorial(2 * n), _superfactorial(n) ** 4
    assert c2n % cn4 == 0
    assert _inv_hilbert_det_int(n) == c2n // cn4
    oracle = Fraction(c2n, cn4)
    for kind in (FLOAT64, RATIONAL64):
        for family, value in (("hilbert", 1 / oracle), ("inversehilbert", oracle)):
            got = _result(lambda: determinant(construct(family, n=n, scalar_kind=kind)))
            want = _result(lambda: from_exact(kind, value, "determinant"))
            assert got == want
            assert type(got) is type(want)


# -- cauchy: three integer products against a Fraction product ------------------


def _cauchy_oracle(x, y):
    n = len(x)
    value = Fraction(1)
    for j in range(n):
        for i in range(j):
            value *= (x[j] - x[i]) * (y[j] - y[i])
    for xi in x:
        for yj in y:
            value /= xi + yj
    return value


@EXACT
@given(
    xy=st.integers(0, 10).flatmap(
        lambda n: st.tuples(
            st.lists(small_fractions, min_size=n, max_size=n),
            st.lists(small_fractions, min_size=n, max_size=n),
        )
    )
)
def test_cauchy_rational_det_matches_fraction_product(xy):
    x, y = xy
    try:
        h = construct("cauchy", x=tuple(x), y=tuple(y), scalar_kind=RATIONAL64)
    except tmat.ParameterError:
        return  # x_i + y_j = 0 for some pair: no matrix
    want = _result(lambda: from_exact(RATIONAL64, _cauchy_oracle(x, y), "determinant"))
    assert _result(lambda: determinant(h)) == want


def test_cauchy_rational_det_with_unequal_generators():
    x = (Fraction(-7, 2), Fraction(1, 3), 2, Fraction(5, 4))
    y = (Fraction(9, 5), 4, Fraction(-1, 6), 11)
    h = construct("cauchy", x=x, y=y, scalar_kind=RATIONAL64)
    assert determinant(h).as_fraction() == _cauchy_oracle(x, y)
    assert determinant(h).as_fraction() == cofactor_det(
        [[1 / Fraction(xi + yj) for yj in y] for xi in x]
    )


# -- refusals keep their exact wording --------------------------------------------

_TOO_BIG = "exceeds the signed 64-bit range; use scalar kind float64 for this instance"


@pytest.mark.parametrize(
    "family, n, value",
    [
        ("hilbert", 100, "1-bit numerator and 19738-bit denominator"),
        ("hilbert", 200, "1-bit numerator and 79473-bit denominator"),
        ("inversehilbert", 100, "19738-bit numerator and 1-bit denominator"),
        ("cauchy", 50, "1-bit numerator and 4966-bit denominator"),
        ("cauchy", 100, "1-bit numerator and 19933-bit denominator"),
    ],
)
def test_closed_det_refusals_are_pinned(family, n, value):
    h = construct(family, n=n, scalar_kind=RATIONAL64)
    with pytest.raises(tmat.RationalOverflowError) as info:
        determinant(h)
    assert str(info.value) == f"determinant: rational value with a {value} {_TOO_BIG}"
