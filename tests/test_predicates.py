"""O(1) predicates against the scans and exact leading principal minors:
the families that are always symmetric positive definite, cauchy's symmetric
predicate, and the posdef predicates that pei, kms and moler decide from
their parameters.
"""

from fractions import Fraction
from math import inf, nan

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tmat
from oracles import frac_rows, naive_diagonal, naive_symmetric
from tmat import (
    FLOAT64,
    RATIONAL64,
    FamilyDescriptor,
    ParamSpec,
    Rational64,
    construct,
    is_posdef,
    is_symmetric,
    register_family,
)
from tmat.families import get_family
from tmat.linalg import _predicate, _scan_diagonal, _scan_symmetric

EXACT = settings(
    derandomize=True, deadline=None, max_examples=40, suppress_health_check=[HealthCheck.too_slow]
)

small_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
# k/8 is exact in binary, so the float64 entries are the exact ones
dyadic = st.integers(-24, 24).map(lambda k: k / 8)


def _posdef_oracle(rows):
    """Symmetric, with every leading principal minor positive: the pivots of
    Fraction elimination without row exchanges are their quotients."""
    if not naive_symmetric(rows):
        return False
    a = [list(row) for row in rows]
    for c in range(len(a)):
        if a[c][c] <= 0:
            return False
        for row in a[c + 1:]:
            f = row[c] / a[c][c]
            row[c + 1:] = [x - f * y for x, y in zip(row[c + 1:], a[c][c + 1:])]
    return True


# -- symmetric positive definite for every n ----------------------------------------


@EXACT
@given(
    family=st.sampled_from(["minij", "lehmer", "pascal", "inversehilbert", "poisson"]),
    n=st.integers(1, 12),
    kind=st.sampled_from([RATIONAL64, FLOAT64]),
)
def test_spd_predicates_match_the_scans(family, n, kind):
    h = construct(family, n=1 + n % 3 if family == "poisson" else n, scalar_kind=kind)
    rows = frac_rows(h)
    assert _predicate(h, "symmetric") is True
    assert is_symmetric(h) is _scan_symmetric(h) is naive_symmetric(rows)
    assert _predicate(h, "diagonal") is _scan_diagonal(h) is naive_diagonal(rows)
    assert _predicate(h, "posdef") is _posdef_oracle(rows)


# -- cauchy: symmetric when y = x, otherwise the scan decides ------------------------


@EXACT
@given(
    x=st.lists(small_fractions, min_size=1, max_size=6, unique=True),
    y_from_x=st.sampled_from(["same", "shifted", "drawn"]),
    shift=small_fractions,
    drawn=st.lists(small_fractions, min_size=1, max_size=6),
)
def test_cauchy_symmetric_predicate_matches_the_scan(x, y_from_x, shift, drawn):
    # a shifted y (x_i - y_i constant) is symmetric although y != x
    y = {"same": x, "shifted": [v + shift for v in x], "drawn": drawn}[y_from_x]
    try:
        h = construct("cauchy", x=tuple(x), y=tuple(y), scalar_kind=RATIONAL64)
    except tmat.ParameterError:
        return  # x_i + y_j = 0 for some pair: no matrix
    claimed = _predicate(h, "symmetric")
    want = naive_symmetric(frac_rows(h))
    assert claimed is (True if x == y else None)
    assert is_symmetric(h) is _scan_symmetric(h) is want


def test_cauchy_symmetric_predicate_defers_on_nan():
    h = construct("cauchy", x=(1.0, nan, 3.0))
    assert _predicate(h, "symmetric") is None
    assert is_symmetric(h) is False


# -- posdef decided by the parameters -------------------------------------------------

POSDEF_PARAMS = [("pei", "alpha"), ("kms", "rho"), ("moler", "alpha")]


@pytest.mark.parametrize("family, name", POSDEF_PARAMS)
@EXACT
@given(n=st.integers(1, 7), value=small_fractions, float_value=dyadic)
def test_posdef_predicates_match_leading_minors(family, name, n, value, float_value):
    for kind, v in ((RATIONAL64, value), (FLOAT64, float_value)):
        h = construct(family, {"n": n, name: v}, scalar_kind=kind)
        assert _predicate(h, "posdef") is _posdef_oracle(frac_rows(h))
        assert is_posdef(h) is _predicate(h, "posdef")


@pytest.mark.parametrize("family, name", POSDEF_PARAMS)
@pytest.mark.parametrize("value", [inf, -inf, nan])
def test_non_finite_parameters_are_not_posdef(family, name, value):
    for n in (2, 5):
        assert is_posdef(construct(family, {"n": n, name: value}, scalar_kind=FLOAT64)) is False


def test_posdef_at_n_1():
    assert is_posdef(construct("pei", n=1, alpha=Fraction(-1, 2))) is True
    assert is_posdef(construct("pei", n=1, alpha=-1)) is False
    assert is_posdef(construct("kms", n=1, rho=nan)) is True  # the matrix is [1]


# -- is_posdef takes the symmetric predicate, not the band scan -------------------------


@pytest.mark.parametrize(
    "family", [f for f in tmat.list_families() if "symmetric" in get_family(f).predicates]
)
def test_is_posdef_never_scans_a_family_with_a_symmetric_predicate(family, monkeypatch):
    h = construct(family, n=2 if family == "poisson" else 5)
    want = is_posdef(h)

    def no_scan(h):
        raise AssertionError("the band scan ran")

    monkeypatch.setattr(tmat.linalg, "_band_symmetric", no_scan)
    assert is_posdef(h) is want


# -- is_posdef without a posdef predicate: one decision per scalar kind --------------------


@pytest.mark.parametrize("n", [14, 15, 16])
def test_is_posdef_of_rational_cauchy_is_exact(n):
    # positive definite, but cond2 is beyond 1/u: a float pivot is not positive from n = 14
    assert get_family("cauchy").predicates.get("posdef") is None
    assert is_posdef(construct("cauchy", n=n)) is True


def test_is_posdef_of_float_cauchy_is_the_leading_pivot_pass():
    assert is_posdef(construct("cauchy", n=13, scalar_kind=FLOAT64)) is True
    assert is_posdef(construct("cauchy", n=14, scalar_kind=FLOAT64)) is False


def test_is_posdef_retries_on_the_float_twin_when_an_entry_overflows():
    x = [2**62, 2**61, 2**60]  # the denominator of 1 / (x_1 + x_1) overflows rational64
    assert is_posdef(construct("cauchy", x=x, y=x)) is True


@pytest.mark.parametrize("kind", [RATIONAL64, FLOAT64])
@pytest.mark.parametrize(
    "table, want",
    [
        ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], True),
        ([[0, 0, 1], [0, -1, 0], [1, 0, 0]], False),  # leading minors 0, 0, 1
        ([[1, 1, 0], [1, 1, 0], [0, 0, 1]], False),  # leading minors 1, 0, 0
        ([[1, 2, 0], [2, 1, 0], [0, 0, 1]], False),  # leading minors 1, -3, -3
        ([[-1, 0, 0], [0, -1, 0], [0, 0, 1]], False),  # leading minors -1, 1, 1
    ],
)
def test_is_posdef_of_a_rational_user_matrix_reads_its_leading_minors(table, want, kind):
    # the tables are exact in float64 too, and give the same verdicts there
    register_family(
        FamilyDescriptor("table", (ParamSpec("n", "dim"),), RATIONAL64, ("symmetric",)),
        lambda p, i, j, kind: (Rational64 if kind == RATIONAL64 else float)(table[i - 1][j - 1]),
    )
    h = construct("table", n=3, scalar_kind=kind)
    assert is_symmetric(h) is True
    assert is_posdef(h) is want is _posdef_oracle(frac_rows(h))
