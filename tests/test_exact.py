"""The exact elimination kernel (Bareiss) and the one overflow boundary.

Closed forms and the generic rational64 routes compute on unbounded integers
and range-check only the returned value, so wherever both routes exist they
must agree exactly: the same value, or the same refusal.
"""

from fractions import Fraction
from math import inf

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tmat
from oracles import brute_minors, cofactor_det
from tmat import (
    FLOAT64,
    RATIONAL64,
    DenseMatrix,
    Rational64,
    RationalOverflowError,
    SingularMatrixError,
    audit,
    construct,
    determinant,
    inverse,
    materialize,
    rank,
)
from tmat.linalg import _bareiss, as_dense, det_dense, inverse_dense, rank_dense, solve_dense
from tmat.properties import enumerate_minors
from tmat.scalars import from_exact

EXACT = settings(derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])

small_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


def _outcome(fn):
    """The value of fn(), or the type of the refusal it raised."""
    try:
        return fn()
    except (RationalOverflowError, SingularMatrixError) as exc:
        return type(exc)


def _routes_agree(h):
    assert _outcome(lambda: determinant(h)) == _outcome(lambda: det_dense(materialize(h)))
    if "closed_inverse" in h.record.descriptor.capabilities:
        closed = _outcome(lambda: as_dense(inverse(h)).to_rows())
        generic = _outcome(lambda: inverse_dense(materialize(h)).to_rows())
        assert closed == generic


# -- closed forms against the generic Bareiss route ------------------------------


@EXACT
@given(n=st.integers(1, 8), alpha=small_fractions)
def test_pei_closed_matches_bareiss(n, alpha):
    _routes_agree(construct("pei", n=n, alpha=alpha, scalar_kind=RATIONAL64))


@EXACT
@given(n=st.integers(1, 8), rho=small_fractions)
def test_kms_closed_matches_bareiss(n, rho):
    _routes_agree(construct("kms", n=n, rho=rho, scalar_kind=RATIONAL64))


@EXACT
@given(
    xy=st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.lists(small_fractions, min_size=n, max_size=n),
            st.lists(small_fractions, min_size=n, max_size=n),
        )
    )
)
def test_cauchy_closed_matches_bareiss(xy):
    x, y = xy
    try:
        h = construct("cauchy", x=tuple(x), y=tuple(y))
    except tmat.ParameterError:
        return  # x_i + y_j = 0 for some pair: no matrix
    _routes_agree(h)


@EXACT
@given(n=st.integers(1, 8), alpha=small_fractions, data=st.data())
def test_triw_closed_matches_bareiss(n, alpha, data):
    k = data.draw(st.integers(0, n - 1))
    _routes_agree(construct("triw", n=n, alpha=alpha, k=k, scalar_kind=RATIONAL64))


@EXACT
@given(n=st.integers(1, 8), lam=small_fractions)
def test_jordbloc_closed_matches_bareiss(n, lam):
    _routes_agree(construct("jordbloc", n=n, lam=lam, scalar_kind=RATIONAL64))


# -- Bareiss against cofactor expansion ------------------------------------------


@st.composite
def rational_matrices(draw, max_dim=5):
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    rows = [[draw(small_fractions) for _ in range(n)] for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        # a combination of two rows makes the matrix rank deficient
        a, b = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        s, t = draw(small_fractions), draw(small_fractions)
        rows[draw(st.integers(0, m - 1))] = [s * u + t * v for u, v in zip(rows[a], rows[b])]
    for c in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        for row in rows:
            row[c] = Fraction(0)  # a column without a pivot
    if draw(st.booleans()):
        rows[0][0] = Fraction(0)  # the first pivot needs a row swap
    return rows


def _dense(rows):
    return DenseMatrix.from_rows(
        [[Rational64.from_number(v) for v in row] for row in rows], RATIONAL64
    )


def _leading_square(rows):
    k = min(len(rows), len(rows[0]))
    return [row[:k] for row in rows[:k]]


def _oracle_rank(rows):
    k = min(len(rows), len(rows[0]))
    while k and all(det == 0 for det in brute_minors(rows, k)):
        k -= 1
    return k


@EXACT
@given(rows=rational_matrices())
def test_bareiss_rank_matches_minors(rows):
    assert rank_dense(_dense(rows)) == _oracle_rank(rows)


@EXACT
@given(rows=rational_matrices())
def test_bareiss_det_matches_cofactor(rows):
    square = _leading_square(rows)
    assert det_dense(_dense(square)).as_fraction() == cofactor_det(square)


@EXACT
@given(rows=rational_matrices())
def test_bareiss_without_row_exchanges_reads_leading_minors(rows):
    # pivot k is the leading minor of order k + 1 times positive row scales
    square = _leading_square(rows)
    n = len(square)
    minors = [cofactor_det([row[:k] for row in square[:k]]) for k in range(1, n + 1)]
    a, rank, _, _ = _bareiss([row[:] for row in square], n, leading=True)
    assert (rank == n) == all(minors)
    if rank == n:
        assert [a[k][k] > 0 for k in range(n)] == [m > 0 for m in minors]


@EXACT
@given(rows=rational_matrices())
def test_forward_and_gauss_jordan_bareiss_agree(rows):
    exact_rows = [[Rational64.from_number(v) for v in row] for row in rows]
    n = len(rows[0])
    _, rank, d, det = _bareiss([row[:] for row in exact_rows], n)
    assert (rank, d, det) == _bareiss([row[:] for row in exact_rows], n, jordan=True)[1:]


@EXACT
@given(rows=rational_matrices(max_dim=4))
def test_audit_minors_match_brute_force(rows):
    got = [det for _, _, det in enumerate_minors(_dense(rows))]
    k = min(len(rows), len(rows[0]))
    assert got == [det for size in range(1, k + 1) for det in brute_minors(rows, size)]


@EXACT
@given(rows=rational_matrices(max_dim=4))
def test_bareiss_solve_and_inverse_are_exact(rows):
    square = _leading_square(rows)
    n = len(square)
    d = _dense(square)
    if cofactor_det(square) == 0:
        with pytest.raises(SingularMatrixError):
            solve_dense(d, [Rational64(1)] * n)
        return
    x = [v.as_fraction() for v in solve_dense(d, [Rational64(1)] * n)]
    assert all(sum(a * xi for a, xi in zip(row, x)) == 1 for row in square)
    inv = inverse_dense(d).to_rows()
    for i in range(n):
        for j in range(n):
            entry = sum(square[i][k] * inv[k][j].as_fraction() for k in range(n))
            assert entry == (1 if i == j else 0)


# -- answers that fit are returned, however large the intermediates ------------


def test_rank_hilbert_16():
    assert rank(construct("hilbert", n=16)) == 16


def test_det_dense_pascal_21_and_frank_22():
    assert det_dense(materialize(construct("pascal", n=21))) == 1
    assert det_dense(materialize(construct("frank", n=22))) == 1


def test_rank_frank_22():
    assert rank(construct("frank", n=22)) == 22


def test_lotkin_refusals_name_the_operation():
    with pytest.raises(RationalOverflowError, match=r"^determinant: .*float64"):
        determinant(construct("lotkin", n=7))
    with pytest.raises(RationalOverflowError, match=r"^inverse: .*float64"):
        inverse(construct("lotkin", n=15))


# -- the overflow boundary ---------------------------------------------------------


def test_huge_overflow_message_gives_bit_lengths():
    with pytest.raises(RationalOverflowError, match="float64") as info:
        determinant(construct("hilbert", n=100))
    assert "-bit denominator" in str(info.value)


def test_float_results_beyond_range_are_signed_inf():
    assert from_exact(FLOAT64, 10**400, "determinant") == inf
    assert from_exact(FLOAT64, Fraction(-(10**400), 3), "determinant") == -inf
    assert determinant(construct("inversehilbert", n=50, scalar_kind=FLOAT64)) == inf


def test_audit_skips_sizes_that_overflow_materialization():
    (report,) = audit("inversehilbert", [16])
    assert report.findings
    for finding in report.findings:
        assert finding.verdict == "skipped"
        assert "entry (" in finding.note and "float64" in finding.note
