"""The float64 elimination kernel works only inside the band it measures.

det_dense, solve_dense, inverse_dense and rank_dense must give the outcomes
of the dense kernel that the band kernel replaced, kept below as the
reference: the same values compared with ==, NaN where NaN, and the same
exception type and message.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tmat import FLOAT64, construct, materialize
from tmat import linalg
from tmat.core import DenseMatrix
from tmat.linalg import _bandwidths, _factor_or_raise, _lu_factor, det_dense, inverse_dense, rank_dense, solve_dense

# -- the dense reference kernel ----------------------------------------------------


def _dense_lu_factor(rows, ncols, tol, *, stop=False, firsts=False, leading=False):
    # firsts only spares work, so the reference ignores it: it eliminates
    # every column (up to the first skipped one with stop) and returns the
    # band of a dense matrix
    a = rows
    m = len(a)
    perm = list(range(m))
    sign, r, skipped = 1, 0, None
    for c in range(ncols):
        if r == m:
            break
        best, best_mag = r, abs(a[r][c])
        for i in range(r + 1, r + 1 if leading else m):
            mag = abs(a[i][c])
            if mag > best_mag:
                best, best_mag = i, mag
        pivot = a[best][c]
        if not best_mag > tol or leading and (pivot.imag or not 0 < pivot.real < math.inf):
            if skipped is None:
                skipped = c
            if stop or leading:
                break
            continue
        if best != r:
            a[r], a[best] = a[best], a[r]
            perm[r], perm[best] = perm[best], perm[r]
            sign = -sign
        pivot_row = a[r]
        for row in a[r + 1:]:
            if row[c] == 0:
                continue
            f = row[c] / pivot
            row[c] = f
            for k in range(c + 1, ncols):
                row[k] = row[k] - f * pivot_row[k]
        r += 1
    return a, perm, sign, r, skipped, ([0] * m, ncols)  # the band of a dense matrix


def _dense_lu_solve_one(lu, perm, band, b, top=0):
    n = len(lu)
    y = [b[perm[i]] for i in range(n)]
    for i in range(n):
        row = lu[i]
        acc = y[i]
        for k in range(i):
            acc = acc - row[k] * y[k]
        y[i] = acc
    for i in range(n - 1, -1, -1):
        row = lu[i]
        acc = y[i]
        for k in range(i + 1, n):
            acc = acc - row[k] * y[k]
        y[i] = acc / row[i]
    return y


# -- outcomes ------------------------------------------------------------------------


def _outcomes(d, rhs):
    ops = [(rank_dense, d)]
    if d.rows == d.cols:
        ops += [(det_dense, d), (solve_dense, d, rhs), (inverse_dense, d)]
    found = []
    for fn, *args in ops:
        try:
            found.append(("value", fn(*args)))
        except Exception as exc:  # the reference must raise the same
            found.append(("raised", type(exc), str(exc)))
    return found


def _reference_outcomes(d, rhs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_lu_factor", _dense_lu_factor)
        mp.setattr(linalg, "_lu_solve_one", _dense_lu_solve_one)
        return _outcomes(d, rhs)


def _same(x, y):
    """x == y, NaN where NaN, elementwise through lists and dense matrices."""
    if isinstance(x, DenseMatrix):
        return isinstance(y, DenseMatrix) and x.dims == y.dims and _same(x.data, y.data)
    if isinstance(x, (list, tuple)):
        return type(x) is type(y) and len(x) == len(y) and all(map(_same, x, y))
    if isinstance(x, (int, float, complex)) and isinstance(y, (int, float, complex)):
        x, y = complex(x), complex(y)
        return all(a == b or (a != a and b != b) for a, b in ((x.real, y.real), (x.imag, y.imag)))
    return x == y


def _assert_reference_outcomes(rows, ncols, rhs):
    d = DenseMatrix(len(rows), ncols, [row[j] for j in range(ncols) for row in rows], FLOAT64)
    got, want = _outcomes(d, rhs), _reference_outcomes(d, rhs)
    assert _same(got, want), (got, want)


# -- random banded matrices --------------------------------------------------------

FINITE = st.one_of(st.integers(-3, 3).map(float), st.floats(-2.0, 2.0))
SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 1e-15, 0.0])
SCALES = [1.0, 1.0, 1.0, 2.0**-1040, 2.0**1000]  # subnormal and huge: solutions overflow


@st.composite
def banded_systems(draw):
    """(rows, ncols, rhs): an m x n matrix zero outside bandwidths (p, q), with
    columns planted to zero or below the pivot tolerance, complex entries,
    NaN and inf entries, and a right-hand side that may hold them too."""
    m = draw(st.integers(0, 8))
    n = m if draw(st.booleans()) else draw(st.integers(0, 8))
    p = draw(st.integers(0, max(m - 1, 0)))
    q = draw(st.integers(0, max(n - 1, 0)))
    value = st.one_of(FINITE, SPECIAL) if draw(st.booleans()) else FINITE
    if draw(st.booleans()):
        value = st.one_of(value, st.builds(complex, value, value))
    rows = [[draw(value) if -p <= j - i <= q else 0.0 for j in range(n)] for i in range(m)]
    for j in draw(st.lists(st.integers(0, n - 1), max_size=2)) if n else []:
        planted = draw(st.sampled_from([0.0, 1e-17]))
        for i in range(max(0, j - q), min(m, j + p + 1)):
            rows[i][j] = planted
    scale = draw(st.sampled_from(SCALES))
    rows = [[v * scale for v in row] for row in rows]
    return rows, n, [draw(value) for _ in range(m)]


BAND = settings(
    derandomize=True, max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@BAND
@given(system=banded_systems())
def test_band_kernel_outcomes_equal_the_dense_kernel(system):
    _assert_reference_outcomes(*system)


@pytest.mark.parametrize(
    "family, params",
    [
        ("wilkinson", {"n": 25}),
        ("grcar", {"n": 25}),
        ("jordbloc", {"n": 25}),
        ("clement", {"n": 24}),
        ("companion", {"v": list(range(1, 26))}),
        ("poisson", {"n": 5}),
        ("kms", {"n": 25}),
        ("lotkin", {"n": 25}),
        ("frank", {"n": 25}),
        ("triw", {"n": 25}),
    ],
)
def test_builtin_outcomes_equal_the_dense_kernel(family, params):
    d = materialize(construct(family, scalar_kind=FLOAT64, **params))
    rows = d.to_rows()
    _assert_reference_outcomes(rows, d.cols, [float(i % 3 - 1) for i in range(d.rows)])
    shifted = [[v - (i == j) * 0.5j for j, v in enumerate(row)] for i, row in enumerate(rows)]
    _assert_reference_outcomes(shifted, d.cols, [1.0] * d.rows)


def test_non_finite_solutions_equal_the_dense_kernel():
    # the dense loops turn a skipped 0 * nan or 0 * inf into NaN: a NaN
    # right-hand side entry, and the overflowing inverse of a subnormal diagonal
    bidiagonal = [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]]
    _assert_reference_outcomes(bidiagonal, 3, [1.0, math.nan, 1.0])
    tiny = 5e-324
    _assert_reference_outcomes([[tiny, 0.0], [0.0, tiny]], 2, [1.0, 1.0])


def test_non_finite_multipliers_equal_the_dense_kernel():
    # with ||A||_F = inf an infinite pivot passes the rank and det bounds;
    # inf / inf and a (nan + inf j) pivot give a NaN multiplier f, and the
    # dense loops turn each f * 0 right of the band into NaN
    inf = math.inf
    _assert_reference_outcomes([[inf, 0.0, 0.0], [inf, 0.0, 0.0], [0.0, 0.0, inf]], 3, [1.0] * 3)
    rows = [[0.0] * 5 for _ in range(6)]
    rows[1][0], rows[2][0], rows[5][4] = 1.0, complex(math.nan, inf), inf
    _assert_reference_outcomes(rows, 5, [0.0] * 6)


def test_bandwidths_are_measured_from_the_rows():
    assert _bandwidths([]) == ([], 0, 0)
    assert _bandwidths([[0.0, 0.0], [0.0, 0.0]]) == ([2, 2], 0, 0)
    assert _bandwidths([[1.0, 2.0, 0.0], [3.0, 4.0, 5.0], [0.0, 6.0, 7.0]]) == ([0, 0, 1], 1, 1)
    # NaN is nonzero, -0.0 and 0j are zero; an upper triangle has p = 0
    assert _bandwidths([[0.0, math.nan], [-0.0, 0j]]) == ([1, 2], 0, 1)
    assert _bandwidths([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]]) == ([3, 0, 2], 1, 0)


def test_bandwidths_without_firsts_take_a_full_band_from_the_bottom_left_corner():
    # p = m - 1 makes every band as wide as the matrix, so no row is scanned
    rows = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [2.0, 0.0, 0.0]]
    assert _bandwidths(rows) == ([1, 2, 0], 2, 1)
    assert _bandwidths(rows, firsts=False) == (None, 2, 2)
    # otherwise, and when the rows are fewer than their columns, they are scanned
    assert _bandwidths(rows[:2], firsts=False)[1:] == (0, 1)
    assert _bandwidths([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], firsts=False)[1:] == (1, 0)
    assert _bandwidths([], firsts=False)[1:] == (0, 0)


@settings(BAND, max_examples=50)
@given(system=banded_systems(), stop=st.booleans())
def test_the_leading_pivot_pass_equals_the_dense_kernel(system, stop):
    # without row exchanges the fill stays inside the band, NaN and inf included
    rows, n, _ = system
    got = _lu_factor([r[:] for r in rows], n, 0.0, stop=stop, leading=True)
    want = _dense_lu_factor([r[:] for r in rows], n, 0.0, stop=stop, leading=True)
    assert _same(got[:5], want[:5]), (got, want)


def test_the_leading_pivot_pass_ends_at_the_first_pivot_not_positive():
    # the second pivot is 1 - 2 * 2 = -3: the third row is left as it was
    for stop in (False, True):
        rows = [[1.0, 2.0, 0.0], [2.0, 1.0, 5.0], [0.0, 5.0, -1.0]]
        a, _, _, rank, skipped, _ = _lu_factor(rows, 3, 0.0, stop=stop, leading=True)
        assert (rank, skipped, a[2]) == (1, 1, [0.0, 5.0, -1.0])
    for pivot in (-1.0, 0.0, -0.0, math.nan, math.inf, 2j, complex(1.0, 1e-300)):
        assert _lu_factor([[pivot, 1.0], [1.0, 1.0]], 2, 0.0, leading=True)[3:5] == (0, 0)


def test_lu_stops_at_the_first_skipped_column_only_when_asked():
    rows = [[0.0, 1.0], [0.0, 2.0]]
    assert _lu_factor([r[:] for r in rows], 2, 0.0)[3:5] == (1, 0)
    assert _lu_factor([r[:] for r in rows], 2, 0.0, stop=True)[3:5] == (0, 0)


# -- back substitution over U's nonzero pattern ---------------------------------------


@st.composite
def holed_systems(draw):
    """(rows, n, rhs): a square banded matrix with exact zeros, -0.0 and
    complex zeros planted on single entries inside its band, so that U has
    zeros the band does not mark, and a right-hand side that may hold NaN,
    inf or entries whose solution overflows."""
    rows, n, _ = draw(banded_systems().filter(lambda s: len(s[0]) == s[1]))
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = draw(st.sampled_from([0.0, -0.0, 0j, complex(-0.0, 0.0)]))
    rhs = st.one_of(FINITE, st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308]))
    return rows, n, [draw(rhs) for _ in range(n)]


@settings(BAND, max_examples=150)
@given(system=holed_systems())
def test_pattern_solves_with_zeros_inside_the_band_equal_the_dense_kernel(system):
    _assert_reference_outcomes(*system)


def _hessenberg_with_a_dense_row(n, dense, entries):
    """Upper Hessenberg: unit subdiagonal, row `dense` full, the rest zero, so
    most of U is the zeros a band cannot see (companion is dense = 0)."""
    rows = [[1.0 if i == j + 1 else 0.0 for j in range(n)] for i in range(n)]
    rows[dense] = [entries[(dense + j) % len(entries)] for j in range(n)]
    return rows


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_hessenberg_with_one_dense_row_equals_the_dense_kernel(n, where):
    dense = {"first": 0, "middle": n // 2, "last": n - 1}[where]
    for entries in ([1.0, -2.0, 0.5], [0.0, -0.0, 3.0, 1e-300], [2.0**1000, -3.0, 0.0, 1.5j]):
        rows = _hessenberg_with_a_dense_row(n, dense, entries)
        for rhs in ([1.0] * n, [float(k % 3 - 1) for k in range(n)], [math.nan] + [1.0] * (n - 1),
                    [1.0] * (n - 1) + [math.inf], [-1e308] * n):
            _assert_reference_outcomes(rows, n, rhs)


@pytest.mark.parametrize(
    "rhs",
    [[1.0, math.nan, 2.0, 3.0], [math.inf, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, -math.inf],
     [1e308, 1e308, 1e308, 1e308], [1e308, -1e308, 1e308, -1e308], [0.0, -0.0, 0.0, -0.0]],
)
def test_non_finite_and_overflowing_right_hand_sides_equal_the_dense_kernel(rhs):
    # U is the unit upper triangle with -0.0 and 0.0 holes: the pattern solve
    # skips them, and the dense loops take over once a y_k is not finite
    u = [[1.0, -0.0, 4.0, 0.0], [0.0, 1.0, 0.0, 2.0], [0.0, 0.0, 1.0, -0.0], [0.0, 0.0, 0.0, 0.5]]
    _assert_reference_outcomes(u, 4, rhs)
    _assert_reference_outcomes(_hessenberg_with_a_dense_row(4, 0, [2.0, 0.0, -1.0]), 4, rhs)


def test_companion_u_holds_at_most_two_entries_per_row():
    n = 200
    d = materialize(construct("companion", v=[float(k % 7 - 3) for k in range(1, n + 1)], scalar_kind=FLOAT64))
    lu, _, (_, right) = _factor_or_raise(d)
    assert sum(map(len, right)) <= 2 * n
    for i, cols in enumerate(right):  # exactly the nonzeros right of the diagonal
        assert cols == [k for k in range(i + 1, n) if lu[i][k]]
