"""Dense linear-algebra fallbacks and the closed-form dispatch layer.

Every operation prefers a family's registered closed-form routine and falls
back to a generic route. determinant, inverse, eigvals, solve and the three
predicates are each one _first(h, routine, generic) call: it skips a routine
that is not registered and one that declines by answering None, so any
registered routine may decline. A 0x0 determinant is 1 before any route runs.
Determinants, inverses, solves and ranks of the materialized matrix come from
fraction-free integer elimination (Bareiss) in rational64, LU with
thresholded partial pivoting in float64; positive definiteness from one pass
of the same kernel with leading=True, without row exchanges. A closed inverse
X also answers solve, as X b, the ||A^-1||_1 of cond1, and a float64 rank
wherever ||X||_F proves that every LU pivot clears the rank bound. The float
LU works only inside the band it measures from the rows, so it costs
O(n * p * (p + q)) for lower and upper bandwidths p and q. Its triangular
solves skip the zeros of L left of the band and read only the nonzeros of U,
which are recorded row by row after factoring.
Symmetric spectra come from implicit QL (tql1), preceded by Householder
reduction to tridiagonal form (tred1) unless the matrix is tridiagonal
already. Cyclic Jacobi is no route of eigvals; the audit checks correlation
and indefinite with it, and closed spectra with Berkowitz's exact det(xI - A).
"""

from __future__ import annotations

from fractions import Fraction
from cmath import isfinite, isnan
from itertools import accumulate, chain, compress, count
from math import copysign, frexp, fsum, hypot, inf, lcm, ldexp, nan, nextafter, prod, sqrt
from operator import eq, mul
from sys import float_info

from .core import DenseMatrix, MatrixHandle, columns, frobenius_of_dense, materialize
from .errors import (
    ConvergenceError,
    RationalOverflowError,
    SingularMatrixError,
    TmatError,
    UnsupportedOperationError,
)
from .scalars import FLOAT64, RATIONAL64, Rational64, from_exact, one, zero

FLOAT_SINGULAR_RTOL = 1e-13  # pivot below this times ||A||_F is singular
FLOAT_RANK_RTOL = 1e-10  # pivot at or below this times ||A||_F is zero
COND1_DIM_BOUND = 64
_RANK_MARGIN = 2.0**10  # how far a closed inverse must put every pivot above the rank bound
JACOBI_MAX_SWEEPS = 100
JACOBI_RTOL = 1e-14  # converged once the off-diagonal norm is below this times ||A||_F
QL_MAX_ITER = 30  # implicit QL iterations allowed per eigenvalue, as in EISPACK's tql1
_EPS = float_info.epsilon
_TINY = float_info.min  # QL's deflation floor: a subnormal coupling is negligible


def as_dense(obj) -> DenseMatrix:
    if isinstance(obj, DenseMatrix):
        return obj
    if isinstance(obj, MatrixHandle):
        return materialize(obj)
    raise TypeError(f"expected a matrix handle or dense matrix, got {type(obj).__name__}")


def _require_square(h, what: str):
    if h.rows != h.cols:
        raise UnsupportedOperationError(
            f"{what} requires a square matrix, got {h.rows}x{h.cols}"
        )


def _require_length(rhs: list, n: int):
    if len(rhs) != n:
        raise UnsupportedOperationError(f"right-hand side length {len(rhs)} != matrix dimension {n}")


# -- exact elimination: fraction-free Bareiss ------------------------------------


def _integer_scaled(values: list) -> tuple[list[int], int]:
    """(integers, d) with values == integers / d, d the lcm of the denominators."""
    ratios = [v.as_integer_ratio() for v in values]
    d = lcm(*(den for _, den in ratios))
    return [num * (d // den) for num, den in ratios], d


def _bareiss(rows: list[list], ncols: int, *, jordan: bool = False, leading: bool = False):
    """Fraction-free elimination of exact rows (Bareiss 1968).

    Each row is scaled to integers by the lcm of its denominators, which
    leaves the rank and the solutions unchanged. The pivot of each of the
    first ncols columns is its first nonzero entry at or below the current
    row r; columns without one are skipped. leading=True takes no pivot
    below row r, so that without a skip pivot k is the leading principal
    minor of order k + 1 of the scaled matrix. Each row i below r becomes
    (p * a_ik - a_ic * a_rk) / d for k > c, with p the new pivot and d the
    previous one: exact, as every entry is a minor of the scaled matrix.
    jordan=True (solve, inverse) updates the rows above r the same way, so
    once every column has a pivot, row i of a[:, ncols:] is d times row i
    of the solution. Entries in and left of the pivot column are never read
    again, so they are not updated.

    Returns (a, rank, d, det): d is the last pivot and det the determinant of
    the first ncols columns if they are square.
    """
    a = []
    scale = 1
    for row in rows:
        ints, s = _integer_scaled(row)
        scale *= s
        a.append(ints)
    m = len(a)
    sign, d, r = 1, 1, 0
    for c in range(ncols):
        if r == m:
            break
        p = next((i for i in range(r, r + 1 if leading else m) if a[i][c]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        pivot_row = a[r]
        pivot = pivot_row[c]
        tail = pivot_row[c + 1:]
        for row in (a[:r] + a[r + 1:] if jordan else a[r + 1:]):
            f = row[c]
            row[c + 1:] = [(pivot * x - f * y) // d for x, y in zip(row[c + 1:], tail)]
        d = pivot
        r += 1
    det = Fraction(sign * d, scale) if r == m else 0
    return a, r, d, det


def _charpoly(rows: list[list]) -> list[Fraction]:
    """c_0..c_n of det(xI - A) for square exact rows: Berkowitz (1984) on dA, d the lcm of
    the denominators, c_k(A) = c_k(dA) / d^(n-k); p is det(xI - A_r), highest degree first."""
    n = len(rows)
    ints, d = _integer_scaled([v for row in rows for v in row])
    a = [ints[i * n:(i + 1) * n] for i in range(n)]
    p = [1]
    for r in range(n):  # border A_r by column s, row head and a_rr: p times a Toeplitz matrix
        block, head, s = [row[:r] for row in a[:r]], a[r][:r], [row[r] for row in a[:r]]
        powers = accumulate(range(r - 1), lambda v, _: [sum(map(mul, row, v)) for row in block],
                            initial=s)  # s, A_r s, ..., A_r^(r-1) s; at r = 0 an unread 0
        col = [1, -a[r][r]] + [-sum(map(mul, head, v)) for v in powers]
        p = [sum(map(mul, col[i::-1], p)) for i in range(r + 2)]
    return [Fraction(c, d ** k) for k, c in enumerate(p)][::-1]


def _exact_solve(d: DenseMatrix, rhs_rows: list[list], what: str) -> list[list]:
    """X with A X = B, eliminating [A | B]; each entry leaves via from_exact."""
    n = d.rows
    aug = [row + extra for row, extra in zip(d.to_rows(), rhs_rows)]
    a, rank, last, _ = _bareiss(aug, n, jordan=True)
    if rank < n:
        raise SingularMatrixError(f"matrix is exactly singular (rank {rank} < {n})")
    return [[from_exact(RATIONAL64, Fraction(v, last), what) for v in row[n:]] for row in a]


# -- float LU with partial pivoting ----------------------------------------------


def _singular_bound(scale: float) -> float:
    """The exclusive pivot bound of det, solve and inverse:
    a pivot passes when it is nonzero and at least FLOAT_SINGULAR_RTOL * scale."""
    return nextafter(FLOAT_SINGULAR_RTOL * scale, 0.0)


def _bandwidths(rows: list[list], firsts: bool = True):
    """(firsts, p, q) of the nonzero pattern of rows.

    Row i is zero left of column firsts[i] (its length if it is all zero),
    and a_ij == 0 wherever i - j > p or j - i > q. A row with nonzero ends
    costs O(1); any other row is scanned once, by itertools at C speed.
    Without firsts, m >= n rows with a nonzero bottom-left entry are not
    scanned: p = m - 1 makes any band full, q is given as n - 1, firsts None.
    """
    if not firsts and rows and rows[-1] and rows[-1][0] and len(rows) >= len(rows[-1]):
        return None, len(rows) - 1, len(rows[-1]) - 1
    firsts, p, q = [], 0, 0
    for i, row in enumerate(rows):
        nonzero = (0, len(row) - 1) if row and row[0] and row[-1] else list(compress(count(), row))
        if not nonzero:
            firsts.append(len(row))
            continue
        first, last = nonzero[0], nonzero[-1]
        firsts.append(first)
        if i - first > p:
            p = i - first
        if last - i > q:
            q = last - i
    return firsts, p, q


def _lu_factor(rows: list[list], ncols: int, tol: float, *, stop=False, firsts=False, leading=False):
    """In-place LU with partial pivoting of float (or complex) rows, limited
    to their band.

    The pivot of each of the first ncols columns is its largest magnitude at
    or below the current row r, the lowest such row on ties. A column whose
    largest magnitude is not above tol (a NaN never is) is skipped. Each row i
    below r becomes row_i - f * row_r over the columns right of the pivot,
    f = a_ic / pivot being stored in a_ic: once no column was skipped, the
    rows hold L below the diagonal and U on and above it.

    With p and q the lower and upper bandwidths of the rows, column c is zero
    below row c + p, and partial pivoting fills no row beyond column
    c + p + q, also after skipped columns (Golub & Van Loan, Matrix
    Computations, 4th ed., 4.3; LAPACK dgbtrf). The pivot search and the row
    updates stop there: what they leave out is x - f * 0 of a dense kernel.
    A non-finite f makes f * 0 NaN, so from then on the kernel runs dense.

    Returns (lu, perm, sign, rank, skipped, band): lu[i] is input row perm[i],
    sign the parity of the swaps, skipped the first column without a pivot,
    or None, and band = (firsts, p + q), firsts[i] being the first nonzero
    column of input row i (possibly None unless asked for). With stop, the
    elimination ends at the first skipped column, for callers needing full rank.
    leading=True takes no pivot below row r, so no rows are exchanged and
    pivot k is the leading principal minor of order k + 1 over that of order
    k: for a symmetric matrix, the squared diagonal of Cholesky's factor. It
    ends at the first pivot that is not a positive finite real, as skipped.
    """
    a = rows
    m = len(a)
    firsts, p, q = _bandwidths(a, firsts)
    perm = list(range(m))
    sign, r, skipped = 1, 0, None
    for c in range(ncols):
        if r == m:
            break
        below = min(m, c + p + 1)
        best, best_mag = r, abs(a[r][c])
        for i in range(r + 1, r + 1 if leading else below):
            mag = abs(a[i][c])
            if mag > best_mag:
                best, best_mag = i, mag
        pivot = a[best][c]
        if not best_mag > tol or leading and (pivot.imag or not 0 < pivot.real < inf):
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
        right = min(ncols, c + p + q + 1)
        for row in a[r + 1:below]:
            if row[c] == 0:
                continue
            f = row[c] / pivot
            row[c] = f
            if f - f:  # f is inf or NaN, so f * 0 is NaN: no entry is known zero from here on
                p, q, right = m, ncols, ncols
            for k in range(c + 1, right):
                row[k] = row[k] - f * pivot_row[k]
        r += 1
    return a, perm, sign, r, skipped, (firsts, p + q)


def det_dense(d: DenseMatrix):
    """Determinant of a dense square matrix: Bareiss in rational64, else pivoted LU."""
    _require_square(d, "determinant")
    n = d.rows
    if d.scalar_kind == RATIONAL64:
        return from_exact(RATIONAL64, _bareiss(d.to_rows(), n)[3], "determinant")
    tol = _singular_bound(frobenius_of_dense(d))
    lu, _, sign, rank, _, _ = _lu_factor(d.to_rows(), n, tol, stop=True)
    if rank < n:
        return 0.0
    det = prod((lu[i][i] for i in range(n)), start=1.0)
    return -det if sign < 0 else det


def _substitute(lu, y, starts, right, top=0):
    """Solve L U x = y in place: forward over rows top.. of L, each from column
    max(starts[i], top), then back over the columns right[i] of row i of U."""
    n = len(lu)
    for i in range(top, n):
        row = lu[i]
        acc = y[i]
        for k in range(max(starts[i], top), i):
            acc = acc - row[k] * y[k]
        y[i] = acc
    for i in range(n - 1, -1, -1):
        row = lu[i]
        acc = y[i]
        for k in right[i]:
            acc = acc - row[k] * y[k]
        y[i] = acc / row[i]
    return y


def _lu_solve_one(lu, perm, band, b, top=0):
    """x with A x = b from _factor_or_raise's output, b[perm[i]] being zero
    for i < top.

    band = (starts, right): the forward loops skip the zeros of L left of
    starts and the entries of L that meet the zeros of y above row top, the
    back loops read only the columns right[i] where row i of U is nonzero.
    The terms left out are 0 * y_k, so while every y_k is finite the result
    is that of the dense loops. Otherwise the dense loops run, as their
    0 * inf terms give NaN.
    """
    y = _substitute(lu, [b[k] for k in perm], *band, top)
    if not all(map(isfinite, y)):
        n = len(lu)
        y = _substitute(lu, [b[k] for k in perm], [0] * n, [range(i + 1, n) for i in range(n)])
    return y


def _factor_or_raise(d: DenseMatrix):
    frob = frobenius_of_dense(d)
    lu, perm, _, _, skipped, (firsts, width) = _lu_factor(
        d.to_rows(), d.cols, _singular_bound(frob), stop=True, firsts=True
    )
    if skipped is not None:
        raise SingularMatrixError(
            f"matrix is singular to working precision (no pivot in column {skipped + 1} "
            f"above {FLOAT_SINGULAR_RTOL:g} * ||A||_F = {FLOAT_SINGULAR_RTOL * frob:.1e})"
        )
    # row i of L is zero left of the first nonzero of input row perm[i], as a
    # multiplier is only stored where the row was nonzero; row i of U is zero
    # right of column i + width, and its nonzeros up to there are listed
    n = len(lu)
    right = [list(compress(range(i + 1, n), row[i + 1:i + width + 1])) for i, row in enumerate(lu)]
    return lu, perm, ([firsts[k] for k in perm], right)


def solve_dense(d: DenseMatrix, rhs: list) -> list:
    _require_square(d, "solve")
    _require_length(rhs, d.rows)
    if d.scalar_kind == RATIONAL64:
        return [x for (x,) in _exact_solve(d, [[v] for v in rhs], "solve")]
    lu, perm, band = _factor_or_raise(d)
    return _lu_solve_one(lu, perm, band, rhs)


def inverse_dense(d: DenseMatrix) -> DenseMatrix:
    _require_square(d, "inverse")
    n = d.rows
    if d.scalar_kind == RATIONAL64:
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        return DenseMatrix.from_rows(_exact_solve(d, identity, "inverse"), RATIONAL64)
    lu, perm, band = _factor_or_raise(d)
    data = []
    for j in range(n):
        e = [0.0] * n
        e[j] = 1.0
        data.extend(_lu_solve_one(lu, perm, band, e, perm.index(j)))
    return DenseMatrix(n, n, data, d.scalar_kind)


def rank_dense(d: DenseMatrix) -> int:
    """Rank: exact by Bareiss in rational64; in float64 by the pivoted LU, pivots
    at most 1e-10 * ||A||_F, capped at the largest float as for det, being zero."""
    rows = d.to_rows()
    if d.scalar_kind == RATIONAL64:
        return _bareiss(rows, d.cols)[1]
    tol = min(FLOAT_RANK_RTOL * frobenius_of_dense(d), float_info.max)  # a NaN bound stays
    return _lu_factor(rows, d.cols, tol)[3]


# -- symmetric spectra: Householder (tred1), implicit QL (tql1), Jacobi oracle --


def _scaled_spectrum(parts: list[list], solve) -> list[float]:
    """Sorted solve(parts / 2**e), scaled back by 2**e.

    e is the binary exponent of the largest magnitude in parts, so no square
    in solve overflows. Both scalings are exact within the normal float range,
    and an eigenvalue beyond it comes back infinite. A non-finite entry raises
    ConvergenceError before solve runs.
    """
    if not all(map(isfinite, chain.from_iterable(parts))):
        raise ConvergenceError("symmetric eigensolvers need finite entries")
    e = frexp(max(abs(float(v)) for part in parts for v in part))[1]
    scaled = [[ldexp(float(v), -e) for v in part] for part in parts]
    return sorted(ldexp(v, e) if frexp(v)[1] + e <= 1024 else v * inf for v in solve(scaled))


def jacobi_eigvals(rows: list[list[float]]) -> list[float]:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations, sorted.

    Converges when the off-diagonal Frobenius norm drops below
    JACOBI_RTOL * ||A||_F; raises ConvergenceError on a non-finite entry
    (order >= 2) or after JACOBI_MAX_SWEEPS. The rotations run on the scaled
    matrix of _scaled_spectrum. No eigvals route uses it: it is the oracle.
    """
    n = len(rows)
    if n == 0:
        return []
    if n == 1:
        return [rows[0][0]]
    return _scaled_spectrum(rows, _jacobi_sweeps)


def _jacobi_sweeps(a: list[list[float]]) -> list[float]:
    n = len(a)
    frob = sqrt(fsum(v * v for row in a for v in row))
    thresh = JACOBI_RTOL * frob

    def off_norm():
        return sqrt(fsum(a[p][q] ** 2 for p in range(n) for q in range(n) if p != q))

    for _ in range(JACOBI_MAX_SWEEPS):
        if off_norm() <= thresh:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                if theta >= 0:
                    t = 1.0 / (theta + hypot(theta, 1.0))
                else:
                    t = -1.0 / (-theta + hypot(theta, 1.0))
                c = 1.0 / sqrt(t * t + 1.0)
                s = t * c
                for k in range(n):
                    akp, akq = a[k][p], a[k][q]
                    a[k][p] = c * akp - s * akq
                    a[k][q] = s * akp + c * akq
                for k in range(n):
                    apk, aqk = a[p][k], a[q][k]
                    a[p][k] = c * apk - s * aqk
                    a[q][k] = s * apk + c * aqk
    else:
        if not off_norm() <= thresh:
            raise ConvergenceError("Jacobi eigensolver did not converge within the sweep limit")
    return [a[i][i] for i in range(n)]


def _tridiagonalize(a: list[list[float]]) -> tuple[list[float], list[float]]:
    """Diagonal and sub-diagonal of a tridiagonal matrix similar to the
    symmetric a of order >= 2, by Householder reflections (tred1: Martin,
    Reinsch & Wilkinson 1968). Reads and updates the lower triangle only."""
    n = len(a)
    a = [row[: j + 1] for j, row in enumerate(a)]
    sub = [0.0] * (n - 1)
    for i in range(n - 1, 1, -1):
        row = a[i]
        scale = sum(map(abs, row[:i]))
        if scale == 0.0:  # row i is already reduced
            continue
        u = [v / scale for v in row[:i]]
        f = u[-1]
        h = sum(map(mul, u, u))
        g = -copysign(sqrt(h), f)
        sub[i - 1] = scale * g
        h -= f * g  # u'u / 2 once u[-1] = f - g
        u[-1] = f - g
        p = [0.0] * i  # p = A u / h, A read from its lower triangle
        for j, aj in enumerate(a[:i]):
            uj = u[j]
            p[:j] = [pk + uj * x for pk, x in zip(p, aj[:j])]
            p[j] = sum(map(mul, aj, u))
        p = [v / h for v in p]
        k = sum(map(mul, u, p)) / (2.0 * h)
        q = [pj - k * uj for pj, uj in zip(p, u)]
        for j in range(i):  # A -= u q' + q u'
            uj, qj = u[j], q[j]
            a[j] = [x - uj * qk - qj * uk for x, qk, uk in zip(a[j], q, u)]
    sub[0] = a[1][0]
    return [row[j] for j, row in enumerate(a)], sub


def ql_eigvals(diag: list[float], sub: list[float]) -> list[float]:
    """Eigenvalues of the symmetric tridiagonal matrix with diagonal diag and
    sub-diagonal sub, sorted, by implicit QL with Wilkinson shifts (tql1:
    Bowdler, Martin, Reinsch & Wilkinson 1968) on the scaled matrix of
    _scaled_spectrum.

    Raises ConvergenceError on a non-finite entry, or when one eigenvalue
    takes more than QL_MAX_ITER iterations.
    """
    if len(diag) < 2:
        return list(diag)
    return _scaled_spectrum([diag, sub], _implicit_ql)


def _implicit_ql(parts: list[list[float]]) -> list[float]:
    d, e = parts
    n = len(d)
    e.append(0.0)  # e[i] couples d[i] and d[i + 1]
    for l in range(n):
        for iteration in range(QL_MAX_ITER + 1):
            # the first negligible e[m] at or after l closes the block l..m
            m = l
            while m < n - 1 and abs(e[m]) > _EPS * (abs(d[m]) + abs(d[m + 1])) + _TINY:
                m += 1
            if m == l:
                break
            if iteration == QL_MAX_ITER:
                raise ConvergenceError(
                    f"implicit QL did not converge within {QL_MAX_ITER} iterations"
                )
            # shift by the eigenvalue of the leading 2x2 block nearer d[l]
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):  # chase the bulge up with plane rotations
                f = s * e[i]
                b = c * e[i]
                r = hypot(f, g)
                e[i + 1] = r
                if r == 0.0:  # underflow: the block splits at i + 1
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return d


# -- dense scans (also the slow side of the lazy-vs-dense benchmarks) ----------


def dense_is_symmetric(d: DenseMatrix) -> bool:
    """Column j below the diagonal equals row j right of it, for every j.

    The slices are compared by ==, never by list comparison: that tests
    identity first, so it would find a NaN object equal to itself.
    """
    if d.rows != d.cols:
        return False
    n, data = d.rows, d.data
    return all(
        all(map(eq, data[j * n + j + 1:(j + 1) * n], data[(j + 1) * n + j::n])) for j in range(n)
    )


def dense_is_posdef(d: DenseMatrix) -> bool:
    """Symmetric with every leading principal minor positive (Sylvester): one
    pass of the kind's elimination kernel without row exchanges, leading=True,
    and every pivot positive and finite."""
    if not dense_is_symmetric(d):
        return False
    if d.scalar_kind == RATIONAL64:
        a, rank, _, _ = _bareiss(d.to_rows(), d.cols, leading=True)
    else:
        a, _, _, rank, _, _ = _lu_factor(d.to_rows(), d.cols, 0.0, stop=True, leading=True)
    return rank == d.rows and all(0 < a[k][k] < inf for k in range(rank))


def dense_is_diagonal(d: DenseMatrix) -> bool:
    """Every entry off the diagonal is zero (falsy; a NaN is not)."""
    m, data = d.rows, d.data
    return not any(
        any(data[j * m:j * m + min(j, m)]) or any(data[j * m + j + 1:(j + 1) * m])
        for j in range(d.cols)
    )


def _sum(kind, entries, what):
    """Sum of entries() in kind. rational64 sums numerators per denominator,
    so only the total must fit in 64 bits. float64 is fsum; where it raises
    (inf + -inf, or finite partial sums beyond range) finite entries are
    summed exactly and rounded once, others by the plain float sum."""
    if kind != RATIONAL64:
        try:
            return fsum(entries())
        except (OverflowError, ValueError):
            if all(map(isfinite, entries())):
                return from_exact(FLOAT64, sum(map(Fraction, entries())), what)
            return sum(entries())
    by_den: dict = {}
    for v in entries():
        num, den = v.as_integer_ratio()
        by_den[den] = by_den.get(den, 0) + num
    total = sum((Fraction(num, den) for den, num in by_den.items()), Fraction(0))
    return from_exact(RATIONAL64, total, what)


def dense_sum(d: DenseMatrix):
    """Sum of all entries of a dense matrix, reduced as entry_sum reduces."""
    return _sum(d.scalar_kind, lambda: d.data, "dense_sum")


def _float_twin(h: MatrixHandle) -> MatrixHandle:
    """The same matrix with float64 scalars (parameters re-coerced)."""
    if h.scalar_kind == FLOAT64:
        return h
    from .families import construct

    return construct(h.family, dict(h.params), scalar_kind=FLOAT64)


def _float_rows(h: MatrixHandle) -> list[list[float]]:
    """Materialize as float64 rows regardless of the handle's scalar kind."""
    return materialize(_float_twin(h)).to_rows()


# -- dispatched public operations ----------------------------------------------


def _first(h: MatrixHandle, *routes):
    """The first answer other than None of route(h), the routes tried in order;
    a route that is None (no routine registered) is skipped. None if every route
    declines: a registered routine may always decline, the generic route never does."""
    for route in routes:
        if route is not None:
            answer = route(h)
            if answer is not None:
                return answer
    return None


def determinant(h: MatrixHandle):
    """1 at order 0; else the closed-form determinant unless it declines, else pivoted LU."""
    _require_square(h, "determinant")
    if h.rows == 0:
        return one(h.scalar_kind)
    return _first(h, h.record.det_fn, lambda g: det_dense(materialize(g)))


def inverse(h: MatrixHandle):
    """Closed-form inverse (lazy handle or structured dense) when registered,
    else dense LU inverse. Raises SingularMatrixError on singular input."""
    _require_square(h, "inverse")
    return _first(h, h.record.inverse_fn, lambda g: inverse_dense(materialize(g)))


def _closed_inverse(h: MatrixHandle):
    """The family's closed inverse of h, or None: none registered, or it declines."""
    return _first(h, h.record.inverse_fn)


def eigvals(h: MatrixHandle):
    """Sorted spectrum: closed form unless it declines; otherwise the matrix must
    be symmetric, and its float rows go to implicit QL, through Householder
    tridiagonalization when they are not tridiagonal already."""
    _require_square(h, "eigvals")
    return _first(h, h.record.eigvals_fn, _symmetric_eigvals)


def _symmetric_eigvals(h: MatrixHandle) -> list[float]:
    if not is_symmetric(h):
        raise UnsupportedOperationError(
            f"eigvals of '{h.family}' has no closed form and the matrix is not "
            "symmetric; the generic eigensolver handles symmetric matrices only"
        )
    rows = _float_rows(h)
    if _bandwidths(rows, firsts=False)[1] <= 1:  # symmetric, so tridiagonal
        diag = [row[i] for i, row in enumerate(rows)]
        return ql_eigvals(diag, [rows[i + 1][i] for i in range(len(rows) - 1)])
    return _scaled_spectrum(rows, lambda a: _implicit_ql(_tridiagonalize(a)))


def _entries(h: MatrixHandle):
    return chain.from_iterable(values for _, _, values in columns(h))


def entry_sum(h: MatrixHandle):
    """Sum of all entries, streamed over the column bands in the handle's kind
    (see _sum: exact per denominator in rational64, fsum in float64)."""
    return _sum(h.scalar_kind, lambda: _entries(h), "entry_sum")


def frobenius_norm(h: MatrixHandle) -> float:
    """sqrt of the sum of squared entries, streamed over the column bands:
    hypot of the columns' hypots, as frobenius_of_dense reduces. No square is
    formed, so nothing overflows and a norm beyond the float range is inf.
    """
    return hypot(*(hypot(*map(float, values)) for _, _, values in columns(h)))


def _predicate(h: MatrixHandle, name: str):
    return _first(h, h.record.predicates.get(name))


def _band_symmetric(h: MatrixHandle) -> bool:
    """a_ij == a_ji everywhere, in one pass over the column bands.

    In-band entries below the diagonal are kept by row as their columns pass.
    At column j each in-band a_ij above the diagonal must equal the kept a_ji
    (zero if none was kept), and every kept a_ji left unmatched must be zero.
    """
    below = [{} for _ in range(h.rows + 1)]
    for j, first, values in columns(h):
        stored = below[j]
        below[j] = None
        for i, v in enumerate(values, first):
            if i < j:
                if v != stored.pop(i, 0):
                    return False
            elif i > j:
                below[i][j] = v
        if any(stored.values()):
            return False
    return True


def _band_diagonal(h: MatrixHandle) -> bool:
    return not any(
        v for j, first, values in columns(h) for i, v in enumerate(values, first) if i != j
    )


def _scan(h: MatrixHandle, check) -> bool:
    """check(h), or check on the float64 twin when an entry overflows rational64."""
    try:
        return check(h)
    except RationalOverflowError:
        return check(_float_twin(h))


def _scan_symmetric(h: MatrixHandle) -> bool:
    return h.rows == h.cols and _scan(h, _band_symmetric)


def _scan_diagonal(h: MatrixHandle) -> bool:
    return _scan(h, _band_diagonal)


def _scan_posdef(h: MatrixHandle) -> bool:
    return is_symmetric(h) and _scan(h, lambda g: dense_is_posdef(materialize(g)))


def is_symmetric(h: MatrixHandle) -> bool:
    return _first(h, h.record.predicates.get("symmetric"), _scan_symmetric)


def is_diagonal(h: MatrixHandle) -> bool:
    return _first(h, h.record.predicates.get("diagonal"), _scan_diagonal)


def is_posdef(h: MatrixHandle) -> bool:
    return _first(h, h.record.predicates.get("posdef"), _scan_posdef)


def solve(h: MatrixHandle, rhs: list) -> list:
    """x with A x = rhs: X rhs for a family's closed inverse X, else Bareiss
    (exact) in rational64 or LU in float64. X rhs is exact in rational64 and
    forward but not backward stable in float64 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 14.1)."""
    _require_square(h, "solve")
    _require_length(rhs, h.rows)
    if h.scalar_kind == RATIONAL64:
        rhs = [Rational64.from_number(v) if not isinstance(v, Rational64) else v for v in rhs]
    else:
        rhs = [float(v) for v in rhs]
    return _first(h, lambda g: _closed_solve(g, rhs), lambda g: solve_dense(materialize(g), rhs))


def _closed_solve(h: MatrixHandle, b: list):
    """X b from the rows of the closed inverse X (rational rows scaled to
    integers, as in matmul_dense), or None: no X, an X that overflows, or in
    float64 a non-finite x or a zero row of X, which no inverse has (forsythe
    at alpha = +-inf loses its corner 1/alpha)."""
    n = h.rows
    try:
        inv = _closed_inverse(h)
        if inv is None:
            return None
        data = as_dense(inv).data
        if h.scalar_kind != RATIONAL64:
            rows = [data[i::n] for i in range(n)]
            x = [sum(map(mul, row, b)) for row in rows]
            return x if all(map(any, rows)) and all(map(isfinite, x)) else None
        scaled, db = _integer_scaled(b)
        return [from_exact(RATIONAL64, Fraction(sum(map(mul, row, scaled)), dr * db), "solve")
                for row, dr in (_integer_scaled(data[i::n]) for i in range(n))]
    except OverflowError:  # a rational64 X or X b beyond the 64-bit range
        return None


def rank(h: MatrixHandle) -> int:
    """rank_dense of the materialized matrix, but n for a square float64 one whose closed
    inverse X gives 0 < a x and a x sqrt(n) M FLOAT_RANK_RTOL <= 1 (a = ||A||_F, x = ||X||_F,
    M = _RANK_MARGIN). With partial pivoting each Schur complement S_k has as inverse a
    trailing block of (PA)^-1, so sigma_min(S_k) >= 1/x, and its pivot, the largest entry
    of its first column, is at least 1/(x sqrt(n)) (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., ch. 9; Golub & Van Loan, 4th ed., 3.4): M times LU's
    zero bound FLOAT_RANK_RTOL * a, M covering the rounding of X, of the norms and of LU.
    x grows by columns; the first that fails the test (a NaN does) ends the certificate."""
    d = materialize(h)
    if h.scalar_kind == FLOAT64 and d.rows == d.cols and _certifies_full_rank(h, d):
        return d.rows
    return rank_dense(d)


def _certifies_full_rank(h: MatrixHandle, d: DenseMatrix) -> bool:
    try:
        inv = _closed_inverse(h)
    except TmatError:  # kms at rho^2 = 1, pei at alpha in {0, -n}: LU decides
        return False
    n, a, x = d.rows, frobenius_of_dense(d), 0.0
    if isinstance(inv, MatrixHandle):
        cols = (values for _, _, values in columns(inv))
    else:  # no X leaves x = 0, which fails the test
        cols = () if inv is None else (inv.data[j * n:(j + 1) * n] for j in range(n))
    for col in cols:
        x = hypot(x, hypot(*col))
        if not a * x * sqrt(n) * _RANK_MARGIN * FLOAT_RANK_RTOL <= 1:
            return False
    return 0 < a * x


def cond1(h: MatrixHandle) -> float:
    """1-norm condition number ||A||_1 ||A^-1||_1 of the float64 twin, ||A^-1||_1
    from its closed inverse in O(n^2) where that norm is positive and finite,
    else from the LU inverse, which is for desk-scale diagnostics: refused past
    COND1_DIM_BOUND before anything is materialized. A singular matrix yields
    +inf, or NaN where ||A||_1 is NaN, as a NaN entry makes it.
    """
    _require_square(h, "cond1")
    n = h.rows
    if n == 0:
        return 0.0
    twin = _float_twin(h)
    dense = None
    try:
        inv = _closed_inverse(twin)
        norm_inv = inf if inv is None else _norm1(as_dense(inv))
        if not 0 < norm_inv < inf:  # lost entries (see _closed_solve), or NaN
            if n > COND1_DIM_BOUND:
                raise UnsupportedOperationError(f"cond1 is limited to dimension <= {COND1_DIM_BOUND}, got {n}")
            dense = materialize(twin)
            norm_inv = _norm1(inverse_dense(dense))
    except SingularMatrixError:
        norm_inv = inf
    norm = _norm1(materialize(twin) if dense is None else dense)
    return norm * norm_inv if norm else inf  # the zero matrix is singular: not 0 * inf


def _norm1(d: DenseMatrix) -> float:
    """Largest column sum of magnitudes, each reduced as _sum reduces: fsum,
    correctly rounded, and inf for a sum beyond the float range; NaN if a sum is."""
    m, data = d.rows, d.data
    cols = [data[j * m:(j + 1) * m] for j in range(d.cols)]
    sums = [_sum(FLOAT64, lambda c=c: map(abs, c), "cond1") for c in cols]
    return nan if any(map(isnan, sums)) else max(sums, default=0.0)


def spectral_moduli(h: MatrixHandle, rel_tol: float = 1e-9) -> list[tuple[float, int]]:
    """Spectrum grouped by modulus: sorted (modulus, multiplicity) pairs."""
    vals = eigvals(h)
    moduli = sorted(abs(v) for v in vals)
    groups: list[list[float]] = []
    for m in moduli:
        if groups and abs(m - groups[-1][-1]) <= rel_tol * max(1.0, abs(m)):
            groups[-1].append(m)
        else:
            groups.append([m])
    return [(sum(g) / len(g), len(g)) for g in groups]


# -- small dense helpers shared with the audit engine ---------------------------


def matmul_dense(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """a*b. In rational64 every entry is one dot product of integers (a row of
    a and a column of b scaled by their lcm denominators), range-checked once."""
    if a.cols != b.rows:
        raise UnsupportedOperationError(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}"
        )
    kind = a.scalar_kind
    if kind == RATIONAL64 and b.scalar_kind == RATIONAL64:
        rows = [_integer_scaled(row) for row in a.to_rows()]
        cols = [_integer_scaled(b.data[j * b.rows:(j + 1) * b.rows]) for j in range(b.cols)]
        data = [from_exact(RATIONAL64, Fraction(sum(map(mul, r, c)), dr * dc), "matmul")
                for c, dc in cols for r, dr in rows]
        return DenseMatrix(a.rows, b.cols, data, kind)
    ar = a.to_rows()
    br = b.to_rows()
    out_rows = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = zero(kind) if kind in (RATIONAL64, FLOAT64) else 0.0
            for k in range(a.cols):
                acc = acc + ar[i][k] * br[k][j]
            row.append(acc)
        out_rows.append(row)
    if not out_rows:
        return DenseMatrix(a.rows, b.cols, [], kind)
    return DenseMatrix.from_rows(out_rows, kind)


def max_abs_identity_residual(d: DenseMatrix) -> float:
    """max |d_ij - delta_ij| as float; NaN if a difference is NaN, so no tolerance passes it."""
    m = d.rows
    diffs = [abs(float(v) - (k % m == k // m)) for k, v in enumerate(d.data)]
    return nan if any(map(isnan, diffs)) else max(diffs, default=0.0)


def is_exact_identity(d: DenseMatrix) -> bool:
    return all(
        d.get(i, j) == (1 if i == j else 0)
        for j in range(1, d.cols + 1)
        for i in range(1, d.rows + 1)
    )
