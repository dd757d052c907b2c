"""Reference answers that do not come from the library under test.

Entries follow the published definitions of the matrix families (Higham's
Test Matrix Toolbox and the MATLAB gallery); exact answers come from Fraction
elimination at small n, from known closed values (det(pascal) = det(triw) = 1,
rank(hilbert n) = n, superfactorial Hilbert determinants, the Cauchy
determinant), and from three-term recurrences for tridiagonal matrices.
Float answers are checked by residuals. Nothing here imports `tmat`.

An outcome is one of three:

- ok: the value matches the reference;
- refused: a TmatError, where the exact answer really does not fit the scalar
  kind (beyond signed 64 bits for rational64, beyond the float64 range); an
  overflow refusal must suggest float64;
- failed: a wrong value, an exception that is not a TmatError, or a refusal
  although the answer fits.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb, fsum, sqrt

OK, REFUSED, FAILED = "ok", "refused", "failed"
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
FLOAT_MAX = 1.7976931348623157e308
FLOAT_TINY = 1e-300

# Literature defaults of the parametrized families (construct() is always
# called with these passed explicitly, so the reference knows them).
DEFAULTS = {
    "pei": {"alpha": 1},
    "kms": {"rho": 0.5},
    "moler": {"alpha": -1},
    "forsythe": {"alpha": 1e-10, "lambda": 0},
    "jordbloc": {"lambda": 1},
    "grcar": {"k": 3},
    "clement": {"symmetric": False},
}

# Families whose default instance is symmetric at every size.
SYMMETRIC = frozenset(
    "hilbert inversehilbert cauchy minij lehmer pei pascal kms moler wilkinson poisson".split()
)


def frac(v) -> Fraction:
    """Exact Fraction view of a library scalar (Rational64, int or float)."""
    if isinstance(v, Fraction):
        return v
    if hasattr(v, "as_fraction"):
        return v.as_fraction()
    if isinstance(v, (int, float)):
        return Fraction(v)
    raise TypeError(f"not a real scalar: {v!r}")


def fits_rational64(v: Fraction) -> bool:
    return INT64_MIN <= v.numerator <= INT64_MAX and v.denominator <= INT64_MAX


def fits_float64(v: Fraction) -> bool:
    return abs(v) <= FLOAT_MAX


def params_for(family: str, n: int, **given) -> dict:
    """Constructor parameters for a square instance with every default explicit."""
    params = dict(DEFAULTS.get(family, {}))
    params.update(given)
    if family == "poisson":
        params["n"] = n  # grid size; the matrix is n^2 x n^2
    elif family == "cauchy":
        params.setdefault("x", tuple(range(1, n + 1)))
    elif family == "companion":
        params.setdefault("v", (1,) * n)
    elif family == "triw":
        params.setdefault("alpha", -1)
        params.setdefault("k", max(n - 1, 0))
        params["n"] = n
    else:
        params["n"] = n
    return params


def order(family: str, params: dict) -> int:
    if family == "poisson":
        return params["n"] ** 2
    if family == "cauchy":
        return len(params["x"])
    if family == "companion":
        return len(params["v"])
    return params["n"]


def entry_fn(family: str, params: dict):
    """(i, j) -> exact entry (1-based) from the published definition."""
    n = order(family, params)
    F = Fraction
    if family == "hilbert":
        return lambda i, j: F(1, i + j - 1)
    if family == "inversehilbert":
        return lambda i, j: F(
            (-1) ** (i + j) * (i + j - 1) * comb(n + i - 1, n - j) * comb(n + j - 1, n - i)
            * comb(i + j - 2, i - 1) ** 2
        )
    if family == "cauchy":
        x = [F(v) for v in params["x"]]
        y = [F(v) for v in params.get("y", params["x"])]
        return lambda i, j: 1 / (x[i - 1] + y[j - 1])
    if family == "minij":
        return lambda i, j: F(min(i, j))
    if family == "clement":
        if params["symmetric"]:
            raise ValueError("the symmetric clement variant has irrational entries")
        return lambda i, j: F(i if j == i + 1 else n - j if i == j + 1 else 0)
    if family == "lehmer":
        return lambda i, j: F(min(i, j), max(i, j))
    if family == "pei":
        a = F(params["alpha"])
        return lambda i, j: a + 1 if i == j else F(1)
    if family == "pascal":
        return lambda i, j: F(comb(i + j - 2, i - 1))
    if family == "kms":
        rho = F(params["rho"])
        return lambda i, j: rho ** abs(i - j)
    if family == "moler":
        a = F(params["alpha"])
        return lambda i, j: 1 + (i - 1) * a * a if i == j else a + (min(i, j) - 1) * a * a
    if family == "forsythe":
        lam, alpha = F(params["lambda"]), F(params["alpha"])

        def forsythe(i, j):
            value = F(0)
            if i == j:
                value += lam
            if j == i + 1:
                value += 1
            if i == n and j == 1:
                value += alpha
            return value

        return forsythe
    if family == "jordbloc":
        lam = F(params["lambda"])
        return lambda i, j: lam if i == j else F(1) if j == i + 1 else F(0)
    if family == "frank":
        return lambda i, j: F(n + 1 - max(i, j)) if j >= i - 1 else F(0)
    if family == "lotkin":
        return lambda i, j: F(1) if i == 1 else F(1, i + j - 1)
    if family == "grcar":
        k = params["k"]
        return lambda i, j: F(-1) if i == j + 1 else F(1) if i <= j <= i + k else F(0)
    if family == "wilkinson":
        return lambda i, j: F(abs(2 * i - n - 1), 2) if i == j else F(1) if abs(i - j) == 1 else F(0)
    if family == "poisson":
        poisson = _poisson_entry(params["n"])
        return lambda i, j: F(poisson(i, j))
    if family == "companion":
        v = [F(c) for c in params["v"]]
        return lambda i, j: -v[j - 1] if i == n else F(1) if j == i + 1 else F(0)
    if family == "triw":
        a, k = F(params["alpha"]), params["k"]
        return lambda i, j: F(1) if i == j else a if i < j <= i + k else F(0)
    raise KeyError(f"no reference for family {family!r}")


def _poisson_entry(g):
    """Integer entries of I (x) T + T (x) I, T = tridiag(-1, 2, -1) of order g."""

    def poisson(i, j):
        (bi, ri), (bj, rj) = divmod(i - 1, g), divmod(j - 1, g)
        t = 0
        if bi == bj:
            t += 2 if ri == rj else -1 if abs(ri - rj) == 1 else 0
        if ri == rj:
            t += 2 if bi == bj else -1 if abs(bi - bj) == 1 else 0
        return t

    return poisson


def float_entry_fn(family: str, params: dict):
    """(i, j) -> correctly rounded float64 entry.

    Float formulas for the families whose entries are quotients of small
    integers (one correctly rounded division); the rest go through Fraction.
    """
    n = order(family, params)
    if family in ("hilbert", "lotkin"):
        first_row_ones = family == "lotkin"
        return lambda i, j: 1.0 if first_row_ones and i == 1 else 1 / (i + j - 1)
    if family == "cauchy" and all(isinstance(v, int) for v in params["x"]) and "y" not in params:
        x = params["x"]
        return lambda i, j: 1 / (x[i - 1] + x[j - 1])
    if family == "minij":
        return lambda i, j: float(min(i, j))
    if family == "lehmer":
        return lambda i, j: min(i, j) / max(i, j)
    if family == "wilkinson":
        return lambda i, j: abs(2 * i - n - 1) / 2 if i == j else 1.0 if abs(i - j) == 1 else 0.0
    if family == "clement" and params["symmetric"]:
        return lambda i, j: sqrt(i * (n - i)) if j == i + 1 else sqrt(j * (n - j)) if i == j + 1 else 0.0
    if family == "frank":
        return lambda i, j: float(n + 1 - max(i, j)) if j >= i - 1 else 0.0
    if family == "pascal":
        return lambda i, j: float(comb(i + j - 2, i - 1))
    if family == "poisson":
        poisson = _poisson_entry(params["n"])
        return lambda i, j: float(poisson(i, j))
    if family == "kms":
        rho = Fraction(params["rho"])
        powers = [float(rho**k) for k in range(n)]
        return lambda i, j: powers[abs(i - j)]
    if family == "grcar":
        k = params["k"]
        return lambda i, j: -1.0 if i == j + 1 else 1.0 if i <= j <= i + k else 0.0
    if family == "clement":
        return lambda i, j: float(i) if j == i + 1 else float(n - j) if i == j + 1 else 0.0
    exact = entry_fn(family, params)
    if family in ("jordbloc", "forsythe", "companion", "triw"):
        # zero outside the diagonal, the superdiagonals, the last row and the (n, 1) corner
        k = params.get("k", 1)
        return lambda i, j: float(exact(i, j)) if i <= j <= i + k or i == n else 0.0
    if family in ("pei", "moler"):
        diagonal = [float(exact(i, i)) for i in range(1, n + 1)]
        off = [0.0] + [float(exact(m, m + 1)) for m in range(1, n)]  # depends on min(i, j)
        return lambda i, j: diagonal[i - 1] if i == j else off[min(i, j)]
    return lambda i, j: float(exact(i, j))


def rows_exact(family: str, params: dict) -> list[list[Fraction]]:
    n = order(family, params)
    e = entry_fn(family, params)
    return [[e(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]


# -- exact linear algebra ------------------------------------------------------


def _eliminate(rows, rhs_cols=0):
    """Gauss-Jordan on Fractions. Returns (reduced rows, det, rank)."""
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) - rhs_cols if a else 0
    det, r = Fraction(1), 0
    for c in range(n):
        p = next((i for i in range(r, m) if a[i][c] != 0), None)
        if p is None:
            det = Fraction(0)
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            det = -det
        pivot = a[r][c]
        det *= pivot
        inv = 1 / pivot
        a[r] = [v * inv for v in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [vi - f * vr for vi, vr in zip(a[i], a[r])]
        r += 1
    return a, det, r


def superfactorial(n):
    p, f = 1, 1
    for k in range(1, n):
        f *= k
        p *= f
    return p


def _hilbert_det(n) -> Fraction:
    return Fraction(superfactorial(n) ** 4, superfactorial(2 * n))


def _tridiagonal_det(e, n) -> Fraction:
    prev, cur = Fraction(1), e(1, 1)
    for k in range(2, n + 1):
        prev, cur = cur, e(k, k) * cur - e(k, k - 1) * e(k - 1, k) * prev
    return cur if n else Fraction(1)


def exact_det(family: str, params: dict) -> Fraction:
    n = order(family, params)
    if n == 0:
        return Fraction(1)
    if n <= 10 and not (family == "clement" and params["symmetric"]):
        return _eliminate(rows_exact(family, params))[1]
    if family == "hilbert":
        return _hilbert_det(n)
    if family == "inversehilbert":
        return 1 / _hilbert_det(n)
    if family == "lotkin":
        # lotkin = hilbert with row 1 replaced by ones; by the matrix
        # determinant lemma det = det(H) * (column 1 sum of inv(H))
        s = sum((-1) ** (i + 1) * i * comb(n + i - 1, n - 1) * comb(n, i) for i in range(1, n + 1))
        return _hilbert_det(n) * s
    if family == "cauchy":
        x = [Fraction(v) for v in params["x"]]
        y = [Fraction(v) for v in params.get("y", params["x"])]
        num = math.prod((x[j] - x[i]) * (y[j] - y[i]) for j in range(n) for i in range(j))
        return num / math.prod(xi + yj for xi in x for yj in y)
    if family in ("minij", "pascal", "moler", "frank", "triw"):
        return Fraction(1)
    if family == "lehmer":
        return math.prod((Fraction(2 * k - 1, k * k) for k in range(2, n + 1)), start=Fraction(1))
    if family == "pei":
        a = Fraction(params["alpha"])
        return a ** (n - 1) * (a + n)
    if family == "kms":
        rho = Fraction(params["rho"])
        return (1 - rho * rho) ** (n - 1)
    if family == "jordbloc":
        return Fraction(params["lambda"]) ** n
    if family == "forsythe":
        return Fraction(params["lambda"]) ** n + (-1) ** (n + 1) * Fraction(params["alpha"])
    if family == "companion":
        return (-1) ** n * Fraction(params["v"][0])
    if family in ("wilkinson", "clement"):
        return _tridiagonal_det(entry_fn(family, params), n)
    return _eliminate(rows_exact(family, params))[1]


def log_det(family: str, params: dict) -> tuple[int, float]:
    """(sign, log|det|) from the known formulas, for answers far outside float range.

    poisson: the product of its known eigenvalues 4 - 2 cos(i h) - 2 cos(j h);
    cauchy: prod_{i<j} (x_j - x_i)(y_j - y_i) / prod_{i,j} (x_i + y_j).
    """
    if family == "poisson":
        g = params["n"]
        h = math.pi / (g + 1)
        return 1, fsum(
            math.log(4 - 2 * math.cos(i * h) - 2 * math.cos(j * h))
            for i in range(1, g + 1)
            for j in range(1, g + 1)
        )
    x = [float(v) for v in params["x"]]
    y = [float(v) for v in params.get("y", params["x"])]
    n = len(x)
    diffs = [(x[j] - x[i]) * (y[j] - y[i]) for j in range(n) for i in range(j)]
    sums = [xi + yj for xi in x for yj in y]
    sign = -1 if sum(d < 0 for d in diffs + sums) % 2 else 1
    return sign, fsum(math.log(abs(d)) for d in diffs) - fsum(math.log(abs(v)) for v in sums)


def exact_solve(rows, rhs):
    """Exact solution, or None when the matrix is singular."""
    n = len(rows)
    a, _, r = _eliminate([list(row) + [Fraction(b)] for row, b in zip(rows, rhs)], rhs_cols=1)
    if r < n:
        return None
    return [a[i][n] for i in range(n)]


def exact_inverse(rows):
    """Exact inverse as row lists, or None when the matrix is singular."""
    n = len(rows)
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    a, _, r = _eliminate([list(row) + e for row, e in zip(rows, eye)], rhs_cols=n)
    if r < n:
        return None
    return [row[n:] for row in a]


def exact_rank(rows) -> int:
    return _eliminate(rows)[2]


# -- outcome classification -----------------------------------------------------


def classify_exception(exc: BaseException, answer_fits: bool):
    """Outcome of an op that raised."""
    name = type(exc).__name__
    is_domain = any(c.__name__ == "TmatError" for c in type(exc).__mro__)
    if not is_domain:
        return FAILED, f"{name}: {str(exc)[:120]}"
    if answer_fits:
        return FAILED, f"refused although the answer fits: {name}: {str(exc)[:120]}"
    if name == "RationalOverflowError" and "float64" not in str(exc):
        return FAILED, f"overflow refusal without the float64 hint: {str(exc)[:120]}"
    return REFUSED, name


def close(value: float, ref: float, rtol: float) -> bool:
    if not isinstance(value, float) or value != value:
        return False
    if abs(ref) < FLOAT_TINY:
        return abs(value) < FLOAT_TINY
    return abs(value - ref) <= rtol * abs(ref)


def _float_rows(entry, n):
    """The rows of a float matrix, one at a time, from its entry function."""
    return ([entry(i, j) for j in range(1, n + 1)] for i in range(1, n + 1))


def residual_ok(entry, n: int, x: list, b: list, tol: float = 1e-10) -> bool:
    """Normwise backward error of a float solve: |b - A x| <= tol (|A| |x| + |b|).

    entry(i, j) gives the 1-based entry of A; rows are built one at a time.
    """
    if len(x) != n or not all(isinstance(v, float) and v == v for v in x):
        return False
    norm_a = worst = 0.0
    for row, bi in zip(_float_rows(entry, n), b):
        norm_a = max(norm_a, fsum(abs(v) for v in row))
        worst = max(worst, abs(bi - fsum(a * xv for a, xv in zip(row, x))))
    norm_x = max(abs(v) for v in x)
    norm_b = max(abs(v) for v in b)
    return worst <= tol * (norm_a * norm_x + norm_b)


def inverse_ok(entry, n: int, inv_col, probes: list[list[float]], tol: float = 1e-9) -> bool:
    """Freivalds-style check A (X v) = v for a few probe vectors v.

    entry(i, j) gives the 1-based entry of A, inv_col(i, j) that of the
    candidate inverse X. A is read in one sweep, a row at a time.
    """
    xvs = []
    for v in probes:
        xv = [fsum(float(inv_col(i, j)) * v[j - 1] for j in range(1, n + 1)) for i in range(1, n + 1)]
        if not all(c == c for c in xv):
            return False
        xvs.append(xv)
    norm_a, worst = 0.0, [0.0] * len(probes)
    for i, row in enumerate(_float_rows(entry, n)):
        norm_a = max(norm_a, fsum(abs(v) for v in row))
        for k, (v, xv) in enumerate(zip(probes, xvs)):
            worst[k] = max(worst[k], abs(fsum(a * c for a, c in zip(row, xv)) - v[i]))
    return all(w <= tol * (norm_a * max(abs(c) for c in xv) + 1.0) * n for w, xv in zip(worst, xvs))


def spectrum_ok(entry, n: int, values, tol: float = 1e-9) -> bool:
    """Eigenvalues of a symmetric matrix: their sum is the trace and the sum of
    their squares is the squared Frobenius norm; the list is sorted ascending.

    entry(i, j) gives the 1-based entry of the matrix; no copy of it is kept.
    """
    if len(values) != n or not all(isinstance(v, float) for v in values):
        return False
    if any(values[k] > values[k + 1] for k in range(n - 1)):
        return False
    trace = fsum(entry(i, i) for i in range(1, n + 1))
    frob2 = fsum(entry(i, j) ** 2 for i in range(1, n + 1) for j in range(1, n + 1))
    scale = sqrt(frob2)
    return (
        abs(fsum(values) - trace) <= tol * max(1.0, scale) * n
        and abs(fsum(v * v for v in values) - frob2) <= tol * max(1.0, frob2) * n
    )
