"""Builtin matrix family catalog.

Nineteen classic parametrized test families, each with its element formula
(1-based indices), declared property tags, any closed-form capabilities
(determinant, inverse, spectrum, O(1) predicates), and a column kernel where
the family is banded or a whole column has a cheaper closed form: clement,
jordbloc, grcar and wilkinson declare a band through _banded, which calls the
element function inside it; eleven others build whole columns with inline
arithmetic, and the audit checks each against the element function (the same
NaN on both sides agrees). Registration order is the canonical listing order.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import comb, copysign, cos, frexp, inf, isfinite, isqrt, lcm, ldexp, pi, prod, sqrt
from operator import truediv

from .core import DenseMatrix
from .errors import ParameterError, RationalOverflowError, SingularMatrixError, UnsupportedOperationError
from .families import FamilyDescriptor, ParamSpec, construct, register_family
from .scalars import FLOAT64, RATIONAL64, Rational64, exact, from_exact, from_int, one, ratio, zero


def _symmetric_tridiagonal(kind, diag, off):
    """Dense symmetric tridiagonal matrix from its diagonal and off-diagonal."""
    n = len(diag)
    data = [zero(kind)] * (n * n)
    for i, v in enumerate(diag):
        data[i * n + i] = v
    for i, v in enumerate(off):
        data[i * n + i + 1] = data[(i + 1) * n + i] = v
    return DenseMatrix(n, n, data, kind)


def _banded(element_fn, band):
    """A column_fn that evaluates element_fn only inside the band:
    band(params) -> (rows, lower, upper) bandwidths."""

    def column(params, j, kind):
        rows, lower, upper = band(params)
        first, last = max(1, j - upper), min(rows, j + lower)
        return first, [element_fn(params, i, j, kind) for i in range(first, last + 1)]

    return column


def _quotient(kind):
    """num/den in the given kind, as one callable for the column kernels."""
    return Rational64 if kind == RATIONAL64 else truediv


# -- hilbert ------------------------------------------------------------------
# a_ij = 1/(i+j-1)


def _hilbert_element(params, i, j, kind):
    return ratio(kind, 1, i + j - 1)


def _hilbert_column(params, j, kind):
    q = _quotient(kind)
    return 1, [q(1, d) for d in range(j, j + params["m"])]


def _hilbert_validate(params, kind):
    m = params.get("m")
    n = params.get("n")
    if m is None and n is None:
        raise ParameterError("hilbert requires m or n")
    if m is None:
        m = n
    if n is None:
        n = m
    return {"m": m, "n": n}


def _inv_hilbert_det_int(n):
    # 1/det H_n = prod_{k<n} (2k+1) C(2k,k)^2 (Choi 1983), an integer
    return prod((2 * k + 1) * comb(2 * k, k) ** 2 for k in range(n))


def _hilbert_det(h):
    return from_exact(h.scalar_kind, Fraction(1, _inv_hilbert_det_int(h.rows)), "determinant")


def _hilbert_inverse(h):
    return construct("inversehilbert", n=h.rows, scalar_kind=h.scalar_kind)


_HILBERT_PREDICATES = {
    "symmetric": lambda h: h.rows == h.cols,
    "posdef": lambda h: h.rows == h.cols,
    "diagonal": lambda h: h.rows == 0 or h.cols == 0 or (h.rows <= 1 and h.cols <= 1),
}

# minij, lehmer, pascal, inversehilbert and poisson are symmetric positive
# definite for every n, with a nonzero off-diagonal entry once n >= 2
_SPD_PREDICATES = {
    "symmetric": lambda h: True,
    "posdef": lambda h: True,
    "diagonal": lambda h: h.rows <= 1,
}


# -- inversehilbert -----------------------------------------------------------
# (A)_ij = (-1)^(i+j) (i+j-1) C(n+i-1, n-j) C(n+j-1, n-i) C(i+j-2, i-1)^2


def _inversehilbert_element(params, i, j, kind):
    n = params["n"]
    v = (
        (-1) ** (i + j)
        * (i + j - 1)
        * comb(n + i - 1, n - j)
        * comb(n + j - 1, n - i)
        * comb(i + j - 2, i - 1) ** 2
    )
    return from_int(kind, v)


def _inversehilbert_det(h):
    return from_exact(h.scalar_kind, _inv_hilbert_det_int(h.rows), "determinant")


def _inversehilbert_inverse(h):
    return construct("hilbert", n=h.rows, scalar_kind=h.scalar_kind)


# -- cauchy -------------------------------------------------------------------
# a_ij = 1/(x_i + y_j), precondition x_i + y_j != 0


def _cauchy_element(params, i, j, kind):
    x, y = params["x"][i - 1], params["y"][j - 1]
    if kind == RATIONAL64:  # 1/(x + y) in one construction
        return Rational64(x.den * y.den, x.num * y.den + y.num * x.den)
    return 1.0 / (x + y)


def _cauchy_column(params, j, kind):
    xs, y = params["x"], params["y"][j - 1]
    if kind == RATIONAL64:
        yn, yd = y.num, y.den
        return 1, [Rational64(x.den * yd, x.num * yd + yn * x.den) for x in xs]
    return 1, [1.0 / (x + y) for x in xs]


def _cauchy_validate(params, kind):
    x = params.get("x")
    y = params.get("y")
    n = params.get("n")
    if x is None:
        if n is None:
            raise ParameterError("cauchy requires n or generator vector x")
        x = tuple(from_int(kind, k) for k in range(1, n + 1))
    if y is None:
        y = x
    if kind == RATIONAL64:  # compare (num, den) pairs: -v may leave the 64-bit range
        negated = {(-v.num, v.den) for v in y}
        bad = [i for i, v in enumerate(x, 1) if (v.num, v.den) in negated]
    else:
        negated = {-v for v in y}
        bad = [i for i, v in enumerate(x, 1) if v in negated]
    if bad:
        raise ParameterError(
            f"cauchy generators collide: x_i + y_j = 0 for x indices {bad}"
        )
    return {"x": x, "y": y}


def _cauchy_symmetric(h):
    # a_ij = 1/(x_i + y_j) is symmetric when y = x (and no x_i is a NaN, which
    # the tuple comparison would match by identity); otherwise the scan decides
    x, y = h.params["x"], h.params["y"]
    if x == y and all(v == v for v in x):
        return True
    return None


def _cauchy_kind(given):
    vectors = [given.get("x"), given.get("y")]
    if all(v is None for v in vectors):
        return RATIONAL64
    for vec in vectors:
        if vec is None:
            continue
        for v in vec:
            if isinstance(v, float):
                return FLOAT64
    return RATIONAL64


def _cauchy_det(h):
    # prod_{i<j} (x_j - x_i)(y_j - y_i) / prod_{i,j} (x_i + y_j)
    x, y = h.params["x"], h.params["y"]
    n = h.rows
    if h.scalar_kind == RATIONAL64:
        # x_i = X_i/Dx and y_j = Y_j/Dy over common denominators, so that
        # det = prod (X_j-X_i)(Y_j-Y_i) (Dx Dy)^(n(n+1)/2) / prod (X_i Dy + Y_j Dx)
        xr, yr = [v.as_integer_ratio() for v in x], [v.as_integer_ratio() for v in y]
        dx, dy = lcm(*(d for _, d in xr)), lcm(*(d for _, d in yr))
        xs, ys = [a * (dx // d) for a, d in xr], [a * (dy // d) for a, d in yr]
        # row by row, so that most products are of small integers
        num = prod(prod(xs[j] - xs[i] for i in range(j)) for j in range(n))
        num *= prod(prod(ys[j] - ys[i] for i in range(j)) for j in range(n))
        den = prod(prod(xi * dy + yj * dx for yj in ys) for xi in xs)
        value = Fraction(num * (dx * dy) ** (n * (n + 1) // 2), den)
        return from_exact(RATIONAL64, value, "determinant")
    # float64: numerator and denominator factors interleaved column by column,
    # the binary exponent kept apart so that no partial product under- or overflows
    mant, expo = 1.0, 0
    for j in range(n):
        for i in range(n):
            f = (x[j] - x[i]) * (y[j] - y[i]) / (x[i] + y[j]) if i < j else 1.0 / (x[i] + y[j])
            mant, e = frexp(mant * f)
            expo += e
    try:
        return ldexp(mant, expo)
    except OverflowError:
        return copysign(inf, mant)


# -- minij --------------------------------------------------------------------
# a_ij = min(i, j)


def _minij_element(params, i, j, kind):
    return from_int(kind, min(i, j))


def _minij_column(params, j, kind):
    head = [from_int(kind, i) for i in range(1, j + 1)]
    return 1, head + head[-1:] * (params["n"] - j)


def _minij_eigvals(h):
    n = h.rows
    return sorted(0.25 / cos(i * pi / (2 * n + 1)) ** 2 for i in range(1, n + 1))


def _minij_inverse(h):
    # tridiagonal: diag 2 except (n,n) = 1, off-diagonals -1
    n, kind = h.rows, h.scalar_kind
    diag = [from_int(kind, 1 if i == n else 2) for i in range(1, n + 1)]
    return _symmetric_tridiagonal(kind, diag, [from_int(kind, -1) for _ in range(1, n)])


# -- clement ------------------------------------------------------------------
# nonsymmetric: a_{i,i+1} = i, a_{i+1,i} = n-i; symmetric variant replaces both
# off-diagonals with sqrt(i(n-i))


def _clement_element(params, i, j, kind):
    n = params["n"]
    if params["symmetric"]:
        if j == i + 1:
            return sqrt(i * (n - i))
        if i == j + 1:
            return sqrt(j * (n - j))
        return 0.0
    if j == i + 1:
        return from_int(kind, i)
    if i == j + 1:
        return from_int(kind, n - j)
    return zero(kind)


def _clement_validate(params, kind):
    if params["symmetric"] and kind == RATIONAL64:
        raise ParameterError(
            "the symmetric clement variant has irrational entries; use float64"
        )
    return params


def _clement_eigvals(h):
    n = h.rows
    return sorted(float(-(n - 1) + 2 * k) for k in range(n))


# -- lehmer -------------------------------------------------------------------
# a_ij = min(i,j)/max(i,j)


def _lehmer_element(params, i, j, kind):
    return ratio(kind, min(i, j), max(i, j))


def _lehmer_column(params, j, kind):
    q = _quotient(kind)
    return 1, [q(i, j) for i in range(1, j)] + [q(j, i) for i in range(j, params["n"] + 1)]


def _lehmer_det(h):
    # A = D B D with D = diag(1/i) and b_ij = min(i,j)^2 = sum_{k <= min(i,j)} (2k-1),
    # so det B = prod (2k-1) and det = 3*5*...*(2n-1) / (n!)^2
    n = h.rows
    value = Fraction(prod(range(3, 2 * n, 2)), prod(range(2, n + 1)) ** 2)
    return from_exact(h.scalar_kind, value, "determinant")


def _lehmer_inverse(h):
    # tridiagonal: (i,i) = 4i^3/(4i^2-1) for i<n, (n,n) = n^2/(2n-1),
    # (i,i+1) = -i(i+1)/(2i+1)
    n, kind = h.rows, h.scalar_kind
    diag = [ratio(kind, 4 * i**3, 4 * i * i - 1) for i in range(1, n)]
    off = [ratio(kind, -i * (i + 1), 2 * i + 1) for i in range(1, n)]
    return _symmetric_tridiagonal(kind, (diag + [ratio(kind, n * n, 2 * n - 1)])[:n], off)


# -- pei ----------------------------------------------------------------------
# A = alpha*I + ones


def _pei_element(params, i, j, kind):
    a = params["alpha"]
    if i == j:
        return a + one(kind)
    return one(kind)


def _pei_eigvals(h):
    n = h.rows
    a = float(h.params["alpha"])
    return sorted([a] * (n - 1) + [a + n]) if n else []


def _pei_inverse(h):
    # (1/alpha)(I - J/(alpha+n)), defined iff alpha not in {0, -n}. Where alpha (alpha + n)
    # overflows, numerators and denominators are scaled by 1/alpha
    n = h.rows
    a = h.params["alpha"]
    kind = h.scalar_kind
    if n < 2:
        return None  # [] or [alpha + 1]; the formula divides by alpha (alpha + n), use the fallback
    if a == 0 or a == -n:
        raise SingularMatrixError(f"pei inverse is undefined for alpha in {{0, -{n}}}")
    s = one(kind) if isfinite(a * (a + n)) or not isfinite(a) else one(kind) / a
    den = a * s * (a + n)
    data = [-(s / den)] * (n * n)
    data[::n + 1] = [(a + n - one(kind)) * s / den] * n
    return DenseMatrix(n, n, data, kind)


def _pei_posdef(h):
    # spectrum alpha (n - 1 times) and alpha + n; for n = 1 the entry alpha + 1
    a = h.params["alpha"]
    return isfinite(a) and a > (0 if h.rows > 1 else -1)


_PEI_PREDICATES = {"symmetric": lambda h: True, "posdef": _pei_posdef}


def _pei_det(h):
    n = h.rows
    kind = h.scalar_kind
    if kind == RATIONAL64:
        a = exact(h.params["alpha"])
        return from_exact(kind, a ** (n - 1) * (a + n), "determinant")
    a = h.params["alpha"]
    return _power(a, n - 1) * (a + n)


# -- pascal ---------------------------------------------------------------------
# a_ij = C(i+j-2, i-1)


def _pascal_element(params, i, j, kind):
    return from_int(kind, comb(i + j - 2, i - 1))


def _pascal_column(params, j, kind):
    # a_{i+1,j} = a_ij (i + j - 1) / i, exactly on integers
    values, a = [], 1
    for i in range(1, params["n"] + 1):
        values.append(from_int(kind, a))
        a = a * (i + j - 1) // i
    return 1, values


# -- kms ----------------------------------------------------------------------
# a_ij = rho^|i-j|


def _power(x, k: int):
    """x ** k; a float power beyond the float range is the signed inf that
    from_exact makes of it. A rational64 refusal is raised as it is."""
    try:
        return x ** k
    except RationalOverflowError:
        raise
    except OverflowError:
        return -inf if x < 0 and k % 2 else inf


def _kms_element(params, i, j, kind):
    return _power(params["rho"], abs(i - j))


def _kms_column(params, j, kind):
    # rows 1..n of column j are rho^(j-1), ..., rho^1, rho^0, ..., rho^(n-j)
    rho, n = params["rho"], params["n"]
    ks = range(max(j, n + 1 - j))
    try:
        p = [rho**k for k in ks]
    except OverflowError:  # a float beyond range becomes +-inf; _power re-raises a rational one
        p = [_power(rho, k) for k in ks]
    return 1, p[j - 1:0:-1] + p[:n + 1 - j]


def _kms_det(h):
    n = h.rows
    kind = h.scalar_kind
    if kind == RATIONAL64:
        rho = exact(h.params["rho"])
        return from_exact(kind, (1 - rho * rho) ** (n - 1), "determinant")
    rho = h.params["rho"]
    return _power(1.0 - rho * rho, n - 1)


_KMS_PREDICATES = {
    # det of the leading k x k block is (1 - rho^2)^(k-1); n <= 1 is [1]
    "symmetric": lambda h: True,
    "posdef": lambda h: h.rows <= 1 or abs(h.params["rho"]) < 1,
}


def _kms_inverse(h):
    # tridiagonal: corners 1/(1-rho^2), interior diag (1+rho^2)/(1-rho^2),
    # off-diagonals -rho/(1-rho^2); defined iff rho^2 != 1. Where rho^2 overflows,
    # numerators and denominators are scaled by 1/rho: -rho/(1-rho^2) = 1/(rho - 1/rho)
    n = h.rows
    rho = h.params["rho"]
    kind = h.scalar_kind
    if n == 1:
        return DenseMatrix(1, 1, [one(kind)], kind)
    rho2 = rho * rho
    if rho2 == 1:
        raise SingularMatrixError("kms with rho^2 = 1 is singular")
    s = one(kind) if isfinite(rho2) or not isfinite(rho) else one(kind) / rho
    denom = s - rho * s * rho
    corner = s / denom
    interior = (s + rho * s * rho) / denom
    diag = [corner if i in (1, n) else interior for i in range(1, n + 1)]
    return _symmetric_tridiagonal(kind, diag, [-(rho * s / denom)] * (n - 1))


# -- moler --------------------------------------------------------------------
# a_ii = 1 + (i-1) alpha^2, a_ij = alpha + (min(i,j)-1) alpha^2; A = T'T with
# T = triw(n, alpha), hence det = 1


def _moler_element(params, i, j, kind):
    a = params["alpha"]
    a2 = a * a
    if i == j:
        return one(kind) + (i - 1) * a2
    return a + (min(i, j) - 1) * a2


_MOLER_PREDICATES = {"symmetric": lambda h: True, "posdef": lambda h: isfinite(h.params["alpha"])}


# -- forsythe -------------------------------------------------------------------
# Jordan block with lambda on the diagonal, unit superdiagonal, and alpha in
# the (n,1) corner; for n = 1 both positions coincide and the entry is
# lambda + alpha.


def _forsythe_element(params, i, j, kind):
    n = params["n"]
    lam = params["lambda"]
    alpha = params["alpha"]
    if n == 1:
        return lam + alpha
    if i == j:
        return lam
    if j == i + 1:
        return one(kind)
    if i == n and j == 1:
        return alpha
    return zero(kind)


def _forsythe_column(params, j, kind):
    n, lam = params["n"], params["lambda"]
    if n == 1:
        return 1, [lam + params["alpha"]]
    if j == 1:
        return 1, [lam] + [zero(kind)] * (n - 2) + [params["alpha"]]
    return j - 1, [one(kind), lam]


def _forsythe_eigvals(h):
    n = h.rows
    lam = complex(float(h.params["lambda"]))
    alpha = complex(float(h.params["alpha"]))
    if n <= 1:
        return [lam + alpha] * n  # the one entry
    try:
        r = alpha ** (1.0 / n)
    except OverflowError:  # complex pow of an infinite alpha
        raise UnsupportedOperationError(
            f"eigvals of forsythe: alpha = {h.params['alpha']} puts every eigenvalue beyond the float range"
        ) from None
    vals = [lam + r * cmath.exp(2j * pi * k / n) for k in range(n)]
    return sorted(vals, key=lambda z: (z.real, z.imag))


def _forsythe_inverse(h):
    n = h.rows
    lam = h.params["lambda"]
    alpha = h.params["alpha"]
    kind = h.scalar_kind
    if lam != 0:
        return None  # no closed form; generic fallback
    if alpha == 0:
        raise SingularMatrixError("forsythe with lambda = 0 and alpha = 0 is nilpotent")
    inv_alpha = one(kind) / alpha
    if not isfinite(inv_alpha):
        return None  # a subnormal or NaN alpha: LU answers, as it does for solve
    data = [zero(kind)] * (n * n - n) + [inv_alpha] * min(n, 1) + [zero(kind)] * (n - 1)
    data[1::n + 1] = [one(kind)] * (n - 1)  # the subdiagonal; inv_alpha is the (1, n) corner
    return DenseMatrix(n, n, data, kind)


# -- jordbloc -------------------------------------------------------------------


def _jordbloc_element(params, i, j, kind):
    if i == j:
        return params["lambda"]
    if j == i + 1:
        return one(kind)
    return zero(kind)


def _jordbloc_eigvals(h):
    return [float(h.params["lambda"])] * h.rows


def _jordbloc_det(h):
    kind = h.scalar_kind
    if kind == RATIONAL64:
        return from_exact(kind, exact(h.params["lambda"]) ** h.rows, "determinant")
    return _power(h.params["lambda"], h.rows)


# -- frank --------------------------------------------------------------------
# a_ij = n+1-max(i,j) if j >= i-1, else 0


def _frank_element(params, i, j, kind):
    n = params["n"]
    if j >= i - 1:
        return from_int(kind, n + 1 - max(i, j))
    return zero(kind)


def _frank_column(params, j, kind):
    n = params["n"]
    return 1, [from_int(kind, n + 1 - j)] * j + ([from_int(kind, n - j)] if j < n else [])


# -- lotkin -------------------------------------------------------------------
# row 1 all ones, rows i >= 2 as the Hilbert matrix


def _lotkin_element(params, i, j, kind):
    if i == 1:
        return one(kind)
    return ratio(kind, 1, i + j - 1)


def _lotkin_det(h):
    # H_n with row 1 set to ones: expanding along row 1, det = det(H_n) times
    # the sum of column 1 of inv(H_n), which is (-1)^(n+1) n
    n = h.rows
    value = Fraction((-1) ** (n + 1) * n, _inv_hilbert_det_int(n))
    return from_exact(h.scalar_kind, value, "determinant")


# -- grcar --------------------------------------------------------------------
# a_ij = -1 on the subdiagonal, 1 on the diagonal and the k superdiagonals


def _grcar_element(params, i, j, kind):
    if i == j + 1:
        return from_int(kind, -1)
    if i <= j <= i + params["k"]:
        return one(kind)
    return zero(kind)


# -- wilkinson ------------------------------------------------------------------
# symmetric tridiagonal: d_i = |i - (n+1)/2|, off-diagonals 1


def _wilkinson_element(params, i, j, kind):
    n = params["n"]
    if i == j:
        if kind == RATIONAL64:
            return Rational64(abs(2 * i - n - 1), 2)
        return abs(i - (n + 1) / 2)
    if abs(i - j) == 1:
        return one(kind)
    return zero(kind)


# -- poisson --------------------------------------------------------------------
# block tridiagonal I (x) T + T (x) I with T = tridiag(-1, 2, -1); the grid
# parameter n yields an n^2 x n^2 matrix


def _trid(a, b):
    if a == b:
        return 2
    if abs(a - b) == 1:
        return -1
    return 0


def _poisson_element(params, i, j, kind):
    k = params["n"]
    r1, r2 = divmod(i - 1, k)
    c1, c2 = divmod(j - 1, k)
    v = 0
    if r1 == c1:
        v += _trid(r2, c2)
    if r2 == c2:
        v += _trid(r1, c1)
    return from_int(kind, v)


def _poisson_column(params, j, kind):
    # 4 on the diagonal, -1 at j +- k inside the grid and at j +- 1 within the grid row
    k = params["n"]
    first, last = max(1, j - k), min(k * k, j + k)
    values = [zero(kind)] * (last + 1 - first)
    minus, col = from_int(kind, -1), (j - 1) % k
    neighbours = ((j - k, j > k), (j + k, j + k <= k * k), (j - 1, col > 0), (j + 1, col < k - 1))
    for i, inside in neighbours:
        if inside:
            values[i - first] = minus
    values[j - first] = from_int(kind, 4)
    return first, values


def _poisson_dims(params):
    return (params["n"] ** 2, params["n"] ** 2)


def _poisson_eigvals(h):
    k = h.params["n"]
    vals = [
        4 - 2 * cos(i * pi / (k + 1)) - 2 * cos(j * pi / (k + 1))
        for i in range(1, k + 1)
        for j in range(1, k + 1)
    ]
    return sorted(vals)


def _poisson_size_to_params(requested):
    k = isqrt(requested)
    if k * k != requested:
        return None
    return {"n": k}


# -- companion ------------------------------------------------------------------
# bottom-row form for the monic polynomial with coefficient vector v:
# a_{i,i+1} = 1 for i < n, a_{n,j} = -v_j


def _companion_element(params, i, j, kind):
    v = params["v"]
    n = len(v)
    if i == n:
        return -v[j - 1]
    if j == i + 1:
        return one(kind)
    return zero(kind)


def _companion_column(params, j, kind):
    v = params["v"]
    n = len(v)
    if j == 1:
        return n, [-v[0]]
    return j - 1, [one(kind)] + [zero(kind)] * (n - j) + [-v[j - 1]]


def _companion_validate(params, kind):
    v = params.get("v")
    if v is None:
        n = params.get("n")
        if n is None:
            raise ParameterError("companion requires n or coefficient vector v")
        v = tuple(one(kind) for _ in range(n))
    return {"v": v}


def _companion_dims(params):
    n = len(params["v"])
    return (n, n)


def _companion_det(h):
    n = h.rows
    v1 = h.params["v"][0]
    return -v1 if n % 2 else v1


# -- triw ---------------------------------------------------------------------
# unit upper triangular with alpha on the first k superdiagonals


def _triw_element(params, i, j, kind):
    if i == j:
        return one(kind)
    if i < j <= i + params["k"]:
        return params["alpha"]
    return zero(kind)


def _triw_column(params, j, kind):
    first = max(1, j - params["k"])
    return first, [params["alpha"]] * (j - first) + [one(kind)]


def _unit_det(h):
    return one(h.scalar_kind)


# -- registration ---------------------------------------------------------------


def _n_param():
    return ParamSpec("n", "dim")


def _register(fid, params, kind, tags, element_fn, **routines):
    register_family(FamilyDescriptor(fid, params, kind, tags), element_fn, **routines)


def register_builtins() -> None:
    _register(
        "hilbert",
        (ParamSpec("m", "dim", None), ParamSpec("n", "dim", None)),
        RATIONAL64,
        ("symmetric", "inverse", "illcond", "posdef", "totpos"),
        _hilbert_element,
        dims_fn=lambda p: (p["m"], p["n"]),
        column_fn=_hilbert_column,
        validate_fn=_hilbert_validate,
        det_fn=_hilbert_det,
        inverse_fn=_hilbert_inverse,
        predicates=_HILBERT_PREDICATES,
    )
    _register(
        "inversehilbert",
        (_n_param(),),
        RATIONAL64,
        ("symmetric", "inverse", "illcond", "posdef", "integer"),
        _inversehilbert_element,
        det_fn=_inversehilbert_det,
        inverse_fn=_inversehilbert_inverse,
        predicates=_SPD_PREDICATES,
    )
    _register(
        "cauchy",
        (
            ParamSpec("n", "dim", None),
            ParamSpec("x", "vector", None),
            ParamSpec("y", "vector", None),
        ),
        RATIONAL64,
        ("symmetric", "posdef", "inverse", "illcond", "infdiv"),
        _cauchy_element,
        dims_fn=lambda p: (len(p["x"]), len(p["y"])),
        column_fn=_cauchy_column,
        validate_fn=_cauchy_validate,
        scalar_kind_fn=_cauchy_kind,
        det_fn=_cauchy_det,
        predicates={"symmetric": _cauchy_symmetric},
    )
    _register(
        "minij",
        (_n_param(),),
        RATIONAL64,
        ("symmetric", "posdef", "eigen", "inverse", "integer"),
        _minij_element,
        column_fn=_minij_column,
        det_fn=_unit_det,
        eigvals_fn=_minij_eigvals,
        inverse_fn=_minij_inverse,
        predicates=_SPD_PREDICATES,
    )
    _register(
        "clement",
        (_n_param(), ParamSpec("symmetric", "bool", False)),
        FLOAT64,
        ("tridiagonal", "eigen", "integer"),
        _clement_element,
        column_fn=_banded(_clement_element, lambda p: (p["n"], 1, 1)),
        validate_fn=_clement_validate,
        eigvals_fn=_clement_eigvals,
    )
    _register(
        "lehmer",
        (_n_param(),),
        RATIONAL64,
        ("symmetric", "posdef", "inverse", "totnonneg"),
        _lehmer_element,
        column_fn=_lehmer_column,
        det_fn=_lehmer_det,
        inverse_fn=_lehmer_inverse,
        predicates=_SPD_PREDICATES,
    )
    _register(
        "pei",
        (_n_param(), ParamSpec("alpha", "scalar", 1)),
        RATIONAL64,
        ("symmetric", "inverse", "posdef", "illcond"),
        _pei_element,
        eigvals_fn=_pei_eigvals,
        inverse_fn=_pei_inverse,
        det_fn=_pei_det,
        predicates=_PEI_PREDICATES,
    )
    _register(
        "pascal",
        (_n_param(),),
        RATIONAL64,
        ("symmetric", "posdef", "eigen", "inverse", "integer", "totpos", "unimodular", "illcond"),
        _pascal_element,
        column_fn=_pascal_column,
        det_fn=_unit_det,
        predicates=_SPD_PREDICATES,
    )
    _register(
        "kms",
        (_n_param(), ParamSpec("rho", "scalar", 0.5)),
        FLOAT64,
        ("symmetric", "posdef", "inverse", "toeplitz"),
        _kms_element,
        column_fn=_kms_column,
        inverse_fn=_kms_inverse,
        det_fn=_kms_det,
        predicates=_KMS_PREDICATES,
    )
    _register(
        "moler",
        (_n_param(), ParamSpec("alpha", "scalar", -1)),
        FLOAT64,
        ("symmetric", "posdef", "illcond"),
        _moler_element,
        det_fn=_unit_det,
        predicates=_MOLER_PREDICATES,
    )
    _register(
        "forsythe",
        (_n_param(), ParamSpec("alpha", "scalar", 1e-10), ParamSpec("lambda", "scalar", 0)),
        FLOAT64,
        ("eigen", "inverse", "illcond"),
        _forsythe_element,
        column_fn=_forsythe_column,
        eigvals_fn=_forsythe_eigvals,
        inverse_fn=_forsythe_inverse,
    )
    _register(
        "jordbloc",
        (_n_param(), ParamSpec("lambda", "scalar", 1)),
        FLOAT64,
        ("eigen", "bidiagonal", "triangular", "toeplitz", "defective", "nilpotent"),
        _jordbloc_element,
        column_fn=_banded(_jordbloc_element, lambda p: (p["n"], 0, 1)),
        eigvals_fn=_jordbloc_eigvals,
        det_fn=_jordbloc_det,
    )
    _register(
        "frank",
        (_n_param(),),
        RATIONAL64,
        ("hessenberg", "illcond", "integer"),
        _frank_element,
        column_fn=_frank_column,
        det_fn=_unit_det,
    )
    _register(
        "lotkin",
        (_n_param(),),
        RATIONAL64,
        ("inverse", "illcond", "eigen"),
        _lotkin_element,
        det_fn=_lotkin_det,
    )
    _register(
        "grcar",
        (_n_param(), ParamSpec("k", "dim", 3)),
        FLOAT64,
        ("toeplitz", "hessenberg", "integer"),
        _grcar_element,
        column_fn=_banded(_grcar_element, lambda p: (p["n"], 1, p["k"])),
    )
    _register(
        "wilkinson",
        (_n_param(),),
        FLOAT64,
        ("symmetric", "tridiagonal"),
        _wilkinson_element,
        column_fn=_banded(_wilkinson_element, lambda p: (p["n"], 1, 1)),
    )
    _register(
        "poisson",
        (_n_param(),),
        RATIONAL64,
        ("symmetric", "posdef", "eigen", "sparse", "integer"),
        _poisson_element,
        column_fn=_poisson_column,
        dims_fn=_poisson_dims,
        eigvals_fn=_poisson_eigvals,
        size_to_params=_poisson_size_to_params,
        predicates=_SPD_PREDICATES,
    )
    _register(
        "companion",
        (ParamSpec("n", "dim", None), ParamSpec("v", "vector", None)),
        FLOAT64,
        ("hessenberg", "sparse", "integer"),
        _companion_element,
        column_fn=_companion_column,
        dims_fn=_companion_dims,
        validate_fn=_companion_validate,
        det_fn=_companion_det,
    )
    _register(
        "triw",
        (
            _n_param(),
            ParamSpec("alpha", "scalar", -1),
            ParamSpec("k", "dim", lambda p: max(p["n"] - 1, 0)),
        ),
        RATIONAL64,
        ("triangular", "illcond", "integer", "unimodular"),
        _triw_element,
        column_fn=_triw_column,
        det_fn=_unit_det,
    )
