"""Float64 closed inverses built by slice assignment (pei, forsythe) and
rescaled where a square leaves the float range (pei, kms), against the LU
inverse and the exact inverse; cond1 of a matrix with a NaN entry."""

import math
from fractions import Fraction

import pytest

from tmat import FLOAT64, audit, cond1, construct, materialize
from tmat.errors import SingularMatrixError
from tmat.linalg import _closed_inverse, inverse_dense


def _exact_inverse(rows):
    """Gauss-Jordan on Fractions: the inverse of the exact matrix, column-major."""
    n = len(rows)
    a = [list(row) + [Fraction(i == j) for j in range(n)] for i, row in enumerate(rows)]
    for c in range(n):
        p = next(i for i in range(c, n) if a[i][c])
        a[c], a[p] = a[p], a[c]
        a[c] = [v / a[c][c] for v in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [a[i][n + j] for j in range(n) for i in range(n)]


def _within_ulps(x, want, ulps):
    """Every entry of x within ulps units in the last place of the float
    nearest to the same entry of want (Fractions or floats)."""
    return all(abs(Fraction(v) - Fraction(w)) <= ulps * math.ulp(float(w)) for v, w in zip(x, want))


def _lu_inverse(h):
    """inverse_dense of the materialized matrix, or None where LU finds it singular."""
    try:
        return inverse_dense(materialize(h)).data
    except SingularMatrixError:
        return None


@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("alpha", [1e-10, 0.5, -2.0, 3.0, 1e10])
def test_forsythe_inverse_is_the_lu_inverse(n, alpha):
    h = construct("forsythe", n=n, alpha=alpha, scalar_kind=FLOAT64)
    x = _closed_inverse(h)
    assert x.dims == (n, n)
    assert x.data.count(0.0) == n * n - n  # the corner 1/alpha and the unit subdiagonal
    assert _within_ulps(x.data, _lu_inverse(h), 1)


def _pei_rows(alpha, n):
    return [[Fraction(alpha) * (i == j) + 1 for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("alpha", [1e-3, 0.5, 1.0, -0.5, 10.0, -20.0])
def test_pei_inverse_is_the_lu_inverse(n, alpha):
    h = construct("pei", n=n, alpha=alpha, scalar_kind=FLOAT64)
    x = _closed_inverse(h)
    if n == 1:  # [alpha + 1]: pei leaves it to LU
        assert x is None
        return
    # LU's forward error grows with the condition number; the closed form's does not
    err = max(abs(a - b) for a, b in zip(x.data, _lu_inverse(h)))
    assert err <= 4 * n * 2.0**-53 * cond1(h) * max(map(abs, x.data))
    exact = _exact_inverse(_pei_rows(alpha, n))
    assert _within_ulps(x.data, exact, 2)


HUGE = [1e154, -1e154, 1e200, -1e200, 1e300, -1e300]


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("value", HUGE)
@pytest.mark.parametrize("family", ["pei", "kms"])
def test_closed_inverses_keep_their_entries_where_a_square_overflows(family, value, n):
    # alpha (alpha + n) or rho^2 beyond the float range used to zero or NaN X
    if family == "pei":
        h = construct("pei", n=n, alpha=value, scalar_kind=FLOAT64)
        rows = _pei_rows(value, n)
    else:
        h = construct("kms", n=n, rho=value, scalar_kind=FLOAT64)
        rows = [[Fraction(value) ** abs(i - j) for j in range(n)] for i in range(n)]
    x = _closed_inverse(h).data
    assert all(map(math.isfinite, x))
    assert _within_ulps(x, _exact_inverse(rows), 1)
    lu = _lu_inverse(h)  # LU answers where A is finite and not too ill-conditioned
    assert lu is not None or family == "kms" and n > 2
    if lu is not None:
        assert _within_ulps(x, lu, 1)


def test_bits_below_the_overflow_are_kept():
    # the unscaled formulas, entry for entry
    a, n = 1e150, 3
    x = _closed_inverse(construct("pei", n=n, alpha=a, scalar_kind=FLOAT64)).data
    assert x[0] == (a + n - 1.0) / (a * (a + n)) and x[1] == -(1.0 / (a * (a + n)))
    rho = -1e150
    x = _closed_inverse(construct("kms", n=n, rho=rho, scalar_kind=FLOAT64)).data
    denom = 1.0 - rho * rho
    assert (x[0], x[1], x[4]) == (1.0 / denom, -(rho / denom), (1.0 + rho * rho) / denom)


# -- cond1 where LU refuses -------------------------------------------------------


def test_cond1_of_a_nan_matrix_is_nan():
    h = construct("forsythe", n=3, alpha=math.nan, scalar_kind=FLOAT64)
    assert math.isnan(cond1(h))
    (report,) = audit("forsythe", [3], {"alpha": math.nan})
    (finding,) = [f for f in report.findings if f.tag == "illcond"]
    assert (finding.verdict, finding.note) == ("not-checkable", "advisory: cond1 is undefined (NaN)")


@pytest.mark.parametrize("family, params", [("forsythe", {"alpha": 0.0, "lambda": 0.0}), ("pei", {"alpha": 0.0}),
                                            ("kms", {"rho": 1.0}), ("forsythe", {"alpha": 5e-324})])
def test_cond1_of_a_singular_finite_matrix_is_inf(family, params):
    assert cond1(construct(family, n=3, scalar_kind=FLOAT64, **params)) == math.inf


def test_cond1_of_the_zero_matrix_is_inf():
    assert cond1(construct("forsythe", n=1, alpha=0.0, scalar_kind=FLOAT64)) == math.inf
    assert cond1(construct("jordbloc", n=4, scalar_kind=FLOAT64, **{"lambda": 0.0})) == math.inf


@pytest.mark.parametrize("where", [0, 1, 2])
def test_cond1_is_nan_wherever_the_nan_entry_sits(where):
    # ||A||_1 is NaN whichever column holds the NaN: max alone would depend on the order
    v = [1.0, 2.0, 3.0]
    v[where] = math.nan
    assert math.isnan(cond1(construct("companion", v=v, scalar_kind=FLOAT64)))
