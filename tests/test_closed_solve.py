"""solve and cond1 through a family's closed inverse X.

In rational64, x = X b is exact, so it must equal the Bareiss answer, and
Bareiss answers wherever X itself does not fit. In float64, x = X b is
forward stable but not backward stable (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., 14.1), so its forward error is pinned against
the exact answer: at most c * n * u * cond1.
"""

import random
from fractions import Fraction
from itertools import accumulate
from math import comb, inf, ulp

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tmat import (
    FLOAT64,
    RATIONAL64,
    Rational64,
    RationalOverflowError,
    SingularMatrixError,
    UnsupportedOperationError,
    cond1,
    construct,
    materialize,
    solve,
)
from tmat import linalg
from tmat.linalg import COND1_DIM_BOUND, _closed_solve, solve_dense

EXACT = settings(derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
U = 2.0**-53
C = 4  # the forward error bound is C * n * u * cond1

small_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


def _outcome(fn):
    """The value of fn(), or the type of the refusal it raised."""
    try:
        return fn()
    except (RationalOverflowError, SingularMatrixError) as exc:
        return type(exc)


def _inverse_hilbert(n, i, j):
    return (
        (-1) ** (i + j) * (i + j - 1) * comb(n + i - 1, n - j) * comb(n + j - 1, n - i)
        * comb(i + j - 2, i - 1) ** 2
    )


def _exact_entry(family, n, p):
    """a_ij of the family as an exact Fraction, on unbounded integers."""
    return {
        "hilbert": lambda i, j: Fraction(1, i + j - 1),
        "inversehilbert": lambda i, j: Fraction(_inverse_hilbert(n, i, j)),
        "minij": lambda i, j: Fraction(min(i, j)),
        "lehmer": lambda i, j: Fraction(min(i, j), max(i, j)),
        "pei": lambda i, j: Fraction(p.get("alpha", 1)) * (i == j) + 1,
        "kms": lambda i, j: Fraction(p.get("rho", 0.5)) ** abs(i - j),
        "forsythe": lambda i, j: (
            Fraction(p.get("alpha", 0)) * (i == n and j == 1) + (j == i + 1)
        ),
    }[family]


def _times(family, n, p, x):
    """A x, exactly."""
    a = _exact_entry(family, n, p)
    return [sum(a(i, j) * Fraction(v) for j, v in enumerate(x, 1)) for i in range(1, n + 1)]


# -- rational64: the closed route is Bareiss's answer ----------------------------


CLOSED = ["hilbert", "inversehilbert", "minij", "lehmer", "pei", "kms", "forsythe"]


@pytest.mark.parametrize("family", CLOSED)
@settings(EXACT, max_examples=20)
@given(data=st.data())
def test_rational_closed_solve_equals_bareiss(family, data):
    n = data.draw(st.integers(1, 24))
    params = {}
    if family == "pei":
        params["alpha"] = data.draw(st.one_of(small_fractions, st.sampled_from([0, -n])))
    elif family == "kms":
        params["rho"] = data.draw(st.one_of(small_fractions, st.sampled_from([1, -1])))
    elif family == "forsythe":
        params.update(alpha=data.draw(st.one_of(small_fractions, st.just(0))), lam=0)
    x = data.draw(st.lists(small_fractions, min_size=n, max_size=n))
    try:  # half of the right-hand sides have the small answer x
        b = [Rational64.from_number(v) for v in (_times(family, n, params, x) if data.draw(st.booleans()) else x)]
    except RationalOverflowError:
        b = [Rational64.from_number(v) for v in x]
    h = construct(family, n=n, scalar_kind=RATIONAL64, **params)
    closed = _outcome(lambda: solve(h, b))
    bareiss = _outcome(lambda: solve_dense(materialize(h), b))
    if closed != bareiss:
        # the one allowed difference: an entry of A does not fit (inversehilbert
        # past n = 14, kms with |rho| > 1), so Bareiss cannot start, but the
        # answer fits, and only the answer is range-checked
        assert bareiss is RationalOverflowError and isinstance(closed, list)
        with pytest.raises(RationalOverflowError):
            materialize(h)
        assert _times(family, n, params, [v.as_fraction() for v in closed]) == [
            v.as_fraction() for v in b
        ]


@pytest.mark.parametrize("n", [16, 18, 20])
def test_hilbert_solve_falls_back_to_bareiss_where_the_inverse_overflows(n):
    h = construct("hilbert", n=n, scalar_kind=RATIONAL64)
    b = [Rational64.from_number(sum(Fraction(1, i + j - 1) for j in range(1, n + 1)))
         for i in range(1, n + 1)]
    assert _closed_solve(h, b) is None  # an entry of inversehilbert(n) exceeds 64 bits
    assert solve(h, b) == [Rational64(1)] * n


@pytest.mark.parametrize("n", [15, 20])
def test_inversehilbert_solve_answers_although_its_entries_overflow(n):
    # x = hilbert(n) b fits, while entries of A itself do not
    h = construct("inversehilbert", n=n, scalar_kind=RATIONAL64)
    b = [Rational64(1)] * n
    x = solve(h, b)
    assert [v.as_fraction() for v in x] == [
        sum(Fraction(1, i + j - 1) for j in range(1, n + 1)) for i in range(1, n + 1)
    ]


@pytest.mark.parametrize("kind", [FLOAT64, RATIONAL64])
@pytest.mark.parametrize(
    "family, n, params",
    [("pei", 1, {"alpha": 3}), ("pei", 1, {"alpha": -3})]
    + [("forsythe", n, p) for n in (1, 2, 5) for p in ({"alpha": 2, "lam": 3}, {"alpha": -3, "lam": -1})],
)
def test_without_a_closed_inverse_solve_is_elimination(kind, family, n, params):
    h = construct(family, n=n, scalar_kind=kind, **params)
    b = [Rational64(k) if kind == RATIONAL64 else float(k) for k in range(1, n + 1)]
    assert _closed_solve(h, b) is None
    assert solve(h, b) == solve_dense(materialize(h), b)


@pytest.mark.parametrize("kind", [FLOAT64, RATIONAL64])
@pytest.mark.parametrize("n", [2, 3, 7])
def test_singular_instances_are_refused(kind, n):
    for family, params in (("pei", {"alpha": 0}), ("pei", {"alpha": -n}), ("kms", {"rho": 1}),
                           ("kms", {"rho": -1})):
        h = construct(family, n=n, scalar_kind=kind, **params)
        with pytest.raises(SingularMatrixError):
            solve(h, [1] * n)


@pytest.mark.parametrize("family", ["pei", "minij", "hilbert", "grcar"])
@pytest.mark.parametrize("kind", [FLOAT64, RATIONAL64])
def test_a_wrong_length_right_hand_side_is_refused(family, kind):
    with pytest.raises(UnsupportedOperationError) as info:
        solve(construct(family, n=3, scalar_kind=kind), [1, 2])
    assert str(info.value) == "right-hand side length 2 != matrix dimension 3"


@pytest.mark.parametrize("family, params", [("pei", {"alpha": 1e300}), ("kms", {"rho": 1e300}),
                                            ("kms", {"rho": 1.7e308}), ("forsythe", {"alpha": -inf})])
@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_float_inverse_entries_lost_to_range_leave_solve_and_cond1_to_lu(family, params, n):
    # forsythe at alpha = -inf loses its corner to 1/alpha = -0.0; no inverse has
    # a zero row, so LU answers. pei and kms scale X by 1/alpha or 1/rho where
    # their square leaves the float range, so X keeps its entries and X b is
    # within C * n ulps of the exact answer (1/rho may be subnormal), also where
    # A itself holds an inf
    h = construct(family, n=n, scalar_kind=FLOAT64, **params)
    b = [float(k) for k in range(1, n + 1)]
    if family == "forsythe" or (family, n) == ("pei", 1):  # pei(1) has no closed inverse
        assert repr(_outcome(lambda: solve(h, b))) == repr(_outcome(lambda: solve_dense(materialize(h), b)))
    else:
        exact = _exact_solution(family, n, params, b)
        assert all(abs(Fraction(v) - e) <= C * n * ulp(float(e)) for v, e in zip(solve(h, b), exact))
    assert not cond1(h) < 1.0  # no condition number is below 1


# -- float64: forward error within C * n * u * cond1 ------------------------------


def _exact_solution(family, n, p, b):
    """A^-1 b exactly, from the structure of the inverse; the tests below
    check it against A at n <= 8."""
    b = [Fraction(v) for v in b]
    if family == "pei":
        a = Fraction(p["alpha"])
        if n == 1:
            return [b[0] / (a + 1)]
        s = sum(b) / (a + n)
        return [(v - s) / a for v in b]
    if family == "hilbert":
        return [sum(_inverse_hilbert(n, i, j) * b[j - 1] for j in range(1, n + 1))
                for i in range(1, n + 1)]
    if family == "kms" and n == 1:
        return b
    if family == "minij":
        diag, off = [Fraction(2)] * (n - 1) + [Fraction(1)], [Fraction(-1)] * (n - 1)
    elif family == "lehmer":
        diag = [Fraction(4 * i**3, 4 * i * i - 1) for i in range(1, n)] + [Fraction(n * n, 2 * n - 1)]
        off = [Fraction(-i * (i + 1), 2 * i + 1) for i in range(1, n)]
    else:  # kms
        r = Fraction(p["rho"])
        d = 1 - r * r
        diag = [1 / d] + [(1 + r * r) / d] * (n - 2) + [1 / d]
        off = [-r / d] * (n - 1)
    return [
        diag[i] * b[i] + (off[i - 1] * b[i - 1] if i else 0) + (off[i] * b[i + 1] if i < n - 1 else 0)
        for i in range(n)
    ]


def _float_cases(family):
    for n in range(1, 41):
        if family in ("minij", "lehmer"):
            yield n, {}
        elif family == "kms":
            for rho in (-0.999999999, -0.5, -0.1, 0.0, 0.3, 0.99, 0.999999999):
                yield n, {"rho": rho}
        elif family == "pei":
            for alpha in (1e-3, 0.1, 1.0, 10.0, 1e3, -0.5, 1e-3 - n, -n - 0.5, -2.0 * n):
                if alpha != -n:
                    yield n, {"alpha": alpha}
        elif n <= 10:  # hilbert
            yield n, {}


@pytest.mark.parametrize("family", ["minij", "lehmer", "kms", "pei", "hilbert"])
def test_float_closed_solve_forward_error_is_bounded_by_cond1(family):
    rng = random.Random(family)
    for n, params in _float_cases(family):
        h = construct(family, n=n, scalar_kind=FLOAT64, **params)
        b = [float(rng.randint(-9, 9) or 1) for _ in range(n)]
        exact = _exact_solution(family, n, params, b)
        if n <= 8:
            assert _times(family, n, params, exact) == b
        x = solve(h, b)
        err = max(abs(Fraction(v) - e) for v, e in zip(x, exact)) / max(map(abs, exact))
        assert float(err) <= C * n * U * cond1(h), (n, params)


def test_cond1_of_hilbert_4_is_exact():
    # ||H||_1 = 25/12 and ||H^-1||_1 = 13620; LU gave 28374.99...
    assert cond1(construct("hilbert", n=4, scalar_kind=FLOAT64)) == pytest.approx(28375, rel=1e-13)


# -- cond1: the closed route has no cap, the LU route does --------------------------


@pytest.mark.parametrize("rho", [0.5, -0.9, 0.0])
def test_cond1_past_the_cap_answers_from_the_closed_inverse(rho):
    # ||X||_1 = (1 + |rho|) / (1 - |rho|) from the tridiagonal inverse (n >= 3),
    # ||A||_1 the largest column sum of |rho|^|i - j|
    n = 200
    r = abs(Fraction(rho))
    partial = list(accumulate(r**k for k in range(n)))  # partial[m] = 1 + r + ... + r^m
    norm = max(partial[j] + partial[n - 1 - j] - 1 for j in range(n))  # column j + 1
    exact = norm * (1 + r) / (1 - r)
    assert cond1(construct("kms", n=n, rho=rho, scalar_kind=FLOAT64)) == pytest.approx(float(exact), rel=C * n * U)


def test_cond1_without_a_closed_inverse_is_refused_before_materializing(monkeypatch):
    made = []
    monkeypatch.setattr(linalg, "materialize", lambda h: made.append(h))
    n = COND1_DIM_BOUND + 1
    with pytest.raises(UnsupportedOperationError, match=f"dimension <= {COND1_DIM_BOUND}, got {n}"):
        cond1(construct("wilkinson", n=n))
    assert made == []


ROUTE_CASES = [("minij", {}), ("lehmer", {}), ("kms", {"rho": -0.5}), ("kms", {"rho": 0.99}), ("pei", {"alpha": 0.1}),
               ("pei", {"alpha": -7.5}), ("forsythe", {"alpha": 1e-3, "lambda": 0})]


@pytest.mark.parametrize(
    "family, params, n",
    [(f, p, n) for f, p in ROUTE_CASES for n in (1, 2, 7, 20, COND1_DIM_BOUND)]
    + [(f, {}, n) for f in ("hilbert", "inversehilbert") for n in (2, 7)],  # cond1 below 1/u
)
def test_cond1_closed_and_lu_routes_agree(family, params, n, monkeypatch):
    h = construct(family, n=n, scalar_kind=FLOAT64, **params)
    closed = cond1(h)
    monkeypatch.setattr(linalg, "_closed_inverse", lambda h: None)
    lu = cond1(h)
    # each route's ||A^-1||_1 is within C * n * u * cond1 relative of the exact one
    assert abs(closed - lu) <= C * n * U * closed * closed, (closed, lu)
