"""Closed-form determinants on plain integers: hilbert, inversehilbert,
cauchy, minij, lehmer and lotkin against independent Fraction oracles,
refusals included, and the cauchy entries they are built from.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import tmat
from oracles import cofactor_det, frac_rows
from tmat import FLOAT64, RATIONAL64, construct, determinant, materialize
from tmat.catalog import _inv_hilbert_det_int
from tmat.linalg import _bareiss, det_dense
from tmat.scalars import from_exact, one

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


wide_fractions = st.builds(Fraction, st.integers(-(2**63), 2**63 - 1), st.integers(1, 2**63 - 1))


@EXACT
@example(Fraction(1, 2**62 + 1), Fraction(1, 2**62 + 3))
@example(Fraction(-(2**63)), Fraction(0))  # x + y fits, its reciprocal does not
@example(Fraction(2**63 - 1), Fraction(1))
@example(Fraction(2**63 - 1, 2), Fraction(-(2**63 - 3), 2))
@given(st.one_of(small_fractions, wide_fractions), st.one_of(small_fractions, wide_fractions))
def test_cauchy_rational_entry_is_the_exact_reciprocal(x, y):
    # one construction from the integer ratios: refused exactly when the
    # reciprocal does not fit in 64 bits
    if x + y == 0:
        return
    h = construct("cauchy", x=(x,), y=(y,), scalar_kind=RATIONAL64)
    want = _result(lambda: from_exact(RATIONAL64, 1 / (x + y), "cauchy"))
    got = _result(lambda: tmat.element(h, 1, 1))
    if isinstance(want, tuple):
        assert got[0] is want[0] is tmat.RationalOverflowError
    else:
        assert got == want and type(got) is type(want)


def test_cauchy_rational_det_with_unequal_generators():
    x = (Fraction(-7, 2), Fraction(1, 3), 2, Fraction(5, 4))
    y = (Fraction(9, 5), 4, Fraction(-1, 6), 11)
    h = construct("cauchy", x=x, y=y, scalar_kind=RATIONAL64)
    assert determinant(h).as_fraction() == _cauchy_oracle(x, y)
    assert determinant(h).as_fraction() == cofactor_det(
        [[1 / Fraction(xi + yj) for yj in y] for xi in x]
    )


# -- minij, lehmer and lotkin: closed products against elimination --------------


def _fraction_det(rows):
    """Exact determinant by Gaussian elimination on Fractions."""
    a = [list(row) for row in rows]
    det = Fraction(1)
    for c in range(len(a)):
        p = next((i for i in range(c, len(a)) if a[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for row in a[c + 1:]:
            f = row[c] / a[c][c]
            row[c + 1:] = [x - f * y for x, y in zip(row[c + 1:], a[c][c + 1:])]
    return det


@settings(EXACT, max_examples=30)
@given(family=st.sampled_from(["minij", "lehmer", "lotkin"]), n=st.integers(0, 24))
def test_minij_lehmer_lotkin_dets_match_elimination(family, n):
    # the entries always fit rational64; the determinants stop fitting at
    # n = 7 (lotkin) and n = 20 (lehmer), where the closed form must refuse
    rows = frac_rows(construct(family, n=n))
    value = _bareiss(rows, n)[3]
    assert value == _fraction_det(rows)
    for kind in (RATIONAL64, FLOAT64):
        got = _result(lambda: determinant(construct(family, n=n, scalar_kind=kind)))
        want = _result(lambda: from_exact(kind, value, "determinant"))
        assert got == want
        assert type(got) is type(want)


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


# -- order 0: the empty product before any closed routine, the empty spectrum -------


def _empty_instances():
    """(family, kind) for every builtin that constructs at n = 0 in that kind."""
    for family in tmat.list_families():
        for kind in (RATIONAL64, FLOAT64):
            try:
                construct(family, n=0, scalar_kind=kind)
            except tmat.ParameterError:  # forsythe's default alpha is no rational64
                continue
            yield family, kind


@pytest.mark.parametrize("family, kind", list(_empty_instances()))
def test_the_empty_determinant_is_one_without_calling_det_fn(family, kind, monkeypatch):
    h = construct(family, n=0, scalar_kind=kind)
    monkeypatch.setattr(h.record, "det_fn", lambda h: pytest.fail("det_fn called at order 0"))
    det = determinant(h)
    assert det == one(kind) == det_dense(materialize(h))
    assert type(det) is type(one(kind))


@pytest.mark.parametrize("family, kind", list(_empty_instances()))
def test_the_empty_spectrum_is_empty(family, kind):
    assert tmat.eigvals(construct(family, n=0, scalar_kind=kind)) == []


@pytest.mark.parametrize("family, params", [("lotkin", {"n": 0}), ("companion", {"v": ()})])
def test_the_audit_calls_no_det_fn_at_order_0(family, params):
    (report,) = tmat.audit(family, [2], params=params)
    assert "det_fn" not in {f.tag for f in report.findings}


@pytest.mark.parametrize("alpha", [0, 1e-300])
def test_the_empty_pei_inverse_is_empty(alpha):
    # the closed formula divides by alpha (alpha + n), which underflows to 0 at n = 0
    assert tmat.inverse(construct("pei", n=0, alpha=alpha, scalar_kind=FLOAT64)).dims == (0, 0)


def test_the_audit_of_pei_at_order_0_finds_no_failure():
    (report,) = tmat.audit("pei", [2], params={"n": 0})
    assert "fail" not in {f.verdict for f in report.findings}
