"""Whole-column kernels at extreme parameters: each builtin column_fn that
computes a column without calling the element function must give, at every
position, the value and type element() gives there, and where an entry
overflows, materialize must name the entry element() names first in
column-major order. The audit's column_fn check must treat the same NaN from
both routes as agreement.
"""

import math
from fractions import Fraction

import pytest

import tmat
from tmat import FLOAT64, RATIONAL64, construct, element, materialize
from tmat.properties import audit, has_failures, render_audit

NAN, INF = math.nan, math.inf
KMS_RHO = (1e200, -1e200, 1e-200, -1.7e308, NAN, INF, -INF, -0.0, Fraction(3, 2), 10**6, 2**62)
SCALARS = (NAN, INF, -INF, 1e308, -1e308, 2**-62, 2**62, -(2**63), Fraction(-7, 3))
VECTORS = (
    (1.7e308, 1.7e308, -1.7e308),
    (1e308, -1e-308, 1.0),
    (2**-62, 2**-62, 2**62),
    (2**62, 2**62, 3),
    (-(2**63), 1, 2**62),
    (NAN, INF, -INF),
    (Fraction(1, 3), Fraction(-5, 7), 2**-62),
)


def _cases():
    for n in (1, 2, 5):
        for rho in KMS_RHO:
            yield "kms", {"n": n, "rho": rho}
        for a in SCALARS:
            yield "forsythe", {"n": n, "alpha": a}
            yield "forsythe", {"n": n, "lambda": a}
            yield "forsythe", {"n": n, "alpha": a, "lambda": a}
            for k in (0, 1, n):
                yield "triw", {"n": n, "alpha": a, "k": k}
        yield "frank", {"n": n}
    for v in VECTORS:
        yield "companion", {"v": v}
        yield "companion", {"v": v[:1]}
        yield "cauchy", {"x": v}
        yield "cauchy", {"x": v, "y": (1, 2**62, 2**-62)}
    for k in (1, 2, 3, 4):
        yield "poisson", {"n": k}


def _instances():
    for family, params in _cases():
        for kind in (FLOAT64, RATIONAL64):
            try:
                yield construct(family, params, scalar_kind=kind)
            except tmat.ParameterError:  # NaN, inf or a float beyond 64 bits in rational64
                pass


INSTANCES = tuple(_instances())


def _same(a, b):
    return type(a) is type(b) and (a == b or (a != a and b != b))


def _reference(h):
    """Column-major element() values, or the first error element() raises."""
    values = []
    for j in range(1, h.cols + 1):
        for i in range(1, h.rows + 1):
            try:
                values.append(element(h, i, j))
            except tmat.RationalOverflowError as exc:
                return None, str(exc)
    return values, None


def test_every_family_with_a_whole_column_kernel_is_covered():
    covered = {(h.family, h.scalar_kind) for h in INSTANCES}
    families = ("kms", "cauchy", "forsythe", "companion", "frank", "triw", "poisson")
    assert covered == {(f, k) for f in families for k in (FLOAT64, RATIONAL64)}
    assert len(INSTANCES) > 300


@pytest.mark.parametrize(
    "h", INSTANCES, ids=[f"{h.family}-{h.scalar_kind}-{k}" for k, h in enumerate(INSTANCES)]
)
def test_kernel_equals_element_at_extreme_parameters(h):
    assert h.record.column_fn is not None
    want, error = _reference(h)
    if error is not None:
        with pytest.raises(tmat.RationalOverflowError) as raised:
            materialize(h)
        assert str(raised.value) == error
        return
    got = materialize(h).data
    assert len(got) == len(want)
    for k, (a, b) in enumerate(zip(got, want)):
        assert _same(a, b), (h.params, k % h.rows + 1, k // h.rows + 1, a, b)


def test_overflowing_entries_are_refused_where_element_refuses():
    h = construct("kms", n=45, rho=Fraction(3, 2), scalar_kind=RATIONAL64)  # 3**40 > 2**63
    with pytest.raises(tmat.RationalOverflowError, match=r"kms entry \(41, 1\)"):
        materialize(h)
    h = construct("companion", v=(1, -(2**63)), scalar_kind=RATIONAL64)
    with pytest.raises(tmat.RationalOverflowError, match=r"companion entry \(2, 2\)"):
        materialize(h)
    h = construct("cauchy", x=(1, 2**62), y=(1, 2**62), scalar_kind=RATIONAL64)
    with pytest.raises(tmat.RationalOverflowError, match=r"cauchy entry \(2, 2\)"):
        materialize(h)


def test_float_kms_powers_beyond_range_are_signed_infinities():
    column = materialize(construct("kms", n=4, rho=-1e200)).data[:4]
    assert column == [1.0, -1e200, INF, -INF]


@pytest.mark.parametrize(
    "family, params",
    [
        ("jordbloc", {"lambda": NAN}),
        ("forsythe", {"alpha": NAN}),
        ("forsythe", {"lambda": NAN}),
        ("kms", {"rho": NAN}),
        ("companion", {"v": (NAN, 1.0, NAN)}),
    ],
)
def test_nan_parameters_give_no_column_fn_finding(family, params):
    reports = audit(family, [1, 2, 3], params)
    assert "column_fn" not in render_audit(reports)


def test_a_nan_where_element_fn_gives_a_number_fails_the_audit():
    tmat.register_family(
        tmat.FamilyDescriptor(
            id="nancolumn", params=(tmat.ParamSpec("n", "dim"),), default_scalar_kind=FLOAT64, tags=()
        ),
        lambda p, i, j, k: NAN if i == j else 1.0,
        column_fn=lambda p, j, k: (1, [NAN] * p["n"]),
    )
    reports = audit("nancolumn", [1, 2])
    assert not has_failures(reports[:1])  # NaN on both sides
    text = render_audit(reports)
    assert "nancolumn\t2\tcolumn_fn\tfail\tcolumn_fn disagrees with element_fn at (2, 1)" in text
