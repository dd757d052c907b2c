"""No exception but a TmatError escapes a public operation on a builtin.

Every builtin in both scalar kinds, at orders 0 to 8, with one scalar
parameter set to an extreme value: zero, tiny, subnormal, huge, the largest
float, infinite, NaN, or just inside int64. Each operation, and the dense
positive-definiteness test of the materialized matrix, returns or raises a
TmatError.
"""

import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tmat
from tmat import FLOAT64, RATIONAL64, construct, materialize
from tmat.families import get_family
from tmat.linalg import dense_is_posdef

SCALARS = [
    0, 1, -1, 0.5, -0.5, 1e-10, 1e-300, 5e-324, 1e300, -1e300,
    sys.float_info.max, float("inf"), float("-inf"), float("nan"), 2**62,
]
OPS = {
    "determinant": tmat.determinant,
    "inverse": tmat.inverse,
    "solve": lambda h: tmat.solve(h, [1] * h.rows),
    "eigvals": tmat.eigvals,
    "rank": tmat.rank,
    "cond1": tmat.cond1,
    "is_symmetric": tmat.is_symmetric,
    "is_posdef": tmat.is_posdef,
    "is_diagonal": tmat.is_diagonal,
    "dense_is_posdef": lambda h: dense_is_posdef(materialize(h)),
}
SWEEP = settings(
    derandomize=True, deadline=None, max_examples=40, suppress_health_check=[HealthCheck.too_slow]
)


@pytest.mark.parametrize("kind", [RATIONAL64, FLOAT64])
@pytest.mark.parametrize("family", tmat.list_families())
@SWEEP
@given(data=st.data())
def test_every_op_returns_or_raises_a_tmat_error(family, kind, data):
    scalars = [p.name for p in get_family(family).descriptor.params if p.kind == "scalar"]
    params = {"n": data.draw(st.sampled_from([0, 1, 2, 3, 8]), label="n")}
    if scalars:
        name = data.draw(st.sampled_from(scalars), label="parameter")
        params[name] = data.draw(st.sampled_from(SCALARS), label=name)
    op = data.draw(st.sampled_from(sorted(OPS)), label="op")
    try:
        OPS[op](construct(family, params, scalar_kind=kind))
    except tmat.TmatError:
        pass
