"""float64 rank through a family's closed inverse X.

rank returns n without elimination only where ||A||_F ||X||_F proves that
every pivot of the partially pivoted LU clears its zero bound by a wide
margin; everywhere else the same LU runs on the same matrix. So rank must
equal rank_dense(materialize(h)) on every instance, and the tests here pin
that, the route taken, and the cost where the certificate fails.
"""

from math import inf, isfinite, nan

import pytest

import tmat.linalg as linalg
from tmat import FLOAT64, SingularMatrixError, cond1, construct, inverse, materialize, rank, solve
from tmat.linalg import _certifies_full_rank, as_dense, rank_dense

SIZES = [1, 2, 3, 4, 5, 8, 13, 24]


def _kms_rhos():
    near_one = [s * (1 - 10.0**-k) for k in range(3, 17) for s in (1, -1)]
    return near_one + [0.5, -0.3, 1.0, -1.0, 2.0, 1e154, 1e300, -1e300, nan, inf]


def _pei_alphas(n):
    return [1e-12, 1e-6, 0.5, 2.0, 1e6, 1e154, 1e300, 0.0, -n + 1e-9, -n, nan, inf, -inf]


FORSYTHE_ALPHAS = [5e-324, 1e-310, 1e-300, 1e-12, 1e-10, 1.0, -3.0, 1e10, 1e300, nan, inf, -inf, 0.0]


def _cases():
    for n in SIZES:
        for family in ("hilbert", "inversehilbert", "minij", "lehmer"):
            yield family, n, {}
        for rho in _kms_rhos():
            yield "kms", n, {"rho": rho}
        for alpha in _pei_alphas(n):
            yield "pei", n, {"alpha": alpha}
        for alpha in FORSYTHE_ALPHAS:
            yield "forsythe", n, {"alpha": alpha, "lam": 0}
    for family, params in (("lehmer", {}), ("minij", {}), ("kms", {"rho": 0.9}), ("pei", {"alpha": 1e-3}),
                           ("forsythe", {"alpha": 1e-12, "lam": 0}), ("hilbert", {})):
        yield family, 40, params


def test_rank_equals_the_lu_rank_on_every_closed_inverse_instance():
    for family, n, params in _cases():
        h = construct(family, n=n, scalar_kind=FLOAT64, **params)
        assert rank(h) == rank_dense(materialize(h)), (family, n, params)


def test_certified_instances_never_factor(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("LU ran")

    monkeypatch.setattr(linalg, "_lu_factor", refuse)
    for family, n, params in (("lehmer", 150, {}), ("kms", 100, {"rho": 0.5}), ("pei", 100, {"alpha": 2.0})):
        assert rank(construct(family, n=n, scalar_kind=FLOAT64, **params)) == n


@pytest.mark.parametrize("n", range(2, 9))
def test_forsythe_at_its_default_alpha_is_rank_deficient(n):
    # pivots 1, ..., 1, alpha = 1e-10 against the bound 1e-10 * ||A||_F
    h = construct("forsythe", n=n, scalar_kind=FLOAT64)
    d = materialize(h)
    assert not _certifies_full_rank(h, d)
    assert rank(h) == rank_dense(d) == n - 1


@pytest.mark.parametrize(
    "family, n, params",
    [("kms", n, {"rho": 1 - 1e-12}) for n in (2, 3, 8)]
    + [(family, n, params) for n in (1, 2, 3, 8)
       for family, params in (("pei", {"alpha": 1e300}), ("kms", {"rho": 1e300}), ("kms", {"rho": 1.7e308}),
                              ("forsythe", {"alpha": -inf}))
       if (family, n) != ("kms", 1)]  # kms(1) = [1] = X, which loses nothing
    + [("forsythe", 1, {"alpha": 5e-324}), ("kms", 3, {"rho": 1.0}), ("pei", 3, {"alpha": 0.0}),
       ("pei", 3, {"alpha": -3.0}), ("pei", 1, {"alpha": 2.0}), ("forsythe", 3, {"alpha": 1.0, "lam": 2.0})],
)
def test_uncertified_instances_reach_lu(family, n, params):
    # lost or infinite entries of X or A, a refusing or declining inverse_fn: LU answers.
    # pei and kms scale X where their square overflows, so at 1e300 X keeps its
    # entries and certifies rank n wherever A is finite
    h = construct(family, n=n, scalar_kind=FLOAT64, **params)
    d = materialize(h)
    whole = params in ({"alpha": 1e300}, {"rho": 1e300}) and n > 1 and all(map(isfinite, d.data))
    assert _certifies_full_rank(h, d) == whole
    assert rank(h) == rank_dense(d)


@pytest.mark.parametrize("family", ["hilbert", "inversehilbert"])
def test_a_failing_certificate_reads_one_column_of_a_lazy_inverse(family, monkeypatch):
    read, columns = [], linalg.columns

    def counted(h, **kwargs):
        for column in columns(h, **kwargs):
            read.append(column[0])
            yield column

    monkeypatch.setattr(linalg, "columns", counted)
    h = construct(family, n=150, scalar_kind=FLOAT64)
    assert not _certifies_full_rank(h, materialize(h))
    assert read == [1]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_forsythe_at_a_subnormal_alpha_answers_by_lu_on_every_route(n):
    # 1/alpha is inf, so the closed inverse declines and inverse agrees with solve
    h = construct("forsythe", n=n, alpha=5e-324, lam=0, scalar_kind=FLOAT64)
    assert h.record.inverse_fn(h) is None
    if n == 1:  # [alpha] clears the bound 1e-13 * alpha, which underflows to 0
        assert as_dense(inverse(h)).data == solve(h, [1.0]) == [inf]
    else:
        with pytest.raises(SingularMatrixError):
            inverse(h)
        with pytest.raises(SingularMatrixError):
            solve(h, [1.0] * n)
    assert cond1(h) == inf
    assert rank(h) == max(1, n - 1)
