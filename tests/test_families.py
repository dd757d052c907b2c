import math
from fractions import Fraction

import pytest

import tmat
from tmat import (
    DuplicateFamilyError,
    FamilyDescriptor,
    ParamSpec,
    ParameterError,
    Rational64,
    SingularMatrixError,
    UnknownFamilyError,
    construct,
    determinant,
    eigvals,
    entry_sum,
    feasible_size,
    frobenius_norm,
    inverse,
    list_families,
    materialize,
    register_family,
)
from tmat.families import get_family
from tmat.linalg import as_dense, is_exact_identity, jacobi_eigvals, matmul_dense, _float_rows

from fixtures_n4 import MATRICES
from oracles import cofactor_det, frac_rows, to_fraction

CATALOG_ORDER = [
    "hilbert",
    "inversehilbert",
    "cauchy",
    "minij",
    "clement",
    "lehmer",
    "pei",
    "pascal",
    "kms",
    "moler",
    "forsythe",
    "jordbloc",
    "frank",
    "lotkin",
    "grcar",
    "wilkinson",
    "poisson",
    "companion",
    "triw",
]

SYMMETRIC_TAGGED = [
    f for f in CATALOG_ORDER if "symmetric" in get_family(f).descriptor.tags
]


def test_catalog_listing():
    fams = list_families()
    assert len(fams) == 19
    assert fams[0] == "hilbert"
    assert fams == CATALOG_ORDER


def test_register_extension_extends_listing():
    from tmat.sumij import install_sumij

    install_sumij()
    assert len(list_families()) == 20
    d = materialize(construct("sumij", n=5))
    assert [float(v) for v in d.to_rows()[0]] == [2, 3, 4, 5, 6]


def test_register_duplicate_rejected():
    desc = get_family("hilbert").descriptor
    with pytest.raises(DuplicateFamilyError):
        register_family(desc, lambda p, i, j, k: 0)


def test_register_unknown_tag_rejected():
    desc = FamilyDescriptor(
        id="shinymat",
        params=(ParamSpec("n", "dim"),),
        default_scalar_kind=tmat.FLOAT64,
        tags=("shiny",),
    )
    with pytest.raises(ParameterError, match="unknown property"):
        register_family(desc, lambda p, i, j, k: 0.0)


def test_capability_requires_routine():
    desc = FamilyDescriptor(
        id="capless",
        params=(ParamSpec("n", "dim"),),
        default_scalar_kind=tmat.FLOAT64,
        tags=("integer",),
        capabilities=frozenset({"closed_det"}),
    )
    with pytest.raises(ParameterError, match="without a routine"):
        register_family(desc, lambda p, i, j, k: 0.0)


def test_routines_are_the_capabilities():
    # 2I, with no capabilities declared: the routines passed are dispatched
    calls = []

    def routine(name, value):
        return lambda h: calls.append(name) or value

    register_family(
        FamilyDescriptor("undeclared", (ParamSpec("n", "dim"),), tmat.FLOAT64, ()),
        lambda p, i, j, k: 2.0 if i == j else 0.0,
        det_fn=routine("det", 9.0),  # wrong on purpose: 2**3 is 8
        eigvals_fn=routine("eigvals", [2.0, 2.0, 2.0]),
        predicates={"symmetric": routine("symmetric", True)},
    )
    h = construct("undeclared", n=3)
    assert determinant(h) == 9.0
    assert eigvals(h) == [2.0, 2.0, 2.0]
    assert tmat.is_symmetric(h) is True
    assert calls == ["det", "eigvals", "symmetric"]
    assert get_family("undeclared").descriptor.capabilities == {
        "closed_det",
        "closed_eigvals",
        "closed_predicates",
    }
    # and the audit cross-checks the routine dispatch answered with
    (report,) = tmat.audit("undeclared", [3])
    assert [(f.tag, f.verdict) for f in report.findings] == [("det_fn", "fail")]


def test_declared_capabilities_must_name_every_routine():
    desc = FamilyDescriptor(
        id="underdeclared",
        params=(ParamSpec("n", "dim"),),
        default_scalar_kind=tmat.FLOAT64,
        tags=(),
        capabilities=frozenset({"closed_det"}),
    )
    with pytest.raises(ParameterError, match="passes routines for"):
        register_family(
            desc, lambda p, i, j, k: 0.0, det_fn=lambda h: 0.0, eigvals_fn=lambda h: []
        )


def test_unknown_family():
    with pytest.raises(UnknownFamilyError):
        construct("wathen", n=4)


def test_unknown_parameter():
    with pytest.raises(ParameterError, match="unknown parameter"):
        construct("hilbert", n=3, beta=2)


@pytest.mark.parametrize("family", list(MATRICES))
def test_catalog_fixtures_at_n4(family):
    if family == "sumij":
        from tmat.sumij import install_sumij

        install_sumij()
    got = frac_rows(construct(family, n=4))
    want = [[Fraction(v) for v in row] for row in MATRICES[family]]
    assert got == want


@pytest.mark.parametrize("family", SYMMETRIC_TAGGED)
def test_symmetry_by_construction(family):
    d = materialize(construct(family, n=6))
    n = d.rows
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert d.get(i, j) == d.get(j, i)


CLOSED_DET_FAMILIES = [
    f for f in CATALOG_ORDER if "closed_det" in get_family(f).descriptor.capabilities
]


@pytest.mark.parametrize("family", CLOSED_DET_FAMILIES)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_closed_determinants_match_exact_oracle(family, n):
    h = construct(family, n=n)
    oracle = cofactor_det(frac_rows(h))
    closed = determinant(h)
    if isinstance(closed, Rational64):
        assert closed.as_fraction() == oracle
    else:
        if oracle == 0:
            assert abs(closed) <= 1e-12
        else:
            assert abs(closed - float(oracle)) <= 1e-12 * abs(float(oracle))


EXACT_INVERSE_FAMILIES = ["hilbert", "inversehilbert", "minij", "lehmer", "pei"]


@pytest.mark.parametrize("family", EXACT_INVERSE_FAMILIES)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_closed_inverses_exact_identity(family, n):
    h = construct(family, n=n)
    product = matmul_dense(materialize(h), as_dense(inverse(h)))
    assert is_exact_identity(product)


@pytest.mark.parametrize("family,params", [("kms", {}), ("forsythe", {})])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_closed_inverses_float(family, params, n):
    h = construct(family, dict(params, n=n))
    product = matmul_dense(materialize(h), as_dense(inverse(h)))
    worst = max(
        abs(product.get(i, j) - (1.0 if i == j else 0.0))
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )
    assert worst <= 1e-12


def test_kms_exact_rational_inverse():
    h = construct("kms", n=5, scalar_kind=tmat.RATIONAL64)
    product = matmul_dense(materialize(h), as_dense(inverse(h)))
    assert is_exact_identity(product)


@pytest.mark.parametrize(
    "family,params,n",
    [
        ("minij", {}, 8),
        ("poisson", {}, 2),
        ("pei", {}, 8),
        ("clement", {"symmetric": True}, 8),
    ],
)
def test_closed_spectra_match_jacobi(family, params, n):
    h = construct(family, dict(params, n=n))
    closed = sorted(float(v) for v in eigvals(h))
    oracle = jacobi_eigvals(_float_rows(h))
    assert len(closed) == len(oracle)
    assert max(abs(a - b) for a, b in zip(closed, oracle)) <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_hilbert_determinant_reciprocity(n):
    dh = determinant(construct("hilbert", n=n))
    di = determinant(construct("inversehilbert", n=n))
    assert dh * di == 1


def test_cauchy_generator_collision_rejected():
    with pytest.raises(ParameterError, match="collide"):
        construct("cauchy", x=[1, 2], y=[3, -1])
    with pytest.raises(ParameterError, match=r"x indices \[2\]"):
        construct("cauchy", x=[Fraction(1, 3), Fraction(-5, 7)], y=[Fraction(5, 7)])
    with pytest.raises(ParameterError, match="collide"):
        construct("cauchy", x=[float("inf")], y=[float("-inf")])


def test_cauchy_collision_check_does_not_negate_into_the_64_bit_range():
    # -(-2**63) does not fit, but the one entry 1/(1 - 2**63) does
    h = construct("cauchy", x=[1], y=[-(2**63)])
    assert tmat.element(h, 1, 1) == Rational64(-1, 2**63 - 1)
    h = construct("cauchy", x=[1.0, float("nan")], y=[float("nan"), 2.0])
    assert h.scalar_kind == tmat.FLOAT64 and h.dims == (2, 2)


def test_cauchy_scalar_kind_resolution():
    assert construct("cauchy", n=4).scalar_kind == tmat.RATIONAL64
    assert construct("cauchy", x=[1, 2, 3]).scalar_kind == tmat.RATIONAL64
    assert construct("cauchy", x=[0.5, 1.5]).scalar_kind == tmat.FLOAT64


def test_kms_rho_one_constructs_but_inverse_fails():
    h = construct("kms", n=3, rho=1.0)
    with pytest.raises(SingularMatrixError):
        inverse(h)


@pytest.mark.parametrize("rho", [1e100, -1e100])
def test_kms_powers_beyond_the_float_range_are_signed_infs(rho):
    # rho^k leaves the float range from k = 4 on
    h = construct("kms", n=40, rho=rho, scalar_kind=tmat.FLOAT64)
    d = materialize(h)
    assert [d.get(1, j) for j in (3, 4, 5, 6)] == [rho**2, rho**3, math.inf, math.copysign(math.inf, rho)]
    if rho > 0:
        assert entry_sum(h) == math.inf
    else:
        assert math.isnan(entry_sum(h))  # inf + -inf
    assert frobenius_norm(h) == math.inf
    assert determinant(h) == -math.inf  # (1 - rho^2)^39


def test_pei_singular_alpha_values():
    with pytest.raises(SingularMatrixError):
        inverse(construct("pei", n=3, alpha=0))
    with pytest.raises(SingularMatrixError):
        inverse(construct("pei", n=3, alpha=-3))
    assert determinant(construct("pei", n=3, alpha=-3)) == 0


def test_clement_symmetric_variant_needs_float():
    with pytest.raises(ParameterError, match="float64"):
        construct("clement", n=4, symmetric=True, scalar_kind=tmat.RATIONAL64)
    d = materialize(construct("clement", n=4, symmetric=True))
    assert d.get(1, 2) == pytest.approx(3**0.5)
    assert d.get(2, 1) == d.get(1, 2)


def test_forsythe_default_alpha_not_rational():
    with pytest.raises(ParameterError):
        construct("forsythe", n=3, scalar_kind=tmat.RATIONAL64)
    # exact parameters make the rational kind legal
    h = construct("forsythe", n=3, alpha=Fraction(1, 8), lam=0, scalar_kind=tmat.RATIONAL64)
    assert materialize(h).get(3, 1) == Rational64(1, 8)


def test_feasible_size():
    assert feasible_size("poisson", 4) == {"n": 2}
    assert feasible_size("poisson", 3) is None
    assert feasible_size("poisson", 1) == {"n": 1}
    params = feasible_size("hilbert", 7)
    assert tmat.dims(construct("hilbert", params)) == (7, 7)
    with pytest.raises(ParameterError):
        feasible_size("hilbert", 0)


def test_lambda_alias():
    a = construct("jordbloc", n=3, lam=0)
    b = construct("jordbloc", {"lambda": 0, "n": 3})
    assert materialize(a).to_rows() == materialize(b).to_rows()


def test_grcar_band_count():
    d = materialize(construct("grcar", n=3))
    nnz = sum(1 for v in d.data if v != 0)
    assert nnz == 8


def test_wilkinson_halves_are_exact_in_both_kinds():
    r = materialize(construct("wilkinson", n=4, scalar_kind=tmat.RATIONAL64))
    f = materialize(construct("wilkinson", n=4))
    assert to_fraction(r.get(1, 1)) == Fraction(3, 2)
    assert f.get(1, 1) == 1.5
