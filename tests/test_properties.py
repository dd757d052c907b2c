import pytest

import tmat
from tmat import (
    FamilyDescriptor,
    ParamSpec,
    UnknownFamilyError,
    UnknownPropertyError,
    audit,
    construct,
    list_properties,
    parse_property,
    properties_of,
    register_family,
    render_audit,
)
from tmat.families import get_family
from tmat.properties import (
    _BOOL_CHECKERS,
    DECLARATIVE_TAGS,
    EXISTENTIAL_TAGS,
    PROPERTY_TAGS,
    enumerate_minors,
    has_failures,
)

from oracles import frac_rows, naive_symmetric, naive_toeplitz, naive_tridiagonal, to_fraction


def test_vocabulary_size_and_order():
    props = list_properties()
    assert len(props) == 37
    assert props[0] == "bidiagonal"
    assert props[-1] == "unimodular"
    assert props == list(PROPERTY_TAGS)
    assert "symmetric" in props


def test_parse_property_case_insensitive():
    assert parse_property("SYMMETRIC") == "symmetric"
    assert parse_property(" TotPos ") == "totpos"
    with pytest.raises(UnknownPropertyError, match="valid properties"):
        parse_property("shiny")


def test_properties_of_examples():
    assert properties_of("hilbert") == ["symmetric", "inverse", "illcond", "posdef", "totpos"]
    handle = construct("hilbert", n=5)
    assert properties_of(handle) == properties_of("hilbert")
    with pytest.raises(UnknownFamilyError):
        properties_of("wathen")


def test_properties_of_sumij():
    from tmat.sumij import install_sumij

    install_sumij()
    assert properties_of("sumij") == ["symmetric", "integer", "positive", "rankdef"]


def test_vocabulary_closure():
    vocab = set(list_properties())
    for family in tmat.list_families():
        assert set(properties_of(family)) <= vocab


def _verdicts(family, size, params=None):
    (report,) = audit(family, [size], params)
    assert [f.tag for f in report.findings] == properties_of(family)
    return {f.tag: f.verdict for f in report.findings}


def test_audit_hilbert_example():
    verdicts = _verdicts("hilbert", 4)
    for tag in ("symmetric", "inverse", "posdef", "totpos", "illcond"):
        assert verdicts[tag] == "pass"


def test_audit_jordbloc_example():
    verdicts = _verdicts("jordbloc", 4, {"lambda": 0})
    assert verdicts["nilpotent"] == "pass"
    assert verdicts["eigen"] == "pass"
    assert verdicts["defective"] == "not-checkable"


def test_audit_jordbloc_default_shift_has_no_nilpotent_witness():
    verdicts = _verdicts("jordbloc", 4)
    assert verdicts["nilpotent"] == "not-checkable"


def test_audit_minij_eigen():
    assert _verdicts("minij", 6)["eigen"] == "pass"


def test_audit_lotkin_eigen_not_checkable():
    # the eigen tag is declarative for lotkin: no closed-form routine exists
    verdicts = _verdicts("lotkin", 4)
    assert verdicts["eigen"] == "not-checkable"
    assert verdicts["inverse"] == "pass"


def test_audit_size_over_bound_skips():
    (report,) = audit("hilbert", [32])
    assert all(f.verdict == "skipped" for f in report.findings)


def test_audit_infeasible_size_skips():
    (report,) = audit("poisson", [3])
    assert all(f.verdict == "skipped" for f in report.findings)


def test_audit_minor_bound():
    (report,) = audit("hilbert", [8])
    verdicts = {f.tag: f.verdict for f in report.findings}
    assert verdicts["totpos"] == "skipped"
    assert verdicts["symmetric"] == "pass"


def test_audit_unknown_family():
    with pytest.raises(UnknownFamilyError):
        audit("wathen", [4])


def test_audit_rejects_nonpositive_sizes():
    with pytest.raises(tmat.ParameterError):
        audit("hilbert", [0])


def test_full_builtin_audit_is_fail_free():
    for family in tmat.list_families():
        reports = audit(family, [1, 2, 3, 4, 5])
        assert not has_failures(reports), render_audit(reports)


def test_mis_tagged_family_fails_audit():
    register_family(
        FamilyDescriptor(
            id="nottridiag",
            params=(ParamSpec("n", "dim"),),
            default_scalar_kind=tmat.FLOAT64,
            tags=("tridiagonal",),
        ),
        lambda p, i, j, k: 1.0,
    )
    reports = audit("nottridiag", [4])
    assert has_failures(reports)


def test_wrong_closed_spectrum_fails_eigen_audit():
    # jordbloc's entries with the spectrum shifted by 0.5: det(A - mu I) = (-0.5)^n
    jordbloc = get_family("jordbloc")
    register_family(
        FamilyDescriptor(
            id="shiftedspectrum",
            params=jordbloc.descriptor.params,
            default_scalar_kind=tmat.FLOAT64,
            tags=("eigen",),
            capabilities=frozenset({"closed_eigvals"}),
        ),
        jordbloc.element_fn,
        eigvals_fn=lambda h: [h.params["lambda"] + 0.5] * h.rows,
    )
    for report in audit("shiftedspectrum", [3, 5]):
        assert [f.verdict for f in report.findings] == ["fail"], render_audit([report])


@pytest.mark.parametrize("base", ["jordbloc", "lehmer"])
def test_wrong_closed_det_fails_det_audit(base):
    # float64 (checked within tol * cond1) and rational64 (checked exactly)
    record = get_family(base)
    register_family(
        FamilyDescriptor(
            id="wrongdet",
            params=record.descriptor.params,
            default_scalar_kind=record.descriptor.default_scalar_kind,
            tags=(),
            capabilities=frozenset({"closed_det"}),
        ),
        record.element_fn,
        det_fn=lambda h: 1 + record.det_fn(h),
    )
    for report in audit("wrongdet", [3, 5]):
        assert [(f.tag, f.verdict) for f in report.findings] == [("det_fn", "fail")]


@pytest.mark.parametrize(
    "base, params, name, claim",
    [
        ("jordbloc", None, "symmetric", True),
        ("lehmer", None, "posdef", False),
        ("pei", {"alpha": 0}, "posdef", True),  # ones: a zero leading minor
        ("pei", {"alpha": -4}, "posdef", True),  # a negative leading minor
        ("kms", {"rho": 1.5}, "posdef", True),  # float64, by Cholesky
        ("minij", None, "diagonal", True),
    ],
)
def test_wrong_predicate_fails_predicate_audit(base, params, name, claim):
    record = get_family(base)
    register_family(
        FamilyDescriptor(
            id="wrongpredicate",
            params=record.descriptor.params,
            default_scalar_kind=record.descriptor.default_scalar_kind,
            tags=(),
            capabilities=frozenset({"closed_predicates"}),
        ),
        record.element_fn,
        # a predicate name with no generic route is not checked
        predicates={name: lambda h: claim, "other": lambda h: claim},
    )
    for report in audit("wrongpredicate", [3, 5], params):
        assert [(f.tag, f.verdict) for f in report.findings] == [("predicates", "fail")]
        assert report.findings[0].note.startswith(f"{name} predicate gives {claim}")


def test_det_audit_agrees_when_both_routes_refuse():
    # det(lotkin_16) and det(hilbert_16) do not fit rational64 on either route
    for family in ("lotkin", "hilbert"):
        (report,) = audit(family, [16])
        assert not [f for f in report.findings if f.tag == "det_fn"]


def test_existential_mistag_softens_to_not_checkable():
    register_family(
        FamilyDescriptor(
            id="notposdef",
            params=(ParamSpec("n", "dim"),),
            default_scalar_kind=tmat.FLOAT64,
            tags=("posdef",),
        ),
        lambda p, i, j, k: -1.0 if i == j else 0.0,
    )
    (report,) = audit("notposdef", [3])
    assert report.findings[0].verdict == "not-checkable"
    assert "posdef" in EXISTENTIAL_TAGS


@pytest.mark.parametrize("family", tuple(tmat.list_families()))
def test_audit_scan_soundness_vs_independent_scans(family):
    size = 5 if tmat.feasible_size(family, 5) is not None else 4
    params = tmat.feasible_size(family, size)
    h = construct(family, params)
    rows = frac_rows(h)
    verdicts = _verdicts(family, size)
    tags = set(properties_of(family))
    if "symmetric" in tags:
        assert (verdicts["symmetric"] == "pass") == naive_symmetric(rows)
    if "toeplitz" in tags:
        assert (verdicts["toeplitz"] == "pass") == naive_toeplitz(rows)
    if "tridiagonal" in tags:
        assert (verdicts["tridiagonal"] == "pass") == naive_tridiagonal(rows)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_minor_enumeration_consistency(n):
    h = construct("hilbert", n=n)
    d = tmat.materialize(h)
    minors = list(enumerate_minors(d))
    # 1x1 minors are the entries themselves
    singletons = {
        (r[0], c[0]): det for r, c, det in minors if len(r) == 1
    }
    for i in range(n):
        for j in range(n):
            assert singletons[(i, j)] == to_fraction(d.get(i + 1, j + 1))
    # the full n x n minor is the determinant
    full = [det for r, c, det in minors if len(r) == n]
    assert full == [tmat.determinant(h).as_fraction()]


def test_render_audit_format():
    reports = audit("minij", [3])
    lines = render_audit(reports).splitlines()
    assert len(lines) == len(properties_of("minij"))
    first = lines[0].split("\t")
    assert first[0] == "minij"
    assert first[1] == "3"
    assert first[2] in PROPERTY_TAGS
    assert first[3] in ("pass", "fail", "not-checkable", "skipped")


def test_every_tag_has_a_check():
    # declarative, special-cased in _audit_tag, or a boolean checker
    special = {"illcond", "inverse", "eigen", "singval"}
    for tag in PROPERTY_TAGS:
        assert tag in DECLARATIVE_TAGS or tag in special or tag in _BOOL_CHECKERS, tag
    register_family(
        FamilyDescriptor(
            id="alltags",
            params=(ParamSpec("n", "dim"),),
            default_scalar_kind=tmat.FLOAT64,
            tags=PROPERTY_TAGS,
        ),
        lambda p, i, j, k: 1.0 / (i + j - 1),
    )
    (report,) = audit("alltags", [3])
    assert [f.tag for f in report.findings] == list(PROPERTY_TAGS)


def _diagonal(value):
    def inverse_fn(h):
        rows = [[value if i == j else 0.0 for j in range(h.cols)] for i in range(h.rows)]
        return tmat.DenseMatrix.from_rows(rows, tmat.FLOAT64)

    return inverse_fn


@pytest.mark.parametrize(
    "routines, extra",
    [
        ({"eigvals_fn": lambda h: [5.0] * h.rows}, [("eigvals_fn", "fail")]),
        ({"inverse_fn": _diagonal(1.0)}, [("inverse_fn", "fail")]),
        ({"eigvals_fn": lambda h: [2.0] * h.rows, "inverse_fn": _diagonal(0.5)}, []),
    ],
)
def test_undeclared_routine_is_audited(routines, extra):
    # 2I with no eigen or inverse tag; eigvals and inverse still dispatch to the routines
    register_family(
        FamilyDescriptor(
            id="twiceidentity",
            params=(ParamSpec("n", "dim"),),
            default_scalar_kind=tmat.FLOAT64,
            tags=("symmetric",),
        ),
        lambda p, i, j, k: 2.0 if i == j else 0.0,
        **routines,
    )
    (report,) = audit("twiceidentity", [3])
    assert [(f.tag, f.verdict) for f in report.findings] == [("symmetric", "pass")] + extra
