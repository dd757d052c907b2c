import math

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
    materialize,
    parse_property,
    properties_of,
    register_family,
    render_audit,
)
from tmat.families import feasible_size, get_family
from tmat.properties import (
    _BOOL_CHECKERS,
    _AuditContext,
    _check_eigen_tag,
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
        ("kms", {"rho": 1.5}, "posdef", True),  # float64, by the leading-pivot LU
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


# -- the eigen check: the closed spectrum against the exact characteristic polynomial --


def _eigen_findings(family, sizes, params=None):
    """(size, eigen finding) at each feasible size, also for a family without the eigen tag."""
    findings = []
    for n in sizes:
        if (size_params := feasible_size(family, n)) is not None:
            h = construct(family, {**size_params, **(params or {})})
            findings.append((n, _check_eigen_tag(_AuditContext(h, materialize(h)))))
    return findings


@pytest.mark.parametrize(
    "family, wrong, sizes",
    [
        ("clement", lambda closed: lambda h: [closed(h)[0]] * h.rows, [8, 16]),
        ("clement", lambda closed: lambda h: [v * 1.001 for v in closed(h)], [16]),
        ("jordbloc", lambda closed: lambda h: [v + 0.5 for v in closed(h)], [16]),
        ("jordbloc", lambda closed: lambda h: [v + 1.5 for v in closed(h)], [16]),
        ("forsythe", lambda closed: lambda h: [v + 0.05 for v in closed(h)], [8, 16]),
        ("forsythe", lambda closed: lambda h: [v + 0.5 for v in closed(h)], [16]),
        ("minij", lambda closed: lambda h: closed(h)[1:], [5]),
    ],
    ids=[
        "clement-first-repeated",
        "clement-times-1.001",
        "jordbloc-plus-0.5",
        "jordbloc-plus-1.5",
        "forsythe-plus-0.05",
        "forsythe-plus-0.5",
        "one-eigenvalue-dropped",
    ],
)
def test_planted_wrong_spectrum_fails_eigen_audit(monkeypatch, family, wrong, sizes):
    record = get_family(family)
    monkeypatch.setattr(record, "eigvals_fn", wrong(record.eigvals_fn))
    for report in audit(family, sizes):
        (finding,) = [f for f in report.findings if f.tag == "eigen"]
        assert finding.verdict == "fail", render_audit([report])


def test_zero_spectrum_of_a_nonsingular_matrix_fails_the_eigen_check():
    # prod(x + |lambda|) = x^3 leaves no tolerance below degree 3: c_0..c_2 must be 0
    register_family(
        FamilyDescriptor(
            id="zerospectrum",
            params=(ParamSpec("n", "dim"),),
            default_scalar_kind=tmat.FLOAT64,
            tags=("eigen",),
        ),
        lambda p, i, j, k: 2.0 if i == j else 0.0,
        eigvals_fn=lambda h: [0.0] * h.rows,
    )
    (report,) = audit("zerospectrum", [3])
    assert [(f.tag, f.verdict) for f in report.findings] == [("eigen", "fail")]


def test_spectrum_spanning_hundreds_of_decades_passes_the_eigen_check():
    # the products of the small eigenvalues reach 1e-450, below the float range
    register_family(
        FamilyDescriptor(
            id="graded",
            params=(ParamSpec("n", "dim"),),
            default_scalar_kind=tmat.FLOAT64,
            tags=("eigen",),
        ),
        lambda p, i, j, k: (1.0 if i == 1 else 1e-30) if i == j else 0.0,
        eigvals_fn=lambda h: [1.0] + [1e-30] * (h.rows - 1),
    )
    for report in audit("graded", [8, 12, 16]):
        assert [f.verdict for f in report.findings] == ["pass"], render_audit([report])


def test_eigen_audit_sees_one_eigenvalue_moved_by_a_millionth(monkeypatch):
    record = get_family("minij")
    closed = record.eigvals_fn
    monkeypatch.setattr(record, "eigvals_fn", lambda h: [closed(h)[0] * (1 + 1e-6)] + closed(h)[1:])
    (report,) = audit("minij", [16])
    assert ("eigen", "fail") in [(f.tag, f.verdict) for f in report.findings]


@pytest.mark.parametrize(
    "family, params",
    [("jordbloc", {"lambda": lam}) for lam in (0, -3, 1e-300, 0.1, 1e150, -1e200, 1e300)]
    + [
        ("forsythe", {"alpha": alpha, "lambda": lam})
        for alpha in (1e-10, 0.5, 1, 1e10, 1e-300)
        for lam in (0, 2, -1e100)
    ]
    + [("pei", {"alpha": alpha}) for alpha in (1e-3, -0.5, 1, 10, 1e6)]
    + [("clement", {"symmetric": sym}) for sym in (False, True)]
    + [("minij", {}), ("poisson", {})],
)
def test_true_closed_spectra_pass_the_eigen_check(family, params):
    for n, finding in _eigen_findings(family, range(1, 17), params):
        assert finding.verdict == "pass", (n, finding)
        assert finding.note.startswith("characteristic polynomial mismatch")


@pytest.mark.parametrize(
    "family, params",
    [
        ("jordbloc", {"lambda": 1e200}),
        ("jordbloc", {"lambda": 1e300}),
        ("forsythe", {"alpha": 1e-300, "lambda": 1e300}),
        ("forsythe", {"alpha": math.inf}),
    ],
)
def test_audit_of_extreme_parameters_returns_findings(family, params):
    reports = audit(family, [1, 2, 3, 8], params)
    assert [r.size for r in reports] == [1, 2, 3, 8]
    for report in reports:
        (finding,) = [f for f in report.findings if f.tag == "eigen"]
        assert finding.verdict in ("pass", "skipped", "not-checkable"), render_audit([report])


@pytest.mark.parametrize("family, params", [("forsythe", {"alpha": math.nan}), ("jordbloc", {"lambda": math.inf})])
def test_entries_that_are_not_finite_make_the_eigen_tag_not_checkable(family, params):
    for report in audit(family, [3, 8], params):
        verdicts = {f.tag: (f.verdict, f.note) for f in report.findings}
        assert verdicts["eigen"] == ("not-checkable", "an entry is not a finite real")


def test_eigvals_fn_refusal_skips_the_eigen_tag():
    ((_, finding),) = _eigen_findings("forsythe", [3], {"alpha": math.inf})
    assert finding.verdict == "skipped" and "beyond the float range" in finding.note


def test_complex_entries_make_the_eigen_tag_not_checkable():
    register_family(
        FamilyDescriptor(
            id="complexdiagonal",
            params=(ParamSpec("n", "dim"),),
            default_scalar_kind=tmat.FLOAT64,
            tags=("eigen", "nilpotent"),
        ),
        lambda p, i, j, k: 1j * i if i == j else 0.0,
        eigvals_fn=lambda h: [1j * i for i in range(1, h.rows + 1)],
    )
    (report,) = audit("complexdiagonal", [3])
    assert [(f.tag, f.verdict) for f in report.findings] == [
        ("eigen", "not-checkable"),
        ("nilpotent", "not-checkable"),
    ]


def test_nilpotent_is_exact():
    # a float power test takes jordbloc(1e-300)^n, 1e-2400 exactly, for zero
    assert _verdicts("jordbloc", 8, {"lambda": 1e-300})["nilpotent"] == "not-checkable"
    assert _verdicts("jordbloc", 8, {"lambda": 0})["nilpotent"] == "pass"


def test_unimodular_is_exact():
    # det = (a + 1)(a - 1) - a^2 = -1, which float LU loses to cancellation
    a = float(2**27)
    register_family(
        FamilyDescriptor(
            id="cancelling",
            params=(ParamSpec("n", "dim"),),
            default_scalar_kind=tmat.FLOAT64,
            tags=("unimodular",),
        ),
        lambda p, i, j, k: (a + 1 if i == 1 else a - 1) if i == j else a,
    )
    assert [f.verdict for r in audit("cancelling", [2]) for f in r.findings] == ["pass"]


@pytest.mark.parametrize("tag", ["orthogonal", "involutory", "normal"])
def test_float_product_checks_refuse_entries_whose_squares_overflow(tag):
    register_family(
        FamilyDescriptor(
            id="hugediagonal",
            params=(ParamSpec("n", "dim"),),
            default_scalar_kind=tmat.FLOAT64,
            tags=(tag,),
        ),
        lambda p, i, j, k: 1e200 if i == j else 0.0,
    )
    (report,) = audit("hugediagonal", [2])
    (finding,) = report.findings
    assert finding.verdict == "skipped" and "leave the float range" in finding.note


# -- NaN never passes a numeric check ----------------------------------------------


def test_a_nan_inverse_residual_fails_the_inverse_check():
    # forsythe(1) = [inf], whose closed inverse is [0]: A * inv(A) = [nan]
    (report,) = audit("forsythe", [1], {"alpha": math.inf})
    (finding,) = [f for f in report.findings if f.tag == "inverse"]
    assert (finding.verdict, finding.note) == ("fail", "max |A*inv(A) - I| = nan")


@pytest.mark.parametrize("tag", ["orthogonal", "involutory"])
def test_a_nan_residual_fails_the_orthogonal_and_involutory_checks(tag):
    # the identity with a NaN last entry: A'A and AA are the identity wherever no NaN enters
    register_family(
        FamilyDescriptor(id="nanidentity", params=(ParamSpec("n", "dim"),), default_scalar_kind=tmat.FLOAT64,
                         tags=(tag,)),
        lambda p, i, j, k: math.nan if i == j == p["n"] else float(i == j),
    )
    for n in (1, 2, 3):
        h = construct("nanidentity", n=n)
        assert _BOOL_CHECKERS[tag](_AuditContext(h, materialize(h))) is False
        (report,) = audit("nanidentity", [n])
        assert [(f.tag, f.verdict) for f in report.findings] == [(tag, "not-checkable")]


def test_a_nan_condition_number_is_undefined_not_below_the_threshold():
    # forsythe(1) = [inf]: ||A||_1 ||A^-1||_1 = inf * 0
    (report,) = audit("forsythe", [1], {"alpha": math.inf})
    (finding,) = [f for f in report.findings if f.tag == "illcond"]
    assert (finding.verdict, finding.note) == ("not-checkable", "advisory: cond1 is undefined (NaN)")
