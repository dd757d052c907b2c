"""The column-band path: every bulk entry loop reads the matrix through
core.columns, so each family's column_fn must expand to exactly what
element() returns, and every bulk output must equal one built from element().
"""

import io
import math
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import tmat
from tmat import (
    FLOAT64,
    RATIONAL64,
    FamilyDescriptor,
    MatrixMarketError,
    ParamSpec,
    RationalOverflowError,
    construct,
    element,
    entry_sum,
    export_array,
    export_coordinate,
    frobenius_norm,
    is_diagonal,
    is_symmetric,
    materialize,
    register_family,
)
from tmat.catalog import _cauchy_det
from tmat.cli import _render_value, main
from tmat.core import MatrixHandle, columns, frobenius_of_dense
from tmat.families import FamilyRecord, get_family
from tmat.linalg import det_dense
from tmat.mmio import format_value
from tmat.properties import audit, has_failures, render_audit

BANDS = settings(
    derandomize=True,
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
BUILTINS = tuple(tmat.list_families())
KINDS = (FLOAT64, RATIONAL64)

small_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


def _entries(h):
    """Row lists of element(h, i, j): the reference every bulk path must match."""
    return [[element(h, i, j) for j in range(1, h.cols + 1)] for i in range(1, h.rows + 1)]


def _expanded(h):
    """Row lists of what columns(h) says the matrix is."""
    rows = [[None] * h.cols for _ in range(h.rows)]
    zero = tmat.scalars.zero(h.scalar_kind)
    for j, first, values in columns(h):
        assert 1 <= first and first + len(values) - 1 <= h.rows
        for i in range(1, h.rows + 1):
            k = i - first
            rows[i - 1][j - 1] = values[k] if 0 <= k < len(values) else zero
    return rows


def _same(a, b):
    return type(a) is type(b) and (a == b or (a != a and b != b))


# -- columns(h) against element() ---------------------------------------------------


@st.composite
def builtin_params(draw, family):
    """Random constructor parameters for a builtin family (n <= 12, poisson grid <= 4)."""
    params = {}
    for spec in get_family(family).descriptor.params:
        if spec.kind == "dim":
            value = draw(st.integers(0, 4 if family == "poisson" else 12))
        elif spec.kind == "scalar":
            value = draw(small_fractions)
        elif spec.kind == "bool":
            value = draw(st.booleans())
        else:
            value = draw(st.lists(small_fractions, max_size=12))
        if spec.required or draw(st.booleans()):
            params[spec.name] = value
    return params


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("family", BUILTINS)
@BANDS
@given(data=st.data())
def test_columns_expand_to_element_everywhere(family, kind, data):
    params = data.draw(builtin_params(family))
    try:
        h = construct(family, params, scalar_kind=kind)
    except tmat.ParameterError:
        assume(False)
    try:
        want = _entries(h)
    except RationalOverflowError:
        with pytest.raises(RationalOverflowError, match="entry .*float64"):
            materialize(h)
        return
    got = _expanded(h)
    for i, (want_row, got_row) in enumerate(zip(want, got), 1):
        for j, (a, b) in enumerate(zip(want_row, got_row), 1):
            assert _same(a, b), (family, params, kind, i, j, a, b)


# -- bulk outputs against references built from element() ---------------------------


def _instances():
    for family in BUILTINS:
        for n in (1, 2, 3, 4) if family == "poisson" else (0, 1, 2, 3, 7, 16):
            for kind in KINDS:
                try:
                    yield construct(family, n=n, scalar_kind=kind)
                except tmat.ParameterError:
                    pass


INSTANCES = tuple(_instances())
IDS = tuple(f"{h.family}-{h.rows}-{h.scalar_kind}" for h in INSTANCES)


def _header(h, layout, symmetry):
    text = f"%%MatrixMarket matrix {layout} real {symmetry}\n"
    return text + ("% scalar-kind: rational64\n" if h.scalar_kind == RATIONAL64 else "")


def _reference_array(rows, h, symmetric):
    text = _header(h, "array", "symmetric" if symmetric else "general") + f"{h.rows} {h.cols}\n"
    for j in range(h.cols):
        for i in range(j if symmetric else 0, h.rows):
            text += format_value(float(rows[i][j])) + "\n"
    return text


def _reference_coordinate(rows, h, zero_tol):
    kept = [
        f"{i} {j} {format_value(float(v))}\n"
        for i, row in enumerate(rows, 1)
        for j, v in enumerate(row, 1)
        if abs(float(v)) > zero_tol
    ]
    return _header(h, "coordinate", "general") + f"{h.rows} {h.cols} {len(kept)}\n" + "".join(kept)


def _write(writer, h, **kwargs):
    sink = io.StringIO()
    writer(h, sink, **kwargs)
    return sink.getvalue()


@pytest.mark.parametrize("h", INSTANCES, ids=IDS)
def test_bulk_outputs_match_element_reference(h):
    try:
        rows = _entries(h)
    except RationalOverflowError:
        return  # covered by test_kernel_overflow_names_the_entry
    data = materialize(h).data
    assert all(_same(data[(j - 1) * h.rows + i - 1], rows[i - 1][j - 1])
               for j in range(1, h.cols + 1) for i in range(1, h.rows + 1))
    assert _write(export_array, h) == _reference_array(rows, h, False)
    for tol in (0.0, 0.5, -1.0):
        assert _write(export_coordinate, h, zero_tol=tol) == _reference_coordinate(rows, h, tol)
    symmetric = h.rows == h.cols and all(
        rows[i][j] == rows[j][i] for i in range(h.rows) for j in range(i)
    )
    assert tmat.linalg._scan_symmetric(h) == symmetric
    assert tmat.linalg._scan_diagonal(h) == all(
        v == 0 for i, row in enumerate(rows) for j, v in enumerate(row) if i != j
    )
    if symmetric:
        assert _write(export_array, h, symmetric=True) == _reference_array(rows, h, True)
    else:
        with pytest.raises(MatrixMarketError):
            _write(export_array, h, symmetric=True)
    if h.scalar_kind == FLOAT64:
        assert entry_sum(h) == math.fsum(v for row in rows for v in row)
        assert frobenius_norm(h) == math.hypot(*(math.hypot(*map(float, col)) for col in zip(*rows)))
    else:
        total = sum((v.as_fraction() for row in rows for v in row), Fraction(0))
        if abs(total.numerator) < 2**63 and total.denominator < 2**63:
            assert entry_sum(h).as_fraction() == total


@pytest.mark.parametrize("family", BUILTINS)
@pytest.mark.parametrize("type_flag", ("f64", "rat"))
def test_show_matches_element_reference(family, type_flag, capsys):
    for size in (1, 4, 9, 16) if family == "poisson" else (1, 2, 3, 7, 16):
        kind = FLOAT64 if type_flag == "f64" else RATIONAL64
        try:
            h = construct(family, tmat.feasible_size(family, size), scalar_kind=kind)
            rows = _entries(h)
        except (tmat.ParameterError, RationalOverflowError):
            continue
        assert main(["show", family, str(size), "--type", type_flag]) == 0
        want = "".join("\t".join(_render_value(v) for v in row) + "\n" for row in rows)
        assert capsys.readouterr().out == want


def test_kernel_overflow_names_the_entry():
    h = construct("pascal", n=40, scalar_kind=RATIONAL64)
    pattern = r"pascal entry \(\d+, \d+\): .*float64"
    with pytest.raises(RationalOverflowError, match=pattern) as info:
        materialize(h)
    i, j = (int(v) for v in str(info.value).split("(")[1].split(")")[0].split(", "))
    with pytest.raises(RationalOverflowError):
        element(h, i, j)


# -- scans over arbitrary bands ------------------------------------------------------


@st.composite
def banded_matrices(draw):
    """A small matrix with a declared band per column that covers its nonzeros."""
    n = draw(st.integers(0, 6))
    value = st.sampled_from((0.0, 0.0, 0.0, 1.0, 2.0, -1.0))
    rows = [[draw(value) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    bands = []
    for j in range(n):
        nonzero = [i for i in range(n) if rows[i][j]]
        lo = draw(st.integers(0, min(nonzero, default=n)))
        hi = draw(st.integers(max(nonzero, default=lo - 1), n - 1)) if n else -1
        bands.append((lo, max(hi, lo - 1)))
    return rows, bands


def _handle(rows, bands):
    n = len(rows)

    def column_fn(params, j, kind):
        lo, hi = bands[j - 1]
        return lo + 1, [rows[i][j - 1] for i in range(lo, hi + 1)]

    desc = FamilyDescriptor(id="banded", params=(), default_scalar_kind=FLOAT64, tags=())
    record = FamilyRecord(
        desc, lambda p, i, j, k: rows[i - 1][j - 1], lambda p: (n, n), column_fn=column_fn
    )
    return MatrixHandle("banded", {}, FLOAT64, n, n, record)


@settings(BANDS, max_examples=400)
@given(matrix=banded_matrices())
def test_band_scans_match_dense_scans(matrix):
    rows, bands = matrix
    h = _handle(rows, bands)
    n = len(rows)
    assert is_symmetric(h) == all(rows[i][j] == rows[j][i] for i in range(n) for j in range(n))
    assert is_diagonal(h) == all(rows[i][j] == 0 for i in range(n) for j in range(n) if i != j)
    assert entry_sum(h) == math.fsum(v for row in rows for v in row)
    assert materialize(h).to_rows() == rows
    for tol in (0.0, -1.0):
        assert _write(export_coordinate, h, zero_tol=tol) == _reference_coordinate(rows, h, tol)
    assert _write(export_array, h) == _reference_array(rows, h, False)


# -- the audit checks a declared band --------------------------------------------------


def test_builtin_bands_pass_the_audit():
    for family in BUILTINS:
        reports = audit(family, [1, 2, 3, 4, 5, 8, 16])
        assert not any(f.tag == "column_fn" for r in reports for f in r.findings), family


def test_too_narrow_band_fails_the_audit():
    register_family(
        FamilyDescriptor(
            id="narrowband",
            params=(ParamSpec("n", "dim"),),
            default_scalar_kind=FLOAT64,
            tags=("symmetric",),
        ),
        lambda p, i, j, k: 1.0 if abs(i - j) <= 1 else 0.0,
        column_fn=lambda p, j, k: (j, [1.0]),  # drops both off-diagonals
    )
    reports = audit("narrowband", [1, 3])
    assert not has_failures(reports[:1])  # a 1x1 matrix has no off-diagonal
    assert has_failures(reports[1:])
    assert "narrowband\t3\tcolumn_fn\tfail\tcolumn_fn disagrees with element_fn at (2, 1)" in (
        render_audit(reports)
    )


def _register_band(name, column_fn):
    register_family(
        FamilyDescriptor(
            id=name, params=(ParamSpec("n", "dim"),), default_scalar_kind=FLOAT64, tags=()
        ),
        lambda p, i, j, k: 1.0,
        column_fn=column_fn,
    )


BULK_OPS = {
    "materialize": materialize,
    "is_symmetric": is_symmetric,
    "entry_sum": entry_sum,
    "frobenius_norm": frobenius_norm,
    "export_array": lambda h: export_array(h, io.StringIO()),
    "export_coordinate": lambda h: export_coordinate(h, io.StringIO()),
    "export_coordinate_all": lambda h: export_coordinate(h, io.StringIO(), zero_tol=-1.0),
}


@pytest.mark.parametrize("op", BULK_OPS.values(), ids=BULK_OPS.keys())
@pytest.mark.parametrize(
    "band, rows",
    [((1, [1.0] * 3), "1..3"), ((0, [1.0]), "0..0"), ((2, [1.0, 1.0]), "2..3")],
)
def test_a_band_outside_the_rows_names_the_column_fn(op, band, rows):
    _register_band("badband", lambda p, j, k: band if j == 1 else (1, [1.0, 1.0]))
    message = f"column_fn of family 'badband' gives column 1 rows {rows}, outside rows 1..2"
    with pytest.raises(tmat.ParameterError, match=re.escape(message)):
        op(construct("badband", n=2))


def test_an_empty_band_is_a_zero_column_whatever_its_first_row():
    _register_band("emptyband", lambda p, j, k: (3, []))
    h = construct("emptyband", n=1)
    assert materialize(h).data == [0.0]
    assert is_symmetric(h) and entry_sum(h) == 0.0
    assert _write(export_array, h).endswith("1 1\n0\n")
    assert _write(export_coordinate, h).endswith("1 1 0\n")
    assert _write(export_coordinate, h, zero_tol=-1.0).endswith("1 1 1\n1 1 0\n")


# -- exact entry sums ---------------------------------------------------------------------


def _fraction_sum(h):
    return sum((v.as_fraction() for row in _entries(h) for v in row), Fraction(0))


def test_rational_entry_sum_of_lehmer_200_fits():
    assert entry_sum(construct("lehmer", n=200, scalar_kind=RATIONAL64)) == 20100


@pytest.mark.parametrize("family, n", (("hilbert", 23), ("cauchy", 22), ("lotkin", 24)))
def test_rational_entry_sum_checks_only_the_total(family, n):
    h = construct(family, n=n)
    (record,) = tmat.test_algorithm(
        tmat.harness.FN_MENU["sum"], [n], groups=["builtin"], exclude=set(BUILTINS) - {family}
    )
    assert record.value.as_fraction() == _fraction_sum(h) == entry_sum(h).as_fraction()


def test_rational_entry_sum_beyond_64_bits_names_the_operation():
    with pytest.raises(RationalOverflowError, match="entry_sum: .*float64"):
        entry_sum(construct("hilbert", n=60, scalar_kind=RATIONAL64))


# -- Frobenius norms beyond the square range -------------------------------------------------


def test_frobenius_norm_of_pascal_300_does_not_overflow():
    n = 300
    exact = sum(math.comb(i + j, i) ** 2 for i in range(n) for j in range(n))
    value = frobenius_norm(construct("pascal", n=n, scalar_kind=FLOAT64))
    assert value == pytest.approx(math.isqrt(exact), rel=1e-14)


@pytest.mark.parametrize(
    "op",
    [
        tmat.rank,
        lambda h: det_dense(materialize(h)),
        lambda h: tmat.solve(h, [1.0] * 300),
        tmat.inverse,
    ],
    ids=["rank", "det_dense", "solve", "inverse"],
)
def test_float_pivot_tolerance_of_pascal_300_does_not_overflow(op):
    # the tolerance ||A||_F (about 4.5e178) fits although its squares do not;
    # each route returns or refuses with a TmatError, never OverflowError
    h = construct("pascal", n=300, scalar_kind=FLOAT64)
    assert frobenius_of_dense(materialize(h)) == frobenius_norm(h)
    try:
        op(h)
    except tmat.TmatError:
        pass


def test_frobenius_norm_beyond_float_range_is_inf():
    register_family(
        FamilyDescriptor(
            id="huge", params=(ParamSpec("n", "dim"),), default_scalar_kind=FLOAT64, tags=()
        ),
        lambda p, i, j, k: 1e308,
    )
    assert frobenius_norm(construct("huge", n=2)) == math.inf
    assert frobenius_norm(construct("huge", n=1)) == 1e308


# -- the cauchy float64 closed determinant ---------------------------------------------------


def _cauchy_exact_det(x, y):
    n = len(x)
    num = math.prod((x[j] - x[i]) * (y[j] - y[i]) for j in range(n) for i in range(j))
    return Fraction(num) / math.prod(xi + yj for xi in x for yj in y)


@pytest.mark.parametrize("n", (1, 2, 5, 10, 20))
def test_cauchy_float_det_matches_exact(n):
    x = [Fraction(i) for i in range(1, n + 1)]
    y = [Fraction(2 * i - 1, 3) for i in range(1, n + 1)]
    h = construct("cauchy", x=[float(v) for v in x], y=[float(v) for v in y])
    assert h.scalar_kind == FLOAT64
    assert _cauchy_det(h) == pytest.approx(float(_cauchy_exact_det(x, y)), rel=1e-12)


def _cauchy_log_det(x, y):
    """(sign, log |det|) of the Cauchy matrix, from the logs of its factors."""
    n = len(x)
    factors = [(x[j] - x[i]) * (y[j] - y[i]) for j in range(n) for i in range(j)]
    sums = [xi + yj for xi in x for yj in y]
    sign = -1 if sum(v < 0 for v in factors + sums) % 2 else 1
    return sign, math.fsum(math.log(abs(v)) for v in factors) - math.fsum(
        math.log(abs(v)) for v in sums
    )


@pytest.mark.parametrize("n", (50, 100, 200))
def test_cauchy_float_det_at_large_n_matches_log_det(n):
    # x_i + y_j = i - j + 1/2: the determinant is near 2^n while the numerator
    # and denominator products on their own leave the float range
    x = [float(i) for i in range(1, n + 1)]
    y = [0.5 - i for i in range(1, n + 1)]
    sign, log_det = _cauchy_log_det(x, y)
    value = _cauchy_det(construct("cauchy", x=x, y=y))
    assert value == pytest.approx(sign * math.exp(log_det), rel=1e-9)
    # the default instance's determinant is far below the float range
    sign, log_det = _cauchy_log_det(x, x)
    assert log_det < -745
    assert tmat.determinant(construct("cauchy", n=n, scalar_kind=FLOAT64)) == 0.0


def test_cauchy_float_det_beyond_range_is_signed_inf():
    # x_i + y_i = 1e-10 on the diagonal, so |det| is near 1e10^n
    x = [float(i) for i in range(1, 41)]
    h = construct("cauchy", x=x, y=[1e-10 - v for v in x])
    assert h.scalar_kind == FLOAT64
    assert abs(_cauchy_det(h)) == math.inf
