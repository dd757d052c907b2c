"""Property vocabulary, tag queries, and the tag audit engine.

The vocabulary is a fixed, closed set of 37 structural/mathematical tags.
audit() machine-checks the decidable tags of a family on small materialized
instances; tags whose definitions are existential over the parameter space
("... for some parameter values") can pass with a witness but never fail,
and purely declarative tags report not-checkable.
"""

from __future__ import annotations

import itertools
from cmath import isfinite
from dataclasses import dataclass
from functools import cached_property
from math import inf, isqrt, sqrt

from .core import DenseMatrix, MatrixHandle, frobenius_of_dense, materialize
from .errors import ParameterError, RationalOverflowError, TmatError, UnknownPropertyError
from .families import construct, feasible_size, get_family
from .linalg import (
    _bandwidths,
    _bareiss,
    _charpoly,
    _integer_scaled,
    as_dense,
    cond1,
    dense_is_diagonal,
    dense_is_posdef,
    dense_is_symmetric,
    det_dense,
    inverse,
    is_exact_identity,
    jacobi_eigvals,
    matmul_dense,
    max_abs_identity_residual,
    rank_dense,
)
from .scalars import FLOAT64, RATIONAL64, value_is_integer

PROPERTY_TAGS: tuple[str, ...] = (
    "bidiagonal",
    "binary",
    "circulant",
    "complex",
    "correlation",
    "defective",
    "diagdom",
    "eigen",
    "fixedsize",
    "graph",
    "hankel",
    "hessenberg",
    "illcond",
    "indefinite",
    "infdiv",
    "integer",
    "inverse",
    "involutory",
    "nilpotent",
    "nonneg",
    "normal",
    "orthogonal",
    "positive",
    "posdef",
    "random",
    "rankdef",
    "rectangular",
    "regprob",
    "singval",
    "sparse",
    "symmetric",
    "triangular",
    "tridiagonal",
    "toeplitz",
    "totnonneg",
    "totpos",
    "unimodular",
)

# Tags defined as holding "for some parameter values": a failed check at the
# audited parameters means no witness, not a violation.
EXISTENTIAL_TAGS = frozenset(
    {
        "illcond",
        "indefinite",
        "involutory",
        "nilpotent",
        "nonneg",
        "orthogonal",
        "positive",
        "posdef",
        "rankdef",
        "rectangular",
        "symmetric",
        "totnonneg",
        "totpos",
        "unimodular",
    }
)

# Tags with no machine-checkable content on a single small instance.
DECLARATIVE_TAGS = frozenset({"random", "fixedsize", "graph", "regprob", "infdiv", "defective"})

PASS = "pass"
FAIL = "fail"
NOT_CHECKABLE = "not-checkable"
SKIPPED = "skipped"

AUDIT_SIZE_BOUND = 16
MINOR_BOUND = 6
AUDIT_TOL = 1e-10
ILLCOND_THRESHOLD = 1e4


def list_properties() -> list[str]:
    """All 37 tags, in vocabulary order."""
    return list(PROPERTY_TAGS)


def parse_property(name: str) -> str:
    canon = str(name).strip().lower()
    if canon not in PROPERTY_TAGS:
        raise UnknownPropertyError(
            f"unknown property '{name}'; valid properties: {', '.join(PROPERTY_TAGS)}"
        )
    return canon


def properties_of(family_or_handle) -> list[str]:
    """Declared tag list of a family (or of a handle's family), declaration order."""
    if isinstance(family_or_handle, MatrixHandle):
        family_id = family_or_handle.family
    else:
        family_id = family_or_handle
    return list(get_family(family_id).descriptor.tags)


@dataclass(frozen=True)
class AuditFinding:
    tag: str
    verdict: str
    note: str = ""


@dataclass(frozen=True)
class AuditReport:
    family: str
    size: int
    findings: tuple[AuditFinding, ...]

    @property
    def failures(self) -> list[AuditFinding]:
        return [f for f in self.findings if f.verdict == FAIL]


class _AuditContext:
    def __init__(self, handle, dense):
        self.handle = handle
        self.dense = dense

    @cached_property
    def float_dense(self):
        d = self.dense
        return DenseMatrix(d.rows, d.cols, [float(v) for v in d.data], FLOAT64)

    @cached_property
    def float_rows(self):
        return self.float_dense.to_rows()

    @cached_property
    def float_transpose(self):
        d = self.dense
        return DenseMatrix(d.cols, d.rows, [v for row in self.float_rows for v in row], FLOAT64)

    @cached_property
    def symmetric(self):
        return dense_is_symmetric(self.dense)

    @cached_property
    def posdef(self):
        return dense_is_posdef(self.dense)

    @cached_property
    def frob(self):
        return frobenius_of_dense(self.dense)

    @cached_property
    def condition(self):
        """cond1 of the instance, or the TmatError that refused it."""
        try:
            return cond1(self.handle)
        except TmatError as exc:
            return exc

    @cached_property
    def charpoly(self):
        """c_0..c_n of det(xI - A), or None unless A is square with finite real entries."""
        d = self.dense
        real = d.rows == d.cols and all(isfinite(v) and not isinstance(v, complex) for v in d.data)
        return _charpoly(d.to_rows()) if real else None

    @cached_property
    def bandwidths(self):
        """(lower, upper): the largest i - j and j - i over the nonzero entries."""
        return _bandwidths(self.dense.to_rows())[1:]


# -- structural scans -----------------------------------------------------------


def _check_symmetric(ctx):
    return ctx.symmetric


def _check_triangular(ctx):
    return min(ctx.bandwidths) == 0


def _check_bidiagonal(ctx):
    return sorted(ctx.bandwidths) <= [0, 1]


def _check_tridiagonal(ctx):
    return max(ctx.bandwidths) <= 1


def _check_hessenberg(ctx):
    return min(ctx.bandwidths) <= 1


def _check_toeplitz(ctx):
    d = ctx.dense
    return all(
        d.get(i, j) == d.get(i + 1, j + 1)
        for i in range(1, d.rows)
        for j in range(1, d.cols)
    )


def _check_hankel(ctx):
    d = ctx.dense
    return all(
        d.get(i, j) == d.get(i + 1, j - 1)
        for i in range(1, d.rows)
        for j in range(2, d.cols + 1)
    )


def _check_circulant(ctx):
    d = ctx.dense
    if d.rows != d.cols:
        return False
    n = d.rows
    return all(
        d.get(i, j) == d.get(1, ((j - i) % n) + 1)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )


def _check_binary(ctx):
    values = {float(v) for v in ctx.dense.data}
    return len(values) <= 2


def _check_integer(ctx):
    return all(value_is_integer(v) for v in ctx.dense.data)


def _check_positive(ctx):
    return all(v > 0 for v in ctx.dense.data)


def _check_nonneg(ctx):
    return all(v >= 0 for v in ctx.dense.data)


def _check_diagdom(ctx):
    rows = ctx.float_rows
    for i, row in enumerate(rows):
        off = sum(abs(v) for j, v in enumerate(row) if j != i)
        if i >= len(row) or abs(row[i]) < off:
            return False
    return True


def _check_sparse(ctx):
    d = ctx.dense
    nnz = sum(1 for v in d.data if v != 0)
    return nnz <= max(3 * max(d.rows, d.cols), (d.rows * d.cols) // 2)


def _check_rectangular(ctx):
    return ctx.dense.rows != ctx.dense.cols


def _check_complex(ctx):
    return any(isinstance(v, complex) for v in ctx.dense.data)


# -- numeric checks ---------------------------------------------------------------


def _near(ctx, residual):
    """residual <= AUDIT_TOL * max(1, ||A||_F)^2, refused where float products may overflow."""
    f = max(1.0, ctx.frob)
    if f * f == inf:
        raise TmatError(f"products of entries with ||A||_F = {f:.3e} leave the float range")
    return residual <= AUDIT_TOL * f * f


def _check_posdef(ctx):
    return ctx.posdef


def _check_orthogonal(ctx):
    if ctx.dense.rows != ctx.dense.cols:
        return False
    return _near(ctx, max_abs_identity_residual(matmul_dense(ctx.float_transpose, ctx.float_dense)))


def _check_involutory(ctx):
    if ctx.dense.rows != ctx.dense.cols:
        return False
    return _near(ctx, max_abs_identity_residual(matmul_dense(ctx.float_dense, ctx.float_dense)))


def _check_normal(ctx):
    if ctx.dense.rows != ctx.dense.cols:
        return False
    a, t = ctx.float_dense, ctx.float_transpose
    return _near(ctx, max(abs(x - y) for x, y in zip(matmul_dense(t, a).data, matmul_dense(a, t).data)))


def _check_nilpotent(ctx):  # Cayley-Hamilton: A^n = 0 iff det(xI - A) = x^n
    return ctx.charpoly is not None and not any(ctx.charpoly[:-1])


def _check_unimodular(ctx):  # |det A| = |c_0|
    return _check_integer(ctx) and ctx.charpoly is not None and abs(ctx.charpoly[0]) == 1


def _check_rankdef(ctx):
    return rank_dense(ctx.dense) < min(ctx.dense.dims)


def _check_correlation(ctx):
    d = ctx.dense
    if not ctx.symmetric or any(d.get(i, i) != 1 for i in range(1, d.rows + 1)):
        return False
    vals = jacobi_eigvals(ctx.float_rows)
    return all(v >= -AUDIT_TOL * max(1.0, ctx.frob) for v in vals)


def _check_indefinite(ctx):
    d = ctx.dense
    if d.rows != d.cols:
        return False
    if not ctx.symmetric:
        raise TmatError("indefiniteness check requires a symmetric matrix")
    vals = jacobi_eigvals(ctx.float_rows)
    gate = AUDIT_TOL * max(1.0, ctx.frob)
    return any(v > gate for v in vals) and any(v < -gate for v in vals)


# -- minor enumeration -------------------------------------------------------------


def enumerate_minors(d: DenseMatrix):
    """Yield (rows, cols, det) for every square minor, exactly (Bareiss)."""
    entries = d.to_rows()
    max_k = min(d.rows, d.cols)
    for k in range(1, max_k + 1):
        for rows_sel in itertools.combinations(range(d.rows), k):
            for cols_sel in itertools.combinations(range(d.cols), k):
                sub = [[entries[r][c] for c in cols_sel] for r in rows_sel]
                yield rows_sel, cols_sel, _bareiss(sub, k)[3]


def _check_totpos(ctx):
    return all(det > 0 for _, _, det in enumerate_minors(ctx.dense))


def _check_totnonneg(ctx):
    return all(det >= 0 for _, _, det in enumerate_minors(ctx.dense))


_BOOL_CHECKERS = {
    "symmetric": _check_symmetric,
    "triangular": _check_triangular,
    "bidiagonal": _check_bidiagonal,
    "tridiagonal": _check_tridiagonal,
    "hessenberg": _check_hessenberg,
    "toeplitz": _check_toeplitz,
    "hankel": _check_hankel,
    "circulant": _check_circulant,
    "binary": _check_binary,
    "integer": _check_integer,
    "positive": _check_positive,
    "nonneg": _check_nonneg,
    "diagdom": _check_diagdom,
    "sparse": _check_sparse,
    "rectangular": _check_rectangular,
    "complex": _check_complex,
    "posdef": _check_posdef,
    "orthogonal": _check_orthogonal,
    "involutory": _check_involutory,
    "normal": _check_normal,
    "nilpotent": _check_nilpotent,
    "unimodular": _check_unimodular,
    "rankdef": _check_rankdef,
    "correlation": _check_correlation,
    "indefinite": _check_indefinite,
    "totpos": _check_totpos,
    "totnonneg": _check_totnonneg,
}


def _check_inverse_tag(ctx) -> AuditFinding:
    h = ctx.handle
    try:
        inv = inverse(h)
        product = matmul_dense(ctx.dense, as_dense(inv))
    except TmatError as exc:
        return AuditFinding("inverse", SKIPPED, str(exc))
    if h.scalar_kind == RATIONAL64:
        ok = is_exact_identity(product)
        note = "A*inv(A) = I exactly" if ok else "A*inv(A) != I"
    else:
        residual = max_abs_identity_residual(product)
        ok = residual <= AUDIT_TOL * max(1.0, ctx.frob)
        note = f"max |A*inv(A) - I| = {residual:.3e}"
    return AuditFinding("inverse", PASS if ok else FAIL, note)


def _check_eigen_tag(ctx) -> AuditFinding:
    """The closed spectrum against the exact det(xI - A) = sum c_k x^k: each c_k is within
    AUDIT_TOL * b_k of v_k, the exact terms of prod(x + |lambda|) and prod(x - lambda)."""
    h = ctx.handle
    if h.record.eigvals_fn is None:
        return AuditFinding("eigen", NOT_CHECKABLE, "no closed-form spectrum registered")
    try:
        closed = h.record.eigvals_fn(h)
    except TmatError as exc:
        return AuditFinding("eigen", SKIPPED, str(exc))
    if closed is None:
        return AuditFinding("eigen", NOT_CHECKABLE, "the closed-form spectrum declines")
    closed = [complex(z) for z in closed]
    c, n = ctx.charpoly, h.rows
    if c is None:
        return AuditFinding("eigen", NOT_CHECKABLE, "an entry is not a finite real")
    if len(closed) != n or not all(map(isfinite, closed)):
        return AuditFinding("eigen", FAIL, f"{len(closed)} eigenvalues, not {n} finite ones")
    ints, d = _integer_scaled([part for z in closed for part in (z.real, z.imag)])
    worst, vr, vi, b = 0.0, [1], [0], [1]  # v and b lowest degree first, scaled by d^(n - k)
    for re, im in zip(ints[::2], ints[1::2]):
        vr, vi = ([a - re * x + im * y for a, x, y in zip([0] + vr, vr + [0], vi + [0])],
                  [a - re * y - im * x for a, x, y in zip([0] + vi, vr + [0], vi + [0])])
        b = [a + isqrt(re * re + im * im) * x for a, x in zip([0] + b, b + [0])]
    for k, ck in enumerate(c):  # |c_k - v_k|^2 / b_k^2 = num / den
        p, q = ck.numerator * d ** (n - k), ck.denominator
        num, den = (p - vr[k] * q) ** 2 + (vi[k] * q) ** 2, (b[k] * q) ** 2
        if num:  # inf past 2^1000, and wherever b_k is 0
            worst = max(worst, sqrt(num / den) if num < den << 1000 else inf)
    ok = worst <= AUDIT_TOL
    return AuditFinding("eigen", PASS if ok else FAIL, f"characteristic polynomial mismatch {worst:.3e}")


def _check_illcond(ctx) -> AuditFinding:
    c = ctx.condition
    if isinstance(c, TmatError):
        return AuditFinding("illcond", NOT_CHECKABLE, f"advisory: {c}")
    if c > ILLCOND_THRESHOLD:
        return AuditFinding("illcond", PASS, f"advisory: cond1 = {c:.3e}")
    if c != c:
        return AuditFinding("illcond", NOT_CHECKABLE, "advisory: cond1 is undefined (NaN)")
    return AuditFinding(
        "illcond", NOT_CHECKABLE, f"advisory: cond1 = {c:.3e} below {ILLCOND_THRESHOLD:.0e}"
    )


def _audit_tag(tag, ctx) -> AuditFinding:
    if tag in DECLARATIVE_TAGS:
        return AuditFinding(tag, NOT_CHECKABLE, "declarative tag")
    if tag == "illcond":
        return _check_illcond(ctx)
    if tag == "inverse":
        return _check_inverse_tag(ctx)
    if tag == "eigen":
        return _check_eigen_tag(ctx)
    if tag == "singval":
        return AuditFinding(tag, NOT_CHECKABLE, "no closed-form singular values registered")
    if tag in ("totpos", "totnonneg") and max(ctx.dense.dims) > MINOR_BOUND:
        return AuditFinding(tag, SKIPPED, f"size over minor-enumeration bound {MINOR_BOUND}")
    try:
        ok = _BOOL_CHECKERS[tag](ctx)
    except TmatError as exc:
        return AuditFinding(tag, SKIPPED, str(exc))
    finding = AuditFinding(tag, PASS if ok else FAIL)
    if finding.verdict == FAIL and tag in EXISTENTIAL_TAGS:
        return AuditFinding(tag, NOT_CHECKABLE, "no witness at the audited parameters")
    return finding


def _check_band(ctx) -> tuple[AuditFinding, ...]:
    """A failing finding if a registered column_fn disagrees with element_fn:
    ctx.dense came from the column bands, padded with zeros, so each of its
    entries must equal the element function's. The same NaN from both routes
    is agreement."""
    h = ctx.handle
    if h.record.column_fn is None:
        return ()
    fn, params, kind, m = h.record.element_fn, h.params, h.scalar_kind, h.rows
    want = [fn(params, i, j, kind) for j in range(1, h.cols + 1) for i in range(1, m + 1)]
    got = ctx.dense.data
    if got == want:
        return ()
    for k, (v, w) in enumerate(zip(got, want)):
        if v != w and (v == v or w == w):
            note = f"column_fn disagrees with element_fn at ({k % m + 1}, {k // m + 1})"
            return (AuditFinding("column_fn", FAIL, note),)
    return ()


def _outcome(fn):
    """fn(), or the name of the TmatError it raised."""
    try:
        return fn()
    except TmatError as exc:
        return type(exc).__name__


def _check_det_fn(ctx) -> tuple[AuditFinding, ...]:
    """A failing finding if a registered det_fn disagrees with det_dense:
    exactly in rational64, where refusing on both sides is agreement; in
    float64 within AUDIT_TOL * cond1 relative, as LU's error grows with cond1.
    A det_fn answering None defers to det_dense; none is called at order 0."""
    h = ctx.handle
    if h.record.det_fn is None or h.rows != h.cols or not h.rows:
        return ()
    closed = _outcome(lambda: h.record.det_fn(h))
    generic = _outcome(lambda: det_dense(ctx.dense))
    if closed is None or closed == generic:
        return ()
    if isinstance(closed, float) and isinstance(generic, float):
        c = ctx.condition
        if not isinstance(c, float) or not c < inf:
            return ()  # LU's error has no bound
        if abs(closed - generic) <= AUDIT_TOL * c * max(abs(closed), abs(generic)):
            return ()
    return (AuditFinding("det_fn", FAIL, f"det_fn gives {closed}, det_dense {generic}"),)


_PREDICATE_ROUTES = {
    "symmetric": _check_symmetric,
    "diagonal": lambda ctx: dense_is_diagonal(ctx.dense),
    "posdef": _check_posdef,
}


def _check_predicates(ctx) -> tuple[AuditFinding, ...]:
    """A failing finding for each registered predicate that disagrees with
    its generic route; a predicate answering None defers to that route."""
    h = ctx.handle
    findings = []
    for name, fn in h.record.predicates.items():
        route = _PREDICATE_ROUTES.get(name)
        claimed = None if route is None else fn(h)
        if claimed is not None and claimed != route(ctx):
            note = f"{name} predicate gives {claimed} where the matrix says {not claimed}"
            findings.append(AuditFinding("predicates", FAIL, note))
    return tuple(findings)


_ROUTINE_TAGS = {"eigvals_fn": "eigen", "inverse_fn": "inverse"}


def _check_routines(ctx, tags) -> tuple[AuditFinding, ...]:
    """A failing finding for a registered eigvals_fn or inverse_fn whose tag
    is not declared, when the tag's check fails on it."""
    findings = []
    for routine, tag in _ROUTINE_TAGS.items():
        if getattr(ctx.handle.record, routine) is None or tag in tags:
            continue
        finding = _outcome(lambda: _audit_tag(tag, ctx))
        if isinstance(finding, AuditFinding) and finding.verdict == FAIL:
            findings.append(AuditFinding(routine, FAIL, finding.note))
    return tuple(findings)


def audit(family_id: str, sizes: list[int], params: dict | None = None) -> list[AuditReport]:
    """Machine-check every declared tag of a family at each requested size.

    Returns one report per size. Sizes over the audit bound, infeasible for
    the family, or whose entries overflow the scalar kind produce skipped
    verdicts rather than errors. A registered column_fn, det_fn or predicate
    is cross-checked against its generic route, and so is an eigvals_fn or
    inverse_fn whose tag is not declared; only a disagreement adds a
    finding: a failing `column_fn`, `det_fn`, `predicates`, `eigvals_fn` or
    `inverse_fn` one.
    """
    rec = get_family(family_id)
    tags = rec.descriptor.tags
    reports = []
    for size in sizes:
        if size < 1:
            raise ParameterError(f"audit sizes must be >= 1, got {size}")
        skip = None
        if size > AUDIT_SIZE_BOUND:
            skip = f"size over audit bound {AUDIT_SIZE_BOUND}"
        elif (size_params := feasible_size(family_id, size)) is None:
            skip = "size infeasible for this family"
        else:
            handle = construct(family_id, {**size_params, **(params or {})})
            try:
                ctx = _AuditContext(handle, materialize(handle))
            except RationalOverflowError as exc:
                skip = str(exc)
        if skip is None:
            findings = tuple(_audit_tag(tag, ctx) for tag in tags)
            findings += _check_band(ctx) + _check_det_fn(ctx) + _check_predicates(ctx)
            findings += _check_routines(ctx, tags)
        else:
            findings = tuple(AuditFinding(t, SKIPPED, skip) for t in tags)
        reports.append(AuditReport(family_id, size, findings))
    return reports


def render_audit(reports: list[AuditReport]) -> str:
    """Line-oriented text table: family, size, tag, verdict[, note]."""
    lines = []
    for report in reports:
        for f in report.findings:
            fields = [report.family, str(report.size), f.tag, f.verdict]
            if f.note:
                fields.append(f.note)
            lines.append("\t".join(fields))
    return "\n".join(lines)


def has_failures(reports: list[AuditReport]) -> bool:
    return any(report.failures for report in reports)
