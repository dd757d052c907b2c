"""The three workloads: fixed, seed-generated lists of library calls.

Each op is one call (or a short chain of calls) into the public functions of
the `tmat` modules. The seed chooses right-hand sides, probe positions,
parameter values, large dimensions of O(1) calls, queries, group members and
CLI arguments; it never changes the sizes, the mix or the order of the ops,
so every seed costs the same work and holds the same objects at once. `build`
imports `tmat` itself, so that a workload's set-up time includes the import.

- stream: entry-bound lazy generation and Matrix Market I/O.
- factor: kernel-bound generic fallbacks (float LU, Jacobi, exact LU).
- survey: dispatch- and metadata-bound search, closed forms, audit, harness,
  registry and CLI.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import warnings
from fractions import Fraction
from functools import lru_cache
from math import comb, cos, exp, fsum, inf, pi, sin, sqrt

import reference as R

F64, RAT = "float64", "rational64"
WORKLOADS = ("stream", "factor", "survey")

# Registration order of the builtin catalog, as published.
BUILTINS = (
    "hilbert inversehilbert cauchy minij clement lehmer pei pascal kms moler forsythe "
    "jordbloc frank lotkin grcar wilkinson poisson companion triw"
).split()
# Families whose closed-form determinant multiplies and reduces huge integers.
SUPERFACTORIAL = ("hilbert", "inversehilbert", "cauchy")
# Scalar kind a family gets when none is asked for.
DEFAULT_KIND = {
    f: F64
    for f in "clement kms moler forsythe jordbloc grcar wilkinson companion".split()
}

# Ops that fail at the commit this benchmark was added, with the note that an
# op checking many records must give (None: any failure of the op). A failed
# op that is not listed here makes the run incorrect; a listed op that passes
# is a fixed defect. perfbench/README.md ("Baseline failures") explains each.
KNOWN_FAILURES = {
    "frobenius_norm pascal float64 n=300": None,
    "entry_sum lehmer rational64 n=200": None,
    "rank hilbert rational64 n=16": None,
    "solve frank rational64 n=22": None,
    "rank frank rational64 n=22": None,
    "inverse pascal rational64 n=21": None,
    "determinant lotkin rational64 n=7": None,
    "inverse lotkin rational64 n=15": None,
    "determinant inversehilbert float64 n=50": None,
    "determinant inversehilbert float64 n=100": None,
    "determinant inversehilbert float64 n=200": None,
    "determinant hilbert rational64 n=100": None,
    "determinant hilbert rational64 n=200": None,
    "determinant inversehilbert rational64 n=100": None,
    "determinant cauchy rational64 n=100": None,
    "determinant cauchy float64 n=50": None,
    "determinant cauchy float64 n=100": None,
    "determinant cauchy float64 n=200": None,
    "audit inversehilbert sizes=[1, 2, 3, 4, 5, 8, 16]": None,
    "test_algorithm det-positive sizes=1..32": "poisson size 25: refused although the answer fits",
    "test_algorithm sum sizes=1..32": "hilbert size 23: refused although the answer fits; "
    "cauchy size 22: refused although the answer fits; lotkin size 24: refused although the answer fits",
}


def known_failure(name: str, note: str) -> bool:
    return name in KNOWN_FAILURES and KNOWN_FAILURES[name] in (None, note)


class Expect:
    """Reference outcome of one op: the value, and whether it fits the kind."""

    def __init__(self, value=None, fits=True, **extra):
        self.value = value
        self.fits = fits
        self.__dict__.update(extra)


class Op:
    """One library call with its layer, its reference and its judge."""

    def __init__(self, name, layer, run, expect, judge, kind="entry"):
        self.name = name
        self.layer = layer
        self.kind = kind  # the calibration loop its time is scaled by (see worker.calibrate)
        self.run = run  # run(span) -> result; span(layer, name, work) is a context manager
        self._expect = expect
        self._expected = None
        self.judge = judge  # judge(op, result, expected, full) -> (outcome, note)
        self.counters: dict = {}
        self.first = None  # fingerprint of the first fully checked output
        self.sticky = ""  # the failure a full check found, if any
        self.rng = random.Random(name)

    def expected(self) -> Expect:
        if self._expected is None:
            self._expected = self._expect()
        return self._expected

    def outcome(self, result, exc, full, expected=None):
        ref = expected or self.expected()
        if exc is not None:
            return R.classify_exception(exc, ref.fits)
        try:
            return self.judge(self, result, ref, full)
        except Exception as err:  # a malformed result the judge could not read
            return R.FAILED, f"unreadable result: {type(err).__name__}: {err}"


def _ok(cond, note=""):
    return (R.OK, "") if cond else (R.FAILED, note or "wrong value")


def _is_rational(v):
    return hasattr(v, "as_fraction") and not isinstance(v, (int, float))


def _same_entry(v, ref, kind):
    if kind == RAT:
        return _is_rational(v) and v.as_fraction() == ref
    return isinstance(v, float) and (v == ref or abs(v - ref) <= 1e-15 * abs(ref))


def _judge_scalar(kind, rtol=1e-8):
    def judge(op, v, ref, full):
        if not ref.fits:
            if kind == F64 and isinstance(v, float) and abs(v) == float("inf") and (v > 0) == (ref.value > 0):
                return R.OK, ""
            return R.FAILED, "returned a value although the answer does not fit"
        if kind == RAT:
            return _ok(_is_rational(v) and v.as_fraction() == ref.value, f"got {v}, want {ref.value}")
        want = ref.value if isinstance(ref.value, float) else float(ref.value)
        return _ok(R.close(v, want, rtol), f"got {v!r}, want {want!r}")
    return judge


def _lines(text):
    """The lines of a text, one at a time, without a list of all of them."""
    start = 0
    while start < len(text):
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        yield text[start:end]
        start = end + 1


def _judge_equal(op, v, ref, full):
    return _ok(v == ref.value, f"got {v!r}, want {ref.value!r}")


class Builder:
    """Per-workload state: the library, the seed's generator and the size scale."""

    def __init__(self, tmat, seed, scale, workdir):
        self.t = tmat
        self.rng = random.Random(seed)
        self.tiny = scale == "tiny"
        self.workdir = workdir
        self.ops: list[Op] = []

    def size(self, n, floor=3):
        return n if not self.tiny else max(floor, n // 25)

    def caps(self, family):
        return self.t.families.get_family(family).descriptor.capabilities

    def handle(self, family, n, kind, **given):
        params = R.params_for(family, n, **given)
        return self.t.construct(family, params, scalar_kind=kind), params

    def add(self, op):
        self.ops.append(op)

    # -- matrix-valued and entry-bound ops ----------------------------------

    def _entries_fit(self, family, params, kind):
        n = R.order(family, params)
        fits = R.fits_rational64 if kind == RAT else R.fits_float64
        if family == "pascal":  # the largest entry is the last one
            return fits(Fraction(comb(2 * n - 2, n - 1)))
        if kind == RAT:
            e = R.entry_fn(family, params)
            return all(R.fits_rational64(e(i, j)) for i in range(1, n + 1) for j in range(1, n + 1))
        if family in ("pascal", "inversehilbert"):
            e = R.entry_fn(family, params)
            return all(R.fits_float64(e(i, j)) for i in range(1, n + 1) for j in range(1, n + 1))
        return True

    def _entry_ref(self, family, params, kind):
        return R.entry_fn(family, params) if kind == RAT else R.float_entry_fn(family, params)

    def _positions(self, op, n, m, full, count=256):
        if full:
            return ((i, j) for j in range(1, m + 1) for i in range(1, n + 1))
        return ((op.rng.randint(1, n), op.rng.randint(1, m)) for _ in range(count))

    def _check_dense(self, op, d, family, params, kind, full):
        n = R.order(family, params)
        if not isinstance(d, self.t.DenseMatrix) or d.rows != n or d.cols != n:
            return R.FAILED, f"wrong shape or type: {d!r}"
        e = self._entry_ref(family, params, kind)
        data = d.data
        for i, j in self._positions(op, n, n, full):
            if not _same_entry(data[(j - 1) * n + (i - 1)], e(i, j), kind):
                return R.FAILED, f"entry ({i}, {j}) wrong"
        return R.OK, ""

    def materialize(self, family, n, kind, **given):
        h, p = self.handle(family, n, kind, **given)
        t, rows = self.t, R.order(family, p)

        def run(span):
            with span("core", "materialize", rows * rows):
                return t.materialize(h)

        def judge(op, d, ref, full):
            return self._check_dense(op, d, family, p, kind, full)

        self.add(Op(f"materialize {family} {kind} n={rows}", "core", run,
                    lambda: Expect(fits=self._entries_fit(family, p, kind)), judge))

    def reduction(self, fn_name, family, n, kind, **given):
        h, p = self.handle(family, n, kind, **given)
        fn, rows = getattr(self.t, fn_name), R.order(family, p)

        def run(span):
            with span("linalg", fn_name, rows * rows):
                return fn(h)

        def expect():
            fits = self._entries_fit(family, p, kind)
            if fn_name == "entry_sum" and kind == RAT:
                e = R.entry_fn(family, p)
                if family == "minij":  # sum of min(i, j) over n x n
                    total = Fraction(rows * (rows + 1) * (2 * rows + 1), 6)
                else:
                    total = sum((e(i, j) for i in range(1, rows + 1) for j in range(1, rows + 1)), Fraction(0))
                return Expect(total, fits and R.fits_rational64(total))
            e = R.float_entry_fn(family, p)

            def values():  # streamed, so that no copy of the matrix is held
                return (e(i, j) for i in range(1, rows + 1) for j in range(1, rows + 1))

            if fn_name == "entry_sum":
                return Expect(fsum(values()), fits)
            scale = max(abs(v) for v in values()) or 1.0
            return Expect(scale * sqrt(fsum((v / scale) ** 2 for v in values())), fits)

        judge = _judge_scalar(kind if fn_name == "entry_sum" else F64, 1e-12)
        self.add(Op(f"{fn_name} {family} {kind} n={rows}", "linalg", run, expect, judge))

    def scan(self, fn_name, family, n, kind, **given):
        h, p = self.handle(family, n, kind, **given)
        fn, rows = getattr(self.t, fn_name), R.order(family, p)
        route = "predicate" if "closed_predicates" in self.caps(family) else "scan"

        def run(span):
            with span("linalg", route, rows * rows):
                return fn(h)

        want = family in R.SYMMETRIC if fn_name == "is_symmetric" else rows <= 1
        self.add(Op(f"{fn_name} {family} {kind} n={rows}", "linalg", run,
                    lambda: Expect(want), _judge_equal))

    def elements(self, family, n, kind, count):
        h, p = self.handle(family, n, kind)
        rows = R.order(family, p)
        probes = [(self.rng.randint(1, rows), self.rng.randint(1, rows)) for _ in range(count)]
        element = self.t.element

        def run(span):
            with span("core", "element", count):
                return [element(h, i, j) for i, j in probes]

        def judge(op, values, ref, full):
            e = self._entry_ref(family, p, kind)
            bad = [ij for ij, v in zip(probes, values) if not _same_entry(v, e(*ij), kind)]
            return _ok(len(values) == count and not bad, f"entries {bad[:3]} wrong")

        self.add(Op(f"element x{count} {family} {kind} n={rows}", "core", run,
                    lambda: Expect(fits=True), judge))

    def mm_roundtrip(self, family, n, kind, **given):
        h, p = self.handle(family, n, kind, **given)
        t, rows = self.t, R.order(family, p)

        def run(span):
            sink = io.StringIO()
            with span("mmio", "export_array", rows * rows):
                t.export_array(h, sink)
            text = sink.getvalue()
            with span("mmio", "import_array", rows * rows):
                return text, t.import_array(io.StringIO(text))

        def judge(op, result, ref, full):
            text, d = result
            op.counters = {"bytes": len(text)}
            if not text.startswith("%%MatrixMarket matrix array real general\n"):
                return R.FAILED, "bad header"
            if op.first is not None and hash(text) != op.first:
                full = True
            outcome = self._check_dense(op, d, family, p, F64, full)
            if full and outcome[0] == R.OK:
                op.first = hash(text)
            return outcome

        self.add(Op(f"export_array+import_array {family} {kind} n={rows}", "mmio", run,
                    lambda: Expect(fits=self._entries_fit(family, p, kind)), judge))

    def check_coordinate(self, op, text, family, params, full):
        """Parse a coordinate file independently and compare it with the reference."""
        n = R.order(family, params)
        op.counters = {"bytes": len(text)}
        lines = _lines(text)
        if next(lines, "") != "%%MatrixMarket matrix coordinate real general":
            return R.FAILED, "bad header"
        body = (line for line in lines if line and not line.startswith("%"))
        m, c, nnz = (int(v) for v in next(body, "0 0 0").split())
        op.counters.update(nnz=nnz, cells=m * c)
        if (m, c) != (n, n):
            return R.FAILED, "bad size line"
        if op.first is not None and not full:
            return _ok(hash(text) == op.first, "output changed between passes")
        e = R.float_entry_fn(family, params)
        written = 0
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                v = e(i, j)
                if v == 0.0:
                    continue
                fields = next(body, "").split()
                if len(fields) != 3 or fields[:2] != [str(i), str(j)] or float(fields[2]) != v:
                    return R.FAILED, f"triplet {fields} wrong, want ({i}, {j}, {v!r})"
                written += 1
        if next(body, None) is not None:
            return R.FAILED, "more nonzeros written than the matrix has"
        if nnz != written:
            return R.FAILED, "bad size line"
        op.first = hash(text)
        return R.OK, ""

    def export_coordinate(self, family, n, kind, **given):
        h, p = self.handle(family, n, kind, **given)
        t, rows = self.t, R.order(family, p)

        def run(span):
            sink = io.StringIO()
            with span("mmio", "export_coordinate", rows * rows):
                t.export_coordinate(h, sink)
            return sink.getvalue()

        def judge(op, text, ref, full):
            return self.check_coordinate(op, text, family, p, full)

        self.add(Op(f"export_coordinate {family} {kind} n={rows}", "mmio", run,
                    lambda: Expect(fits=self._entries_fit(family, p, kind)), judge))

    def rational_dot(self, n):
        """A user algorithm in checked rational arithmetic: sum of a_ij * a_ji over minij."""
        h, _ = self.handle("minij", n, RAT)
        t = self.t

        def run(span):
            with span("core", "materialize", n * n):
                data = t.materialize(h).data
            with span("scalars", "rational_op", 2 * n * n):
                acc = t.Rational64(0)
                for j in range(n):
                    for i in range(n):
                        acc = acc + data[j * n + i] * data[i * n + j]
                return acc

        total = sum(min(i, j) ** 2 for i in range(1, n + 1) for j in range(1, n + 1))
        self.add(Op(f"rational sum a_ij*a_ji minij n={n}", "scalars", run,
                    lambda: Expect(Fraction(total), R.fits_rational64(Fraction(total))), _judge_scalar(RAT)))

    # -- kernel ops -----------------------------------------------------------

    def _route(self, op_name, family, kind):
        cap = {"determinant": "closed_det", "inverse": "closed_inverse", "eigvals": "closed_eigvals"}.get(op_name)
        if cap and cap in self.caps(family):
            return "catalog", "closed_form"
        if op_name == "eigvals":
            return "linalg", "jacobi"
        return "linalg", "lu_f64" if kind == F64 else "lu_exact"

    def kernel(self, op_name, family, n, kind, **given):
        h, p = self.handle(family, n, kind, **given)
        t, rows = self.t, R.order(family, p)
        layer, route = self._route(op_name, family, kind)
        work = 2 * rows**3 // 3 if route == "lu_f64" else 1
        fn = getattr(t, op_name)
        rhs = None
        if op_name == "solve":
            if kind == F64:
                rhs = [self.rng.randint(-9, 9) or 1 for _ in range(rows)]
            else:  # b = A * ones, so that the answer always fits
                rhs = [t.Rational64.from_number(sum(row)) for row in R.rows_exact(family, p)]
            args = (h, rhs)
        else:
            args = (h,)

        def run(span):
            with span(layer, route, work):
                return fn(*args)

        expect, judge = self._kernel_reference(op_name, family, p, kind, rhs)
        if route in ("lu_f64", "jacobi"):
            cal = "kernel"
        elif route == "closed_form" and family in SUPERFACTORIAL and rows >= 50:
            cal = "bigint"
        else:
            cal = "mixed"
        self.add(Op(f"{op_name} {family} {kind} n={rows}", layer, run, expect, judge, cal))

    def _kernel_reference(self, op_name, family, p, kind, rhs):
        t = self.t
        rows_n = R.order(family, p)
        if op_name == "determinant":
            def expect():
                if family in ("poisson", "cauchy") and kind == F64 and rows_n > 10:
                    sign, log_det = R.log_det(family, p)
                    return Expect(sign * exp(log_det) if log_det < 709 else sign * inf, log_det < 709)
                d = R.exact_det(family, p)
                return Expect(d, R.fits_rational64(d) if kind == RAT else R.fits_float64(d))
            return expect, _judge_scalar(kind, 1e-8)
        if op_name == "rank":
            def expect():
                if rows_n <= 30:
                    return Expect(R.exact_rank(R.rows_exact(family, p)))
                return Expect(rows_n if R.exact_det(family, p) != 0 else None)
            return expect, _judge_equal
        if op_name == "eigvals":
            if "closed_eigvals" in self.caps(family):
                def judge(op, values, ref, full):
                    want = closed_spectrum(family, p)  # rebuilt per check, not held for the run
                    got = sorted(complex(v).real for v in values)
                    scale = max(1.0, max(abs(v) for v in want))
                    return _ok(len(got) == len(want) and
                               all(abs(a - b) <= 1e-9 * scale for a, b in zip(got, want)))
                return (lambda: Expect(fits=True)), judge
            def judge(op, values, ref, full):
                return _ok(R.spectrum_ok(R.float_entry_fn(family, p), rows_n, list(values)),
                           "spectrum check failed")
            return (lambda: Expect(fits=True)), judge
        if op_name == "solve":
            if kind == F64:
                def judge(op, x, ref, full):
                    return _ok(R.residual_ok(R.float_entry_fn(family, p), rows_n, x, rhs), "residual too large")
                return (lambda: Expect(fits=True)), judge

            def expect():
                x = R.exact_solve(R.rows_exact(family, p), [R.frac(v) for v in rhs])
                return Expect(x, all(R.fits_rational64(v) for v in x))

            def judge(op, x, ref, full):
                return _ok(len(x) == len(ref.value) and all(
                    _is_rational(a) and a.as_fraction() == b for a, b in zip(x, ref.value)))
            return expect, judge
        # inverse
        def entry_of(result):
            if isinstance(result, t.DenseMatrix):
                data, rows = result.data, result.rows
                return lambda i, j: data[(j - 1) * rows + i - 1]
            return lambda i, j: t.element(result, i, j)

        if kind == F64:
            def judge(op, result, ref, full):
                probes = [[op.rng.choice((-1.0, 1.0)) for _ in range(rows_n)] for _ in range(2 if full else 1)]
                return _ok(R.inverse_ok(R.float_entry_fn(family, p), rows_n, entry_of(result), probes),
                           "A * inv(A) * v != v")
            return (lambda: Expect(fits=True)), judge

        if rows_n > 30:  # closed forms only: check A X = I on sampled columns
            e = R.entry_fn(family, p)
            cols = range(1, rows_n + 1)

            def judge(op, result, ref, full):
                if not isinstance(result, t.DenseMatrix):  # a lazy inverse handle
                    corner = R.entry_fn(result.family, R.params_for(result.family, rows_n))(1, 1)
                    return _ok(result.dims == (rows_n, rows_n) and R.frac(t.element(result, 1, 1)) == corner,
                               f"lazy inverse {result!r} wrong")
                get = entry_of(result)
                for j in [op.rng.randint(1, rows_n) for _ in range(2 if full else 1)]:
                    col = [R.frac(get(k, j)) for k in cols]
                    rows = cols if full else [j] + op.rng.sample(cols, 8)
                    for i in rows:  # row i of A is evaluated, not kept
                        if sum((e(i, k) * x for k, x in zip(cols, col)), Fraction(0)) != (i == j):
                            return R.FAILED, f"column {j} of A * inv(A) is not e_{j}"
                return R.OK, ""
            return (lambda: Expect(fits=True)), judge

        def expect():
            inv = R.exact_inverse(R.rows_exact(family, p))
            return Expect(inv, all(R.fits_rational64(v) for row in inv for v in row))

        def judge(op, result, ref, full):
            get = entry_of(result)
            for j in range(1, rows_n + 1):
                for i in range(1, rows_n + 1):
                    v = get(i, j)
                    if not (_is_rational(v) and v.as_fraction() == ref.value[i - 1][j - 1]):
                        return R.FAILED, f"entry ({i}, {j}) wrong"
            return R.OK, ""
        return expect, judge


def closed_spectrum(family, p):
    """Known spectra, written from the literature independently of the catalog."""
    n = R.order(family, p)
    if family == "minij":  # eigenvalues 1 / (4 sin^2((2k-1) pi / (4n+2)))
        return sorted(1 / (4 * sin((2 * k - 1) * pi / (4 * n + 2)) ** 2) for k in range(1, n + 1))
    if family == "clement":
        return sorted(float(n - 1 - 2 * k) for k in range(n))
    if family == "pei":
        a = float(p["alpha"])
        return sorted([a] * (n - 1) + [a + n])
    if family == "jordbloc":
        return [float(p["lambda"])] * n
    if family == "poisson":
        g, h = p["n"], pi / (p["n"] + 1)
        return sorted(4 - 2 * cos(i * h) - 2 * cos(j * h) for i in range(1, g + 1) for j in range(1, g + 1))
    raise KeyError(family)


# -- the three workloads ----------------------------------------------------------


def _stream(b: Builder):
    n, grid = b.size(400), b.size(30, floor=2)
    # rho^k costs the same for +-0.5; 0.25 and 0.75 take float pow paths of other costs
    rho = b.rng.choice((0.5, -0.5))
    alpha = b.rng.choice((1, 2, 3))
    for family in ("hilbert", "minij", "grcar"):
        b.materialize(family, n, F64)
    b.materialize("poisson", grid, F64)
    for family in ("cauchy", "frank", "jordbloc", "clement"):
        b.reduction("entry_sum", family, n, F64)
    b.reduction("frobenius_norm", "kms", n, F64, rho=rho)
    for family in ("forsythe", "companion"):
        b.reduction("frobenius_norm", family, n, F64)
    b.reduction("frobenius_norm", "pascal", b.size(300), F64)
    for family in ("lehmer", "wilkinson", "grcar"):
        b.scan("is_symmetric", family, n, F64)
    b.scan("is_symmetric", "pei", n, F64, alpha=alpha)
    b.scan("is_symmetric", "poisson", grid, F64)
    for family in ("forsythe", "triw"):
        b.scan("is_diagonal", family, n, F64)
    for family in ("triw", "wilkinson"):
        b.mm_roundtrip(family, n, F64)
    for family in ("lehmer", "jordbloc", "wilkinson", "triw", "clement"):
        b.export_coordinate(family, n, F64)
    b.export_coordinate("poisson", grid, F64)
    for family in ("hilbert", "lehmer", "kms"):
        b.elements(family, n, F64, 2000)
    # rational64 at n = 150-250 on families whose entries fit
    nr = b.size(250)
    b.materialize("minij", nr, RAT)
    b.reduction("entry_sum", "minij", nr, RAT)
    b.reduction("entry_sum", "lehmer", b.size(200), RAT)
    b.reduction("frobenius_norm", "hilbert", b.size(200), RAT)
    b.scan("is_symmetric", "lehmer", b.size(200), RAT)
    b.mm_roundtrip("hilbert", b.size(200), RAT)
    b.elements("hilbert", b.size(200), RAT, 2000)
    b.rational_dot(b.size(150))


def _factor(b: Builder):
    sizes = [b.size(s) for s in (50, 100, 150)]
    rho = b.rng.choice((0.25, 0.5, -0.5))
    for s in sizes:
        b.kernel("determinant", "minij", s, F64)
        b.kernel("determinant", "lehmer", s, F64)
        b.kernel("solve", "pei", s, F64, alpha=b.rng.choice((1, 2, 4)))
        b.kernel("solve", "kms", s, F64, rho=rho)
    s50, s100, s150 = sizes
    for family in ("wilkinson", "forsythe"):
        b.kernel("determinant", family, s100, F64)
    b.kernel("determinant", "clement", s100 + s100 % 2, F64)
    b.kernel("determinant", "poisson", b.size(10, floor=2), F64)
    for s in (s50, s100):
        b.kernel("determinant", "lotkin", s, F64)
    b.kernel("solve", "grcar", s100, F64)
    b.kernel("solve", "wilkinson", s150, F64)
    b.kernel("solve", "minij", s100, F64)
    b.kernel("rank", "kms", s100, F64, rho=rho)
    b.kernel("rank", "pei", s100, F64)
    b.kernel("rank", "lehmer", s150, F64)
    b.kernel("rank", "minij", s50, F64)
    for s in (s50, s100):
        b.kernel("inverse", "grcar", s, F64)
    for family in ("wilkinson", "jordbloc", "companion"):
        b.kernel("inverse", family, s100, F64)
    for s in (20, 40, 60):
        b.kernel("eigvals", "wilkinson", b.size(s), F64)
    for family in ("lehmer", "kms"):
        b.kernel("eigvals", family, b.size(40), F64)
    b.kernel("eigvals", "moler", b.size(20), F64)
    b.kernel("eigvals", "cauchy", b.size(20), F64)
    # exact kernels, including the cases where intermediates overflow 64 bits
    for op_name, family, s in (
        ("determinant", "lotkin", 7),
        ("determinant", "minij", 20),
        ("determinant", "lehmer", 12),
        ("determinant", "grcar", 16),
        ("determinant", "wilkinson", 22),
        ("determinant", "clement", 14),
        ("solve", "pascal", 21),
        ("solve", "frank", 22),
        ("solve", "hilbert", 10),
        ("solve", "minij", 22),
        ("solve", "kms", 16),
        ("rank", "hilbert", 16),
        ("rank", "pascal", 21),
        ("rank", "frank", 22),
        ("rank", "lehmer", 18),
        ("inverse", "lotkin", 15),
        ("inverse", "pascal", 21),
        ("inverse", "frank", 22),
        ("inverse", "moler", 12),
        ("inverse", "triw", 20),
        ("inverse", "grcar", 14),
    ):
        b.kernel(op_name, family, s, RAT)
    b.rational_dot(b.size(60))


def _survey(b: Builder):
    t = b.t
    # search
    decidable = ["symmetric", "posdef", "integer", "tridiagonal", "triangular", "toeplitz", "hessenberg"]
    other = ["illcond", "inverse", "eigen", "sparse", "totpos", "unimodular"]
    members = sorted(b.rng.sample(BUILTINS, 6), key=BUILTINS.index)
    for family in members:
        t.add_to_groups(family, "bench")
    # Searches are the most frequent survey call, so the median op is one.
    queries = [(["builtin"], []), (["bench"], [])] + [(None, [p]) for p in decidable + other]
    queries += [(None, b.rng.sample(decidable + other, 2)) for _ in range(24)]
    queries += [(["builtin", "bench"], [b.rng.choice(decidable)]) for _ in range(3)]
    for groups, props in queries:
        b.add(_list_op(t, groups, props, members))
    for family in BUILTINS:
        b.add(_tags_op(t, family))
    # O(1) construction at large n
    for family in BUILTINS:
        big = 10**4 if family in ("cauchy", "companion") else b.rng.randint(10**5, 10**6)
        b.add(_construct_op(t, family, 1000 if family == "poisson" else big))
    # closed forms and O(1) predicates at large n
    big = b.rng.randint(10**5, 10**6)
    for family, kind in (("pei", RAT), ("pei", F64), ("kms", F64), ("jordbloc", F64), ("triw", RAT),
                         ("pascal", RAT), ("frank", RAT), ("moler", F64)):
        b.kernel("determinant", family, big, kind)
    b.kernel("determinant", "companion", 10**4, F64)
    for family in ("minij", "clement", "pei", "jordbloc"):
        b.kernel("eigvals", family, b.size(10**4), F64)
    b.kernel("eigvals", "poisson", b.size(100), F64)
    b.kernel("inverse", "hilbert", big, RAT)
    b.kernel("inverse", "minij", b.size(200), RAT)
    b.kernel("inverse", "pei", b.size(200), RAT)
    b.kernel("inverse", "kms", b.size(300), F64)
    b.kernel("inverse", "lehmer", b.size(100), RAT)
    for family in ("hilbert", "minij"):
        for fn_name in ("is_symmetric", "is_diagonal"):
            b.scan(fn_name, family, big, F64)
    # superfactorial closed forms, where the answer outgrows the scalar kind
    for s in (50, 100):
        for family in ("hilbert", "inversehilbert"):
            for kind in (RAT, F64):
                b.kernel("determinant", family, b.size(s), kind)
        b.kernel("determinant", "cauchy", b.size(s), RAT)
    b.kernel("determinant", "hilbert", b.size(200), RAT)
    b.kernel("determinant", "inversehilbert", b.size(200), F64)
    for s in (50, 100, 200):
        b.kernel("determinant", "cauchy", b.size(s), F64)
    # audit, harness, groups, CLI
    audit_sizes = [1, 2, 3, 4, 5, 8, 16]
    for family in BUILTINS:
        b.add(_audit_op(t, family, audit_sizes))
    harness_sizes = list(range(1, (4 if b.tiny else 32) + 1))
    for fn_name in sorted(t.harness.FN_MENU):
        b.add(_harness_op(t, fn_name, harness_sizes))
    b.add(_group_op(t, members, b.workdir))
    for argv in _cli_commands(b):
        b.add(_cli_op(b, argv))


# -- survey op builders -------------------------------------------------------------


@lru_cache(maxsize=None)
def _holds(family, tag):
    """Whether a decidable tag holds on the family's default instance (n = 6)."""
    p = R.params_for(family, 3 if family == "poisson" else 6)
    a = R.rows_exact(family, p)
    n = len(a)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    if tag == "symmetric":
        return all(a[i][j] == a[j][i] for i, j in pairs)
    if tag == "integer":
        return all(a[i][j].denominator == 1 for i, j in pairs)
    if tag == "tridiagonal":
        return all(a[i][j] == 0 for i, j in pairs if abs(i - j) > 1)
    if tag == "triangular":
        return all(a[i][j] == 0 for i, j in pairs if i > j) or all(a[i][j] == 0 for i, j in pairs if i < j)
    if tag == "toeplitz":
        return all(a[i][j] == a[i - 1][j - 1] for i, j in pairs if i and j)
    if tag == "hessenberg":
        return all(a[i][j] == 0 for i, j in pairs if i > j + 1) or all(a[i][j] == 0 for i, j in pairs if j > i + 1)
    if tag == "posdef":
        if not _holds(family, "symmetric"):
            return False
        _, det, _ = R._eliminate(a)
        return all(R._eliminate([row[:k] for row in a[:k]])[1] > 0 for k in range(1, n + 1)) and det > 0
    return None


def _check_listing(names, groups, props, members):
    """Sound and ordered: every name satisfies each decidable property, and
    the listing follows registration order within the named groups."""
    if [f for f in names if f in BUILTINS] != [f for f in BUILTINS if f in names]:
        return R.FAILED, "not in registration order"
    allowed = set(BUILTINS)
    for g in groups or ():
        allowed &= set(BUILTINS) if g == "builtin" else set(members) if g == "bench" else set()
    if not set(names) <= allowed:
        return R.FAILED, f"{sorted(set(names) - allowed)} outside the groups"
    wrong = [f for f in names for p in props if _holds(f, p) is False]
    if wrong:
        return R.FAILED, f"{wrong} lack a listed property"
    if groups and not props and list(names) != [f for f in BUILTINS if f in allowed]:
        return R.FAILED, "group listing incomplete"
    return R.OK, ""


def _list_op(t, groups, props, members):
    def run(span):
        with span("registry", "list_matrices"):
            return t.list_matrices(groups, props or None)

    def judge(op, names, ref, full):
        return _check_listing(names, groups, props, members)

    return Op(f"list_matrices groups={groups} props={props}", "registry", run,
              lambda: Expect(fits=True), judge, kind="mixed")


def _tags_op(t, family):
    def run(span):
        with span("properties", "properties_of"):
            return t.properties_of(family)

    def judge(op, tags, ref, full):
        wrong = [tag for tag in tags if _holds(family, tag) is False]
        return _ok(not wrong and len(set(tags)) == len(tags), f"declared tags {wrong} do not hold")

    return Op(f"properties_of {family}", "properties", run, lambda: Expect(fits=True), judge, kind="mixed")


def _construct_op(t, family, n):
    params = R.params_for(family, n)
    if family in ("cauchy", "companion"):
        params = {"n": n}

    def run(span):
        with span("families", "construct"):
            return t.construct(family, params)

    rows = n * n if family == "poisson" else n

    def judge(op, h, ref, full):
        return _ok(h.family == family and h.dims == (rows, rows), f"dims {h.dims}")

    return Op(f"construct {family} n={n}", "families", run, lambda: Expect(fits=True), judge, kind="mixed")


def _audit_op(t, family, sizes):
    def run(span):
        with span("properties", "audit", len(sizes)):
            return t.audit(family, sizes)

    def judge(op, reports, ref, full):
        if [r.size for r in reports] != sizes or any(r.family != family for r in reports):
            return R.FAILED, "one report per size expected"
        fails = [(r.size, f.tag) for r in reports for f in r.findings if f.verdict == "fail"]
        return _ok(not fails, f"declared tags reported false: {fails[:3]}")

    return Op(f"audit {family} sizes={sizes}", "properties", run, lambda: Expect(fits=True), judge, kind="mixed")


def _default_instance(family, size):
    """(params, kind) the harness builds for a requested size, or None if infeasible."""
    if family == "poisson":
        g = int(round(sqrt(size)))
        return (R.params_for(family, g), RAT) if g * g == size else None
    return R.params_for(family, size), DEFAULT_KIND.get(family, RAT)


@lru_cache(maxsize=None)
def _default_facts(family, size):
    """(params, kind, entries fit, entry sum, symmetric) of a harness instance, or None."""
    inst = _default_instance(family, size)
    if inst is None:
        return None
    params, kind = inst
    a = R.rows_exact(family, params)
    fits = R.fits_rational64 if kind == RAT else R.fits_float64
    entries = [v for row in a for v in row]
    total = sum(entries, Fraction(0)) if kind == RAT else fsum(map(float, entries))
    symmetric = all(a[i][j] == a[j][i] for i in range(size) for j in range(i))
    return params, kind, all(map(fits, entries)), total, symmetric


def _harness_expect(fn_name, family, size):
    """(value, fits) for one harness record; value None means infeasible."""
    facts = _default_facts(family, size)
    if facts is None:
        return None, False
    params, kind, entries_fit, total, symmetric = facts
    if fn_name == "sum":
        return total, entries_fit and (kind != RAT or R.fits_rational64(total))
    if fn_name == "issymmetric":
        return symmetric, True
    if fn_name == "det-positive":
        d = R.exact_det(family, params)
        return d > 0, R.fits_rational64(d) if kind == RAT else True
    return "positive ns", entries_fit  # timing


def _harness_op(t, fn_name, sizes):
    fn = t.harness.FN_MENU[fn_name]

    def run(span):
        with span("harness", "test_algorithm", len(BUILTINS) * len(sizes)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return t.test_algorithm(fn, sizes, errors_as_warnings=True)

    def expect():
        return Expect(fits=True, records={(f, s): _harness_expect(fn_name, f, s) for f in BUILTINS for s in sizes})

    def problem(r, want, fits):
        if r.status != "ok":
            return "" if not fits else "refused although the answer fits"
        if not fits:
            return "value although the answer does not fit"
        v = r.value
        if fn_name == "timing":
            good = isinstance(v, int) and v > 0
        elif isinstance(want, Fraction):
            good = _is_rational(v) and v.as_fraction() == want
        elif isinstance(want, float):
            good = R.close(v, want, 1e-12)
        else:
            good = v == want
        return "" if good else f"got {v!r}, want {want!r}"

    def judge(op, records, ref, full):
        keys = [(r.family, r.size) for r in records]
        if keys != [(f, s) for f in BUILTINS for s in sizes]:
            return R.FAILED, "one record per (family, size) expected"
        # every wrong record is named, so that a new one changes the note
        bad = [f"{r.family} size {r.size}: {note}" for r in records
               if (note := problem(r, *ref.records[(r.family, r.size)]))]
        return _ok(not bad, "; ".join(bad))

    return Op(f"test_algorithm {fn_name} sizes=1..{sizes[-1]}", "harness", run, expect, judge, kind="mixed")


def _group_op(t, members, workdir):
    path = os.path.join(workdir, "bench-group.txt")

    def run(span):
        with span("registry", "group_roundtrip"):
            t.save_group("bench", path)
            t.load_group("bench-copy", path)
            return t.list_matrices(["bench-copy"])

    def judge(op, names, ref, full):
        return _ok(names == members, f"round trip gave {names}")

    return Op("save_group+load_group bench", "registry", run, lambda: Expect(fits=True), judge, kind="mixed")


def _cli_commands(b: Builder):
    small = b.rng.choice(["hilbert", "lehmer", "minij", "pascal", "frank"])
    sparse = b.rng.choice(["triw", "jordbloc", "wilkinson", "clement"])
    prop = b.rng.choice(["symmetric", "integer", "posdef"])
    export_path = os.path.join(b.workdir, "bench-export.mtx")
    return [
        ["list", "--prop", prop],
        ["show", small, "8", "--type", "rat"],
        ["run", "--fn", "sum", "--size", "4", "--prop", "symmetric"],
        ["audit", "--family", small, "--size", "4"],
        ["export", sparse, "60", "--format", "mm-coordinate", "-o", export_path],
    ]


def _cli_op(b: Builder, argv):
    t = b.t
    main = t.cli.main

    def run(span):
        out = io.StringIO()
        with span("cli", "main"), contextlib.redirect_stdout(out):
            code = main(argv)
        return code, out.getvalue()

    def judge(op, result, ref, full):
        code, text = result
        lines = text.splitlines()
        if code != 0:
            return R.FAILED, f"exit code {code}"
        cmd = argv[0]
        if cmd == "list":
            return _check_listing(lines, None, [argv[2]], [])
        if cmd == "show":
            p = R.params_for(argv[1], int(argv[2]))
            want = R.rows_exact(argv[1], p)
            got = [[Fraction(c) for c in line.split("\t")] for line in lines]
            return _ok(got == want, "grid differs")
        if cmd == "run":
            fams = [line.split("\t")[0] for line in lines]
            outcome = _check_listing(fams, None, ["symmetric"], [])
            if outcome[0] != R.OK:
                return outcome
            for line in lines:
                family, size, status, value = line.split("\t")
                want, fits = _harness_expect("sum", family, int(size))
                if status != "ok" or (fits and float(Fraction(value)) != float(want)):
                    return R.FAILED, f"run line {line!r}"
            return R.OK, ""
        if cmd == "audit":
            return _ok(not any(line.split("\t")[3] == "fail" for line in lines), "audit failures")
        with open(argv[6], encoding="utf-8") as source:
            exported = source.read()
        return b.check_coordinate(op, exported, argv[1], R.params_for(argv[1], int(argv[2])), full)

    return Op("tm " + " ".join(a if not os.path.isabs(a) else os.path.basename(a) for a in argv),
              "cli", run, lambda: Expect(fits=True), judge, kind="mixed")


def build(name: str, seed: int, scale: str, workdir: str) -> list[Op]:
    """Import the library and build a workload's op list (this is its set-up)."""
    import tmat
    import tmat.cli  # noqa: F401  (the survey calls cli.main in-process)
    import tmat.families  # noqa: F401
    import tmat.harness  # noqa: F401

    b = Builder(tmat, seed, scale, workdir)
    {"stream": _stream, "factor": _factor, "survey": _survey}[name](b)
    return b.ops
