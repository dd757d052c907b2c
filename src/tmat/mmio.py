"""Matrix Market exchange format: array/coordinate writers, array reader.

Writers emit the text format with LF line endings and a byte-stable decimal
rendering (the shortest representation that round-trips float64). Rational
entries are converted to decimal, with a provenance comment recording the
original scalar kind since the format has no rational field. The reader
supports `array real general` and `array real symmetric` files, for round-trip
testing.
"""

from __future__ import annotations

from contextlib import contextmanager

from .core import DenseMatrix, MatrixHandle, columns
from .errors import MatrixMarketError
from .linalg import is_symmetric
from .scalars import FLOAT64, RATIONAL64

BANNER = "%%MatrixMarket"


def format_value(x: float) -> str:
    """Shortest decimal that round-trips the float64 value."""
    return "0" if x == 0.0 else repr(float(x)).removesuffix(".0")


@contextmanager
def _sink(target):
    if hasattr(target, "write"):
        yield target
    else:
        with open(target, "w", encoding="utf-8", newline="") as handle:
            yield handle


def _header_lines(h: MatrixHandle, layout: str, symmetry: str) -> list[str]:
    lines = [f"{BANNER} matrix {layout} real {symmetry}"]
    if h.scalar_kind == RATIONAL64:
        lines.append("% scalar-kind: rational64")
    return lines


def export_array(h: MatrixHandle, sink, *, symmetric: bool = False) -> None:
    """Write the dense array format: size line `m n`, then the entries in
    column-major order, one per line. With symmetric=True only the lower
    triangle (j <= i) is stored and the header carries the qualifier."""
    symmetry = "general"
    if symmetric:
        if h.rows != h.cols or not is_symmetric(h):
            raise MatrixMarketError(
                "the symmetric qualifier requires a square symmetric matrix"
            )
        symmetry = "symmetric"
    with _sink(sink) as out:
        for line in _header_lines(h, "array", symmetry):
            out.write(line + "\n")
        out.write(f"{h.rows} {h.cols}\n")
        for j, first, values in columns(h):
            start = j if symmetric else 1
            band = values[max(start - first, 0):]
            # zeros above and below the band print as "0"
            head = max(first - start, 0) if band else h.rows + 1 - start
            tail = h.rows + 1 - first - len(values) if band else 0
            out.write("0\n" * head)
            out.write("".join([format_value(v) + "\n" for v in map(float, band)]))
            out.write("0\n" * tail)


def export_coordinate(h: MatrixHandle, sink, zero_tol: float = 0.0) -> None:
    """Write the sparse coordinate format: size line `m n nnz`, then 1-based
    `i j value` triplets in row-major traversal order; entries with
    |value| <= zero_tol are dropped."""
    by_row = [[] for _ in range(h.rows + 1)]
    # out-of-band zeros are kept only when zero_tol < 0
    for j, first, values in columns(h, full=zero_tol < 0):
        mid = f" {j} "
        for i, v in enumerate(map(float, values), first):
            if abs(v) > zero_tol:
                by_row[i].append(f"{i}{mid}{format_value(v)}\n")
    with _sink(sink) as out:
        for line in _header_lines(h, "coordinate", "general"):
            out.write(line + "\n")
        out.write(f"{h.rows} {h.cols} {sum(map(len, by_row))}\n")
        for lines in by_row:
            out.write("".join(lines))


def _read_text(source) -> str:
    if hasattr(source, "read"):
        return source.read()
    with open(source, "r", encoding="utf-8") as handle:
        return handle.read()


def import_array(source) -> DenseMatrix:
    """Parse an `array real general|symmetric` file into a float64 DenseMatrix."""
    lines = _read_text(source).splitlines()
    if not lines:
        raise MatrixMarketError("empty file (line 1)")
    tokens = lines[0].split()
    if len(tokens) != 5 or tokens[0] != BANNER or tokens[1].lower() != "matrix":
        raise MatrixMarketError(f"malformed header (line 1): {lines[0]!r}")
    layout, field, symmetry = tokens[2].lower(), tokens[3].lower(), tokens[4].lower()
    if layout != "array":
        raise MatrixMarketError(f"unsupported format '{layout}' (line 1); only array is readable")
    if field != "real":
        raise MatrixMarketError(f"unsupported field '{field}' (line 1); only real is supported")
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketError(f"unsupported symmetry '{symmetry}' (line 1)")

    # (number, text) of each line after the header that is neither blank nor a comment
    content = (
        (k, raw) for k, raw in enumerate(lines[1:], 2) if raw.strip()[:1] not in ("", "%")
    )
    number, raw = next(content, (len(lines), None))
    if raw is None:
        raise MatrixMarketError(f"missing size line (after line {number})")
    parts = raw.split()
    if len(parts) != 2:
        raise MatrixMarketError(f"malformed size line (line {number}): {raw!r}")
    try:
        m, n = int(parts[0]), int(parts[1])
    except ValueError:
        raise MatrixMarketError(f"malformed size line (line {number}): {raw!r}") from None
    if m < 0 or n < 0:
        raise MatrixMarketError(f"negative dimensions (line {number})")

    # float(line) is what the loop appends for a value line, and float refuses
    # a blank line, a comment and a malformed value: only then does the loop run
    try:
        values = list(map(float, lines[number:]))
    except ValueError:
        values = []
        for number, raw in content:
            try:
                values.append(float(raw))
            except ValueError:
                raise MatrixMarketError(f"malformed value (line {number}): {raw!r}") from None

    if symmetry == "symmetric":
        if m != n:
            raise MatrixMarketError("symmetric array files must be square")
        expected = n * (n + 1) // 2
    else:
        expected = m * n
    if len(values) < expected:
        raise MatrixMarketError(
            f"unexpected end of data: {len(values)} of {expected} values (after line {len(lines)})"
        )
    if len(values) > expected:
        raise MatrixMarketError(f"trailing data: expected {expected} values, got {len(values)}")

    if symmetry == "general":
        return DenseMatrix(m, n, values, FLOAT64)
    data = [0.0] * (m * n)
    k = 0
    for j in range(1, n + 1):
        for i in range(j, m + 1):
            v = values[k]
            k += 1
            data[(j - 1) * m + (i - 1)] = v
            data[(i - 1) * m + (j - 1)] = v
    return DenseMatrix(m, n, data, FLOAT64)
