"""Matrix Market exchange format: array/coordinate writers, array reader.

Writers emit the text format with LF line endings and a byte-stable decimal
rendering (the shortest representation that round-trips float64). Rational
entries are converted to decimal, with a provenance comment recording the
original scalar kind since the format has no rational field. The reader
supports `array real general` and `array real symmetric` files, for round-trip
testing; it parses chunks of whole lines (`_chunks`), holding no list of every
line. A square matrix whose family declares the O(1) `symmetric` predicate
true has only its diagonal and lower triangle formatted (`_mirrored`; in
`export_array`, while its columns are whole), and `export_coordinate` joins
each of its rows into one string once the row's column has passed. A path
naming a regular file, or nothing yet, is replaced only once the whole matrix
is written (`_sink`).
"""

from __future__ import annotations

import os
import stat
from contextlib import contextmanager, suppress
from itertools import chain, compress, count

from .core import DenseMatrix, MatrixHandle, columns
from .errors import MatrixMarketError
from .linalg import _predicate, is_symmetric
from .scalars import FLOAT64, RATIONAL64

BANNER = "%%MatrixMarket"
# export_array holds at most this many texts for mirrored entries (about 20 MB of
# float texts); without mirroring it holds one column's
MIRROR_TEXTS = 1 << 18
# import_array parses the value lines in chunks of about this many characters
CHUNK_CHARS = 1 << 16


def format_value(x: float) -> str:
    """Shortest decimal that round-trips the float64 value: x + 0.0 turns
    -0.0 into 0.0, whose repr loses its ".0" like every integral value's."""
    return repr(float(x) + 0.0).removesuffix(".0")


def _mirrored(h: MatrixHandle, zero_tol: float = 0.0) -> bool:
    """h is square and declared symmetric (O(1) predicate): the writers format
    its diagonal and lower triangle, and each entry above reuses its mirror's text."""
    return zero_tol >= 0 and h.rows == h.cols and bool(_predicate(h, "symmetric"))


def _column_texts(h: MatrixHandle, symmetric: bool):
    """Yield (j, start, texts) for each column band of h (see core.columns),
    texts[k] being the text of row start + k. With symmetric=True the band is
    cut to the lower triangle. Otherwise, when h is _mirrored, a whole column
    (rows 1 .. m) takes the texts above its diagonal from the columns before
    it, while every column so far is whole and at most MIRROR_TEXTS texts are
    held for that; the other columns format their own band."""
    m = h.rows
    left = [[] for _ in range(m + 1)] if not symmetric and _mirrored(h) else None
    for j, first, values in columns(h):
        if left is not None and (len(values) < m or j * (m - j) > MIRROR_TEXTS):
            left = None  # this column and every later one format their own band
        if left is None:
            start = max(first, j) if symmetric else first
            yield j, start, list(map(format_value, values[start - first:]))
            continue
        # rows j + 1 .. m go to the rows' left parts; row j's is then complete
        below = list(map(format_value, values[j - 1:]))
        list(map(list.append, left[j + 1:], below[1:]))
        texts, left[j] = left[j] + below, None
        yield j, 1, texts


@contextmanager
def _sink(target):
    """The target if it has write(). A path naming a regular file or nothing
    yet (through any symlinks) gets a new file beside it that replaces it once
    all is written and is removed on any error; any other path (a device, a
    FIFO, /dev/stdout) is opened and written in place."""
    if hasattr(target, "write"):
        yield target
        return
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", encoding="utf-8", newline="") as handle:
            yield handle
        return
    path = os.fsdecode(os.path.realpath(target))
    part = f"{path}.{os.urandom(4).hex()}.part"
    try:
        with open(part, "x", encoding="utf-8", newline="") as handle:
            yield handle
        with suppress(FileNotFoundError):  # a replaced file keeps its permissions
            os.chmod(part, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(part, path)
    finally:
        with suppress(FileNotFoundError):
            os.remove(part)


def _header_lines(h: MatrixHandle, layout: str, symmetry: str) -> list[str]:
    lines = [f"{BANNER} matrix {layout} real {symmetry}"]
    if h.scalar_kind == RATIONAL64:
        lines.append("% scalar-kind: rational64")
    return lines


def export_array(h: MatrixHandle, sink, *, symmetric: bool = False) -> None:
    """Write the dense array format: size line `m n`, then the entries in
    column-major order, one per line. With symmetric=True only the lower
    triangle (j <= i) is stored and the header carries the qualifier."""
    if symmetric and (h.rows != h.cols or not is_symmetric(h)):
        raise MatrixMarketError("the symmetric qualifier requires a square symmetric matrix")
    with _sink(sink) as out:
        for line in _header_lines(h, "array", "symmetric" if symmetric else "general"):
            out.write(line + "\n")
        out.write(f"{h.rows} {h.cols}\n")
        for j, first, texts in _column_texts(h, symmetric):
            start = j if symmetric else 1
            # zeros above and below the band print as "0"
            head = max(first - start, 0) if texts else h.rows + 1 - start
            tail = h.rows + 1 - first - len(texts) if texts else 0
            out.write("0\n" * head)
            out.write("\n".join(texts + [""]))  # the "" ends the band's last line
            out.write("0\n" * tail)


def export_coordinate(h: MatrixHandle, sink, zero_tol: float = 0.0) -> None:
    """Write the sparse coordinate format: size line `m n nnz`, then 1-based
    `i j value` triplets in row-major traversal order; entries with
    |value| <= zero_tol are dropped."""
    mirrored = _mirrored(h, zero_tol)  # row j is column j: its lines are made as column j passes
    labels = [f"{k} " for k in range(max(h.rows, h.cols) + 1)]
    by_row = [[] for _ in range(h.rows + 1)]
    nnz = 0  # the lines of the rows already joined
    # zero_tol < 0 keeps every entry, out-of-band zeros too; otherwise no zero is kept
    for j, first, values in columns(h, full=zero_tol < 0):
        start = max(first, j) if mirrored else first
        band, lj = values[start - first:], labels[j]
        for k in compress(count(), band) if zero_tol >= 0 else range(len(band)):
            v = float(band[k])
            if abs(v) > zero_tol:
                i, t = start + k, format_value(v)
                by_row[i].append(f"{labels[i]}{lj}{t}\n")
                if mirrored and i > j:  # the mirror (j, i) reuses the text
                    by_row[j].append(f"{lj}{labels[i]}{t}\n")
        if mirrored:  # row j is complete, its lines left of column j made by earlier columns
            nnz += len(by_row[j])
            by_row[j] = ["".join(by_row[j])]
    with _sink(sink) as out:
        for line in _header_lines(h, "coordinate", "general"):
            out.write(line + "\n")
        out.write(f"{h.rows} {h.cols} {nnz if mirrored else sum(map(len, by_row))}\n")
        for lines in by_row:
            out.write("".join(lines))


def _read_text(source) -> str:
    if hasattr(source, "read"):
        return source.read()
    with open(source, "r", encoding="utf-8") as handle:
        return handle.read()


def _chunks(text: str):
    """text.splitlines() as lists of whole lines, each cut just after the first "\n"
    past CHUNK_CHARS characters: no "\r\n" is split, so the lists join to the whole."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + CHUNK_CHARS) + 1 or len(text)
        yield text[start:end].splitlines()
        start = end


def import_array(source) -> DenseMatrix:
    """Parse an `array real general|symmetric` file into a float64 DenseMatrix."""
    chunks = _chunks(_read_text(source))
    lines = next(chunks, None)
    if lines is None:
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

    values, size, number = [], None, 1  # number: the lines read so far
    for lines in chain([lines[1:]], chunks):
        start, number = number, number + len(lines)
        # (number, text) of each line that is neither blank nor a comment
        content = ((k, raw) for k, raw in enumerate(lines, start + 1) if raw.strip()[:1] not in ("", "%"))
        if size is None:  # the first such line after the header is the size line
            at, size = next(content, (number, None))
            if size is None:
                continue
            try:
                m, n = map(int, size.split())  # two integers, or ValueError
            except ValueError:
                raise MatrixMarketError(f"malformed size line (line {at}): {size!r}") from None
            if m < 0 or n < 0:
                raise MatrixMarketError(f"negative dimensions (line {at})")
            lines = lines[at - start:]
        # float(line) is what the loop appends for a value line, and float refuses
        # a blank line, a comment and a malformed value: only then does the loop run
        try:
            values += list(map(float, lines))
        except ValueError:
            for at, raw in content:
                try:
                    values.append(float(raw))
                except ValueError:
                    raise MatrixMarketError(f"malformed value (line {at}): {raw!r}") from None
    if size is None:
        raise MatrixMarketError(f"missing size line (after line {number})")

    if symmetry == "symmetric":
        if m != n:
            raise MatrixMarketError("symmetric array files must be square")
        expected = n * (n + 1) // 2
    else:
        expected = m * n
    if len(values) < expected:
        raise MatrixMarketError(
            f"unexpected end of data: {len(values)} of {expected} values (after line {number})"
        )
    if len(values) > expected:
        raise MatrixMarketError(f"trailing data: expected {expected} values, got {len(values)}")

    if symmetry == "general":
        return DenseMatrix(m, n, values, FLOAT64)
    data = [0.0] * (m * n)
    for j in range(n):  # the lower triangle's column j is also row j of the upper one
        k = j * n - j * (j - 1) // 2  # the values of columns 0 .. j - 1 come first
        data[j * n + j:(j + 1) * n] = data[j * n + j::n] = values[k:k + n - j]
    return DenseMatrix(m, n, data, FLOAT64)
