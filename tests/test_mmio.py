import io
import math
import os
import tracemalloc

import pytest

import tmat
from tmat import (
    FLOAT64,
    RATIONAL64,
    MatrixMarketError,
    TmatError,
    construct,
    export_array,
    export_coordinate,
    import_array,
    materialize,
)
from tmat.mmio import format_value

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
FIXTURE = os.path.join(FIXTURES, "hilbert2_array.mtx")

ALL_FAMILIES = tuple(tmat.list_families())


def _export_bytes(h, **kwargs):
    buf = io.StringIO()
    export_array(h, buf, **kwargs)
    return buf.getvalue().encode()


def test_hilbert2_array_matches_checked_in_fixture(tmp_path):
    target = tmp_path / "h.mtx"
    export_array(construct("hilbert", n=2), target)
    with open(FIXTURE, "rb") as f:
        assert target.read_bytes() == f.read()


def test_array_header_and_values():
    text = _export_bytes(construct("hilbert", n=2)).decode()
    lines = text.splitlines()
    assert lines[0] == "%%MatrixMarket matrix array real general"
    assert lines[1] == "% scalar-kind: rational64"
    assert lines[2] == "2 2"
    assert lines[3:] == ["1", "0.5", "0.5", "0.3333333333333333"]
    assert text.endswith("\n")


def test_float_handles_have_no_provenance_comment():
    text = _export_bytes(construct("kms", n=2)).decode()
    assert "% scalar-kind" not in text


def test_empty_matrix_export():
    lines = _export_bytes(construct("hilbert", m=0, n=0)).decode().splitlines()
    assert lines[-1] == "0 0"


def test_symmetric_array_stores_lower_triangle():
    lines = _export_bytes(construct("minij", n=2), symmetric=True).decode().splitlines()
    assert lines[0] == "%%MatrixMarket matrix array real symmetric"
    assert lines[-3:] == ["1", "1", "2"]
    with pytest.raises(MatrixMarketError):
        export_array(construct("grcar", n=3), io.StringIO(), symmetric=True)


def test_coordinate_examples():
    buf = io.StringIO()
    export_coordinate(construct("jordbloc", n=3, lam=0), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate real general"
    assert lines[1] == "3 3 2"
    assert lines[2:] == ["1 2 1", "2 3 1"]

    buf = io.StringIO()
    export_coordinate(construct("poisson", n=2), buf)
    m, n, nnz = buf.getvalue().splitlines()[2].split()
    assert (m, n, nnz) == ("4", "4", "12")

    buf = io.StringIO()
    export_coordinate(construct("grcar", n=3), buf)
    assert buf.getvalue().splitlines()[1] == "3 3 8"


def test_coordinate_nnz_matches_brute_scan():
    for family, size in [("poisson", 4), ("grcar", 5), ("companion", 4), ("triw", 4)]:
        h = construct(family, tmat.feasible_size(family, size))
        buf = io.StringIO()
        export_coordinate(h, buf)
        declared = int(buf.getvalue().splitlines()[1 if h.scalar_kind == tmat.FLOAT64 else 2].split()[2])
        d = materialize(h)
        assert declared == sum(1 for v in d.data if v != 0)


def test_coordinate_zero_tol_filters_small_entries():
    h = construct("kms", n=4, rho=0.5)
    buf = io.StringIO()
    export_coordinate(h, buf, zero_tol=0.2)
    data_lines = [l for l in buf.getvalue().splitlines() if not l.startswith("%")][1:]
    assert all(abs(float(l.split()[2])) > 0.2 for l in data_lines)
    # rho^2 = 0.25 survives, rho^3 = 0.125 does not
    assert len(data_lines) == 4 + 3 * 2 + 2 * 2


def test_round_trip_all_families_within_one_ulp():
    for family in ALL_FAMILIES:
        h = construct(family, n=4)
        buf = io.StringIO()
        export_array(h, buf)
        parsed = import_array(io.StringIO(buf.getvalue()))
        reference = materialize(construct(family, n=4, scalar_kind=tmat.FLOAT64))
        assert (parsed.rows, parsed.cols) == (reference.rows, reference.cols)
        for i in range(1, parsed.rows + 1):
            for j in range(1, parsed.cols + 1):
                a, b = parsed.get(i, j), reference.get(i, j)
                assert abs(a - b) <= math.ulp(max(abs(a), abs(b), 1e-300)), (family, i, j)


def test_symmetric_round_trip_mirrors():
    h = construct("minij", n=3)
    buf = io.StringIO()
    export_array(h, buf, symmetric=True)
    parsed = import_array(io.StringIO(buf.getvalue()))
    assert parsed.to_rows() == [[1.0, 1.0, 1.0], [1.0, 2.0, 2.0], [1.0, 2.0, 3.0]]


def test_export_is_byte_stable():
    h = construct("lotkin", n=4)
    assert _export_bytes(h) == _export_bytes(h)


def test_import_errors_name_lines():
    good = _export_bytes(construct("hilbert", n=3)).decode()
    truncated = "\n".join(good.splitlines()[:-2]) + "\n"
    with pytest.raises(MatrixMarketError, match="of 9 values"):
        import_array(io.StringIO(truncated))

    with pytest.raises(MatrixMarketError, match="field 'complex'"):
        import_array(io.StringIO("%%MatrixMarket matrix array complex general\n1 1\n1\n"))

    with pytest.raises(MatrixMarketError, match="format 'coordinate'"):
        import_array(io.StringIO("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1\n"))

    with pytest.raises(MatrixMarketError, match=r"line 3"):
        import_array(io.StringIO("%%MatrixMarket matrix array real general\n2 1\nnot-a-number\n1\n"))

    with pytest.raises(MatrixMarketError, match="malformed header"):
        import_array(io.StringIO("%MatrixMarket matrix array real general\n"))

    with pytest.raises(MatrixMarketError, match="trailing data"):
        import_array(io.StringIO("%%MatrixMarket matrix array real general\n1 1\n1\n2\n"))


def test_import_tolerates_comments_and_blanks():
    text = (
        "%%MatrixMarket matrix array real general\n"
        "% a comment\n"
        "\n"
        "2 2\n"
        "1\n% mid-stream comment\n2\n\n3\n4\n"
    )
    parsed = import_array(io.StringIO(text))
    assert parsed.to_rows() == [[1.0, 3.0], [2.0, 4.0]]
    # a malformed value after a comment and a blank line is named by its line
    with pytest.raises(MatrixMarketError, match=r"malformed value \(line 9\): '3,5'"):
        import_array(io.StringIO(text.replace("\n3\n", "\n3,5\n")))


def test_export_accepts_paths(tmp_path):
    target = tmp_path / "out.mtx"
    export_coordinate(construct("jordbloc", n=2, lam=0), target)
    assert target.read_text().splitlines()[1] == "2 2 1"
    parsed = import_array(FIXTURE)
    assert parsed.get(1, 1) == 1.0


def test_lehmer5_coordinate_matches_checked_in_fixture():
    # lehmer is declared symmetric: its rows are written from its columns
    with open(os.path.join(FIXTURES, "lehmer5_coordinate.mtx"), "rb") as f:
        assert _coordinate_bytes(construct("lehmer", n=5)) == f.read()


# -- both writers against a per-entry oracle -----------------------------------------


def _coordinate_bytes(h, **kwargs):
    buf = io.StringIO()
    export_coordinate(h, buf, **kwargs)
    return buf.getvalue().encode()


def _oracle(h, layout, symmetric=False, zero_tol=0.0):
    """The writers' text with one format_value per entry: array lines in
    column-major order, coordinate lines in row-major order."""
    rows = materialize(h).to_rows()
    kind = "% scalar-kind: rational64\n" if h.scalar_kind == RATIONAL64 else ""
    if layout == "array":
        text = f"%%MatrixMarket matrix array real {'symmetric' if symmetric else 'general'}\n"
        text += f"{kind}{h.rows} {h.cols}\n"
        for j in range(h.cols):
            for i in range(j if symmetric else 0, h.rows):
                text += format_value(float(rows[i][j])) + "\n"
        return text.encode()
    lines = [
        f"{i} {j} {format_value(float(v))}\n"
        for i, row in enumerate(rows, 1)
        for j, v in enumerate(row, 1)
        if abs(float(v)) > zero_tol
    ]
    text = f"%%MatrixMarket matrix coordinate real general\n{kind}{h.rows} {h.cols} {len(lines)}\n"
    return (text + "".join(lines)).encode()


def _outcome(fn):
    try:
        return fn()
    except TmatError as exc:
        return type(exc), str(exc)


def _assert_writers_match_the_oracle(h):
    writes = [("array", {}), ("coordinate", {"zero_tol": 0.0}), ("coordinate", {"zero_tol": 0.2})]
    writes.append(("coordinate", {"zero_tol": -1.0}))
    if h.rows == h.cols and _outcome(lambda: tmat.is_symmetric(h)) is True:
        writes.append(("array", {"symmetric": True}))
    for layout, kwargs in writes:
        writer = _export_bytes if layout == "array" else _coordinate_bytes
        got = _outcome(lambda: writer(h, **kwargs))
        assert got == _outcome(lambda: _oracle(h, layout, **kwargs)), (h, layout, kwargs)


def _differential_handles():
    for family in ALL_FAMILIES:
        for kind in (FLOAT64, RATIONAL64):
            for n in (0, 1, 2, 3, 7) if family == "poisson" else (0, 1, 2, 3, 7, 40):
                try:
                    yield construct(family, n=n, scalar_kind=kind)
                except tmat.ParameterError:
                    pass
    for rho in (0.0, -0.0, math.nan, math.inf, -math.inf, 1e200):
        yield construct("kms", n=7, rho=rho, scalar_kind=FLOAT64)
    for family in ("pei", "moler"):
        yield construct(family, n=7, alpha=math.nan, scalar_kind=FLOAT64)
    yield construct("cauchy", x=(1, 2, 3, 5), y=(1, 2, 3, 5))  # declared symmetric as x = y


def test_writers_match_a_per_entry_oracle():
    handles = list(_differential_handles())
    assert sum(bool(tmat.mmio._mirrored(h)) for h in handles) > 80
    for h in handles:
        _assert_writers_match_the_oracle(h)


def test_writers_match_the_oracle_past_the_mirror_cap(monkeypatch):
    # past the cap, the array writer formats each later column's upper part itself
    monkeypatch.setattr(tmat.mmio, "MIRROR_TEXTS", 12)
    for family, n in (("lehmer", 9), ("poisson", 4), ("kms", 40), ("hilbert", 1)):
        _assert_writers_match_the_oracle(construct(family, n=n))


def _register(name, element_fn, column_fn=None):
    tmat.register_family(
        tmat.FamilyDescriptor(
            id=name, params=(tmat.ParamSpec("n", "dim"),), default_scalar_kind=FLOAT64, tags=()
        ),
        element_fn,
        column_fn=column_fn,
        predicates={"symmetric": lambda h: True},
    )


def test_user_families_declared_symmetric_match_the_oracle():
    # no column_fn: element_fn fills every column, with -0.0 and zeros below tolerance
    _register("symuser", lambda p, i, j, k: -0.0 if (i + j) % 3 == 0 else (i * j) / 7 - 0.5)

    # tridiagonal, but the even columns declare a full band: their entries above
    # the band of the odd columns are mirrors outside a band, hence zero
    def tridiagonal(p, i, j, k):
        return 2.0 if i == j else (-1.0 if abs(i - j) == 1 else 0.0)

    def column(p, j, k):
        n = p["n"]
        first, last = (1, n) if j % 2 == 0 else (max(1, j - 1), min(n, j + 1))
        return first, [tridiagonal(p, i, j, k) for i in range(first, last + 1)]

    _register("wideband", tridiagonal, column)

    # an arrow (first row and column) on a tridiagonal, with distinct entries: the
    # odd columns after the first end below the diagonal, the others are full, so
    # row i's mirrors come from columns that reach it and columns that do not
    def arrow(p, i, j, k):
        return (i + j) / 8 if abs(i - j) <= 1 or min(i, j) == 1 else 0.0

    def arrow_column(p, j, k):
        n = p["n"]
        last = min(n, j + 1) if j % 2 and j > 1 else n
        return 1, [arrow(p, i, j, k) for i in range(1, last + 1)]

    _register("arrow", arrow, arrow_column)

    # nonzero two off the diagonal only: the bands of columns 1 and 2 start below
    # their diagonals, and are empty when n is too small to reach them
    def skip2(p, i, j, k):
        return (i + j) / 8 if abs(i - j) == 2 else 0.0

    def skip2_column(p, j, k):
        first = j - 2 if j > 2 else j + 2
        if first > p["n"]:
            return 1, []
        return first, [skip2(p, i, j, k) for i in range(first, min(p["n"], j + 2) + 1)]

    _register("skip2", skip2, skip2_column)

    # tridiagonal with distinct entries: the first k columns declare the whole
    # column and the later ones their band, so export_array mirrors only the first k
    def tridiagonal8(p, i, j, k):
        return (i + j) / 8 if abs(i - j) <= 1 else 0.0

    def whole_first(whole):
        def column(p, j, k):
            n = p["n"]
            first, last = (1, n) if j <= whole(n) else (max(1, j - 1), min(n, j + 1))
            return first, [tridiagonal8(p, i, j, k) for i in range(first, last + 1)]

        return column

    _register("whole0", tridiagonal8, whole_first(lambda n: 0))
    _register("whole1", tridiagonal8, whole_first(lambda n: 1))
    _register("wholen", tridiagonal8, whole_first(lambda n: n))
    for name in ("symuser", "wideband", "arrow", "skip2", "whole0", "whole1", "wholen"):
        for n in (0, 1, 2, 3, 7, 12):
            h = construct(name, n=n)
            assert tmat.mmio._mirrored(h)
            _assert_writers_match_the_oracle(h)


# -- the reader against a whole-text oracle ---------------------------------------------


def _whole_text_import(text):
    """import_array's data from text.splitlines() in one pass, or its error text."""
    lines = text.splitlines()
    content = [(k, raw) for k, raw in enumerate(lines[1:], 2) if raw.strip()[:1] not in ("", "%")]
    if not content:
        return f"missing size line (after line {len(lines)})"
    (at, size), values = content[0], []
    parts = size.split()
    if len(parts) != 2 or not all(p.lstrip("-").isdigit() for p in parts):
        return f"malformed size line (line {at}): {size!r}"
    m, n = map(int, parts)
    if m < 0 or n < 0:
        return f"negative dimensions (line {at})"
    for k, raw in content[1:]:
        try:
            values.append(float(raw))
        except ValueError:
            return f"malformed value (line {k}): {raw!r}"
    symmetric = lines[0].split()[4] == "symmetric"
    expected = n * (n + 1) // 2 if symmetric else m * n
    if len(values) < expected:
        return f"unexpected end of data: {len(values)} of {expected} values (after line {len(lines)})"
    if len(values) > expected:
        return f"trailing data: expected {expected} values, got {len(values)}"
    if not symmetric:
        return values
    data, lower = [0.0] * (n * n), iter(values)
    for j in range(n):
        for i in range(j, n):
            data[j * n + i] = data[i * n + j] = next(lower)
    return data


def _import_outcome(text):
    try:
        return import_array(io.StringIO(text)).data
    except MatrixMarketError as exc:
        return str(exc)


GENERAL = "%%MatrixMarket matrix array real general\n% c\n\n2 3\n1\n-2.5\n% mid\n\n3e-3\n 4 \n5\n6\n"
SYMMETRIC = "%%MatrixMarket matrix array real symmetric\n3 3\n1\n2\n\n3\n4\n% x\n5\n6\n"


def _reader_texts():
    for text in (GENERAL, SYMMETRIC):
        yield text
        yield text.replace("\n", "\r\n")
        yield text.replace("\n", "\r")
        for sep in ("\x0c", "\x1c", "\u2028", "\x0c\n"):  # str.splitlines ends a line at each
            yield text.replace("\n1\n", f"\n1{sep}").replace("\n5\n", f"\n{sep}5\n")
        yield text.replace("\n5\n", "\n5,0\n")  # a malformed value
        yield text.replace("\n6\n", "\n")  # one value short
        yield text + "7\n"  # one value too many
    yield GENERAL.replace("2 3\n", "2 3 4\n")
    yield GENERAL.replace("2 3\n", "2 -3\n")
    yield GENERAL[:GENERAL.index("2 3")]  # no size line


def test_import_equals_the_whole_text_parse_at_every_cut(monkeypatch):
    # every chunk size cuts somewhere else: after the header, in the comments,
    # on a blank or comment line after the size line, just after a value line
    texts = list(_reader_texts())
    for chunk in range(1, max(map(len, texts)) + 2):
        monkeypatch.setattr(tmat.mmio, "CHUNK_CHARS", chunk)
        for text in texts:
            assert _import_outcome(text) == _whole_text_import(text), (chunk, text)
    assert _import_outcome(GENERAL.replace("\n5\n", "\n5,0\n")) == "malformed value (line 11): '5,0'"
    assert _import_outcome(SYMMETRIC.replace("\n6\n", "\n")).endswith("5 of 6 values (after line 9)")


def test_import_of_a_file_of_many_chunks_equals_the_whole_text_parse():
    text = _export_bytes(construct("triw", n=300, scalar_kind=FLOAT64)).decode()
    assert len(text) > 3 * tmat.mmio.CHUNK_CHARS
    lines = text.splitlines()
    late = len(lines) - 100  # a line of the last chunk
    for variant in (
        text,
        text.replace("\n", "\r\n"),
        "\n".join(lines[:late] + ["% late comment", "", *lines[late:]]),
        "\n".join(lines[:late] + ["-1x", *lines[late + 1:]]),
        "\n".join(lines[:late]),
    ):
        assert _import_outcome(variant) == _whole_text_import(variant)
    assert _import_outcome("\n".join(lines[:late] + ["-1x"])) == f"malformed value (line {late + 1}): '-1x'"


def _traced_peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class _Discard:
    """A sink that keeps nothing: from Python 3.12 on, tracemalloc also
    counts the copy of the text that an io.StringIO sink makes."""

    def write(self, text):
        return len(text)


def test_mirrored_coordinate_export_holds_joined_rows():
    # one string per finished row, not per line: with a string per line, the
    # 4.2M characters of lehmer n = 400 peaked at 11.5-12.8 MB
    h = construct("lehmer", n=400, scalar_kind=FLOAT64)
    assert _traced_peak_mb(lambda: export_coordinate(h, _Discard())) < 8


def test_import_holds_no_list_of_every_line():
    # the text, the values and one chunk's lines: 13.4-14.0 MB with a list of every line
    text = _export_bytes(construct("triw", n=400, scalar_kind=FLOAT64)).decode()
    assert _traced_peak_mb(lambda: import_array(io.StringIO(text))) < 10


# -- a refused export leaves a path target as it was -------------------------------------


@pytest.mark.parametrize("layout", ["array", "coordinate"])
@pytest.mark.parametrize("existing", [None, b"old content\n"])
def test_a_refused_export_leaves_the_target_as_it_was(tmp_path, layout, existing):
    target = tmp_path / "p.mtx"
    if existing is not None:
        target.write_bytes(existing)
    writer = export_array if layout == "array" else export_coordinate
    # pascal rational64 overflows at entry (40, 30), after 29 columns are written
    with pytest.raises(tmat.RationalOverflowError, match=r"pascal entry \(40, 30\)"):
        writer(construct("pascal", n=40, scalar_kind=RATIONAL64), target)
    assert os.listdir(tmp_path) == ([] if existing is None else ["p.mtx"])
    if existing is not None:
        assert target.read_bytes() == existing


@pytest.mark.parametrize("layout", ["array", "coordinate"])
def test_a_written_export_replaces_the_target(tmp_path, layout):
    target = tmp_path / "p.mtx"
    target.write_bytes(b"old content\n")
    target.chmod(0o640)
    writer = export_array if layout == "array" else export_coordinate
    h = construct("pascal", n=4, scalar_kind=RATIONAL64)
    writer(h, str(target))
    assert os.listdir(tmp_path) == ["p.mtx"]
    assert target.read_bytes() == _oracle(h, layout)
    assert target.stat().st_mode & 0o777 == 0o640


@pytest.mark.parametrize("layout", ["array", "coordinate"])
@pytest.mark.parametrize("existing", [None, b"old content\n"])
def test_a_symlinked_target_is_written_through(tmp_path, layout, existing):
    real, link = tmp_path / "real.mtx", tmp_path / "link.mtx"
    if existing is not None:
        real.write_bytes(existing)
    link.symlink_to(real)
    writer = export_array if layout == "array" else export_coordinate
    h = construct("lehmer", n=4)
    writer(h, link)
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_bytes() == _oracle(h, layout)
    assert sorted(os.listdir(tmp_path)) == ["link.mtx", "real.mtx"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("layout", ["array", "coordinate"])
def test_a_fifo_target_is_written_in_place(tmp_path, layout):
    fifo = tmp_path / "out.mtx"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # lets the writer open without waiting
    try:
        writer = export_array if layout == "array" else export_coordinate
        h = construct("hilbert", n=3)  # far below the pipe's buffer
        writer(h, fifo)
        assert os.read(reader, 1 << 16) == _oracle(h, layout)
    finally:
        os.close(reader)
    assert os.listdir(tmp_path) == ["out.mtx"]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_descriptor_path_target_is_written_in_place():
    # what `tm export ... -o /dev/stdout` opens when stdout is a pipe
    reader, writer_fd = os.pipe()
    try:
        export_array(construct("hilbert", n=2), f"/dev/fd/{writer_fd}")
    finally:
        os.close(writer_fd)
    with os.fdopen(reader, "rb") as source, open(FIXTURE, "rb") as f:
        assert source.read() == f.read()
