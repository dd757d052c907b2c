import io
import math
import os

import pytest

import tmat
from tmat import (
    MatrixMarketError,
    construct,
    export_array,
    export_coordinate,
    import_array,
    materialize,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "hilbert2_array.mtx")

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
