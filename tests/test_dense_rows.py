"""DenseMatrix.to_rows and from_rows: strided row views of the column-major
data and their transpose back, for every scalar kind and the empty shapes."""

from fractions import Fraction

import pytest

from tmat import FLOAT64, RATIONAL64, ParameterError, Rational64
from tmat.core import DenseMatrix

VALUES = {
    "float": lambda k: float(k) - 2.5,
    "complex": lambda k: complex(k, -k),
    "rational64": lambda k: Rational64.from_number(Fraction(k, 3)),
}


def _dense(m, n, kind):
    make = VALUES[kind]
    return DenseMatrix(m, n, [make(k) for k in range(m * n)], RATIONAL64 if kind == "rational64" else FLOAT64)


@pytest.mark.parametrize("kind", VALUES)
@pytest.mark.parametrize("m, n", [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (4, 4)])
def test_rows_are_the_column_major_entries_by_row(m, n, kind):
    d = _dense(m, n, kind)
    rows = d.to_rows()
    assert rows == [[d.get(i, j) for j in range(1, n + 1)] for i in range(1, m + 1)]
    back = DenseMatrix.from_rows(rows, d.scalar_kind)
    assert (back.data, back.scalar_kind) == (d.data, d.scalar_kind)
    # no row list is left to carry the width of a matrix without rows
    assert back.dims == ((m, n) if m else (0, 0))


def test_rows_are_fresh_lists():
    d = _dense(3, 4, "float")
    before = list(d.data)
    rows = d.to_rows()
    rows[1][2] = 99.0
    rows[0].append(1.0)
    rows[2].clear()
    assert d.data == before
    assert d.to_rows() != rows



@pytest.mark.parametrize(
    "rows", [[[1.0], [2.0, 3.0]], [[1.0, 2.0], [3.0]], [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0, 7.0]]]
)
def test_rows_of_unequal_length_are_refused(rows):
    with pytest.raises(ParameterError, match="ragged rows"):
        DenseMatrix.from_rows(rows, FLOAT64)
