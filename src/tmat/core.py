"""Lazy matrix handles and dense materialization.

A MatrixHandle stores a family identifier, a validated parameter record, and
a scalar kind; entries are computed on demand from the family's formula, so
the handle's storage never depends on the matrix dimensions (except for
families parametrized by a coefficient vector). DenseMatrix is the explicit
column-major materialization target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from math import hypot
from typing import Any

from .errors import BoundsError, ParameterError, RationalOverflowError
from .scalars import RATIONAL64, zero


@dataclass(frozen=True)
class MatrixHandle:
    """One constructed matrix: O(1) storage, elements computed on demand."""

    family: str
    params: dict
    scalar_kind: str
    rows: int
    cols: int
    record: Any = field(repr=False, compare=False)

    @property
    def dims(self) -> tuple[int, int]:
        return (self.rows, self.cols)


class DenseMatrix:
    """Explicit dense storage, column-major: data[(j-1)*rows + (i-1)] = a_ij."""

    __slots__ = ("rows", "cols", "scalar_kind", "data")

    def __init__(self, rows: int, cols: int, data: list, scalar_kind: str):
        if len(data) != rows * cols:
            raise ParameterError(
                f"dense data length {len(data)} != rows*cols = {rows * cols}"
            )
        self.rows = rows
        self.cols = cols
        self.scalar_kind = scalar_kind
        self.data = data

    @classmethod
    def from_rows(cls, row_lists: list[list], scalar_kind: str) -> "DenseMatrix":
        cols = len(row_lists[0]) if row_lists else 0
        if any(len(row) != cols for row in row_lists):
            raise ParameterError(f"ragged rows: row lengths {sorted({len(r) for r in row_lists})}")
        return cls(len(row_lists), cols, list(chain.from_iterable(zip(*row_lists))), scalar_kind)

    def get(self, i: int, j: int):
        """1-based entry access."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise BoundsError(
                f"index ({i}, {j}) out of bounds for {self.rows}x{self.cols} matrix"
            )
        return self.data[(j - 1) * self.rows + (i - 1)]

    def to_rows(self) -> list[list]:
        """Fresh row lists, each a strided slice of the column-major data."""
        r, d = self.rows, self.data
        return [d[i::r] for i in range(r)]

    @property
    def dims(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(a == b for a, b in zip(self.data, other.data))
        )

    def __repr__(self):
        return f"DenseMatrix({self.rows}x{self.cols}, {self.scalar_kind})"


def dims(h: MatrixHandle) -> tuple[int, int]:
    """Declared (rows, cols) of a handle."""
    return (h.rows, h.cols)


def element(h: MatrixHandle, i: int, j: int):
    """Entry a_ij, 1-based. Pure: equal arguments always yield equal values."""
    if not (1 <= i <= h.rows and 1 <= j <= h.cols):
        raise BoundsError(
            f"index ({i}, {j}) out of bounds for {h.rows}x{h.cols} {h.family}"
        )
    try:
        return h.record.element_fn(h.params, i, j, h.scalar_kind)
    except RationalOverflowError as exc:
        raise RationalOverflowError(
            f"{h.family} entry ({i}, {j}): {exc}; use scalar kind float64 for this instance"
        ) from exc


def columns(h: MatrixHandle, *, full: bool = False):
    """Yield (j, first_row, values) for each column j: the one bulk entry path.

    values are rows first_row .. first_row + len(values) - 1 of column j and
    every entry outside them is exactly zero(kind). A family's column_fn
    supplies that band, which must lie in rows 1 .. rows (ParameterError
    otherwise; an empty band is a zero column); without one, element_fn fills
    the whole column. With full=True each band is padded to the whole column
    with one shared zero.
    """
    column_fn, fn = h.record.column_fn, h.record.element_fn
    params, kind, rows = h.params, h.scalar_kind, h.rows
    pad = zero(kind)
    for j in range(1, h.cols + 1):
        try:
            if column_fn is None:
                first, values = 1, [fn(params, i, j, kind) for i in range(1, rows + 1)]
            else:
                first, values = column_fn(params, j, kind)
        except RationalOverflowError:
            for i in range(1, rows + 1):
                element(h, i, j)  # re-raises naming the entry that overflowed
            raise
        if not values:
            first = 1  # an empty band is a zero column, whatever its first row
        elif first < 1 or first + len(values) - 1 > rows:
            raise ParameterError(
                f"column_fn of family '{h.family}' gives column {j} rows {first}.."
                f"{first + len(values) - 1}, outside rows 1..{rows}"
            )
        if full and len(values) < rows:
            values = [pad] * (first - 1) + values + [pad] * (rows + 1 - first - len(values))
            first = 1
        yield j, first, values


def materialize(h: MatrixHandle) -> DenseMatrix:
    """Dense column-major copy of the handle."""
    data = []
    for _, _, values in columns(h, full=True):
        data += values
    return DenseMatrix(h.rows, h.cols, data, h.scalar_kind)


def handle_footprint(h: MatrixHandle) -> int:
    """In-memory bytes of the parameter record, as a packed-struct estimate.

    16 bytes for the row/col counts plus 8 per non-dimension scalar or flag
    parameter and 8 per vector descriptor. Vector element storage is excluded
    here and reported by vector_footprint(). The exact value is an
    implementation detail; its independence from the matrix size is the
    contract.
    """
    size = 16
    for spec in h.record.descriptor.params:
        if spec.kind == "dim":
            continue
        size += 8
    return size


def vector_footprint(h: MatrixHandle) -> int:
    """Bytes of owned vector-parameter elements (8 per element)."""
    total = 0
    for spec in h.record.descriptor.params:
        if spec.kind == "vector":
            total += 8 * len(h.params[spec.name])
    return total


def dense_footprint(d: DenseMatrix) -> int:
    """Data bytes of a dense materialization (8 per float64 entry, 16 per rational)."""
    per_entry = 16 if d.scalar_kind == RATIONAL64 else 8
    return per_entry * d.rows * d.cols


def frobenius_of_dense(d: DenseMatrix) -> float:
    """||d||_F, the scale of every float pivot tolerance: hypot of the
    columns' hypots, as frobenius_norm reduces. No square is formed, so
    nothing overflows and a norm beyond the float range is inf. Rationals
    are converted to float; abs of a complex entry is its modulus."""
    m, data = d.rows, d.data
    mag = float if d.scalar_kind == RATIONAL64 else abs
    return hypot(*(hypot(*map(mag, data[j * m:(j + 1) * m])) for j in range(d.cols)))
