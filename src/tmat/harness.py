"""Batch algorithm runner over property/size-filtered families.

test_algorithm constructs every matching family at every requested size
(default parameters), applies a user function to the lazy handle, and records
the outcomes. Errors follow the configured policy: abort (default), convert
to warnings, or ignore; when both flags are set, ignoring wins.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Optional, Sequence

from . import registry
from .errors import HarnessError
from .families import construct, feasible_size
from .linalg import determinant, entry_sum, frobenius_norm, is_symmetric

OK = "ok"
WARNING = "warning"


@dataclass(frozen=True)
class HarnessRecord:
    family: str
    size: int
    status: str  # "ok" | "warning"
    value: object = None
    message: str = ""


def test_algorithm(
    fn: Callable,
    sizes: Sequence[int],
    *,
    props: Optional[Sequence[str]] = None,
    groups: Optional[Sequence[str]] = None,
    exclude: Sequence[str] = (),
    errors_as_warnings: bool = False,
    ignore_errors: bool = False,
) -> list[HarnessRecord]:
    """Apply fn to the lazy handle of every matching (family, size) pair, in
    registration order."""
    if not sizes:
        raise HarnessError("sizes must be non-empty")
    for s in sizes:
        if s < 1:
            raise HarnessError(f"sizes must be >= 1, got {s}")

    matching = registry.list_matrices(list(groups) if groups else None, list(props) if props else None)
    excluded = set(exclude)
    matching = [f for f in matching if f not in excluded]

    records: list[HarnessRecord] = []
    for family_id in matching:
        for size in sizes:
            try:
                params = feasible_size(family_id, size)
                if params is None:
                    raise HarnessError(f"size {size} is infeasible for family '{family_id}'")
                value = fn(construct(family_id, params))
            except Exception as exc:  # the policy decides; ignoring wins
                if ignore_errors:
                    continue
                message = f"{family_id} at size {size}: {exc}"
                if not errors_as_warnings:
                    raise HarnessError(message) from exc
                warnings.warn(message)
                records.append(HarnessRecord(family_id, size, WARNING, message=message))
                continue
            records.append(HarnessRecord(family_id, size, OK, value=value))
    return records


def _fn_det_positive(handle):
    return determinant(handle) > 0


def _fn_sum(handle):
    return entry_sum(handle)


def _fn_issymmetric(handle):
    return is_symmetric(handle)


def median_ns(fn, reps: int) -> tuple[int, object]:
    """(median wall-clock nanoseconds of reps calls of fn, fn's last value)."""
    times = []
    for _ in range(reps):
        start = perf_counter_ns()
        value = fn()
        times.append(perf_counter_ns() - start)
    times.sort()
    mid = len(times) // 2
    return (times[mid] + times[~mid]) // 2, value  # the middle pair's mean when reps is even


def _fn_timing(handle):
    return median_ns(lambda: frobenius_norm(handle), 1)[0]


# Algorithms runnable from the CLI, where arbitrary closures cannot cross the
# process boundary. "timing" reports the wall-clock nanoseconds of one full
# streamed pass over the matrix.
FN_MENU: dict[str, Callable] = {
    "det-positive": _fn_det_positive,
    "sum": _fn_sum,
    "issymmetric": _fn_issymmetric,
    "timing": _fn_timing,
}

__all__ = [
    "HarnessRecord",
    "test_algorithm",
    "median_ns",
    "feasible_size",
    "FN_MENU",
    "OK",
    "WARNING",
]
