"""Family registry: descriptors, parameter validation, and construction.

Each matrix family registers a descriptor (identifier, parameter schema,
property tags), an element formula, an optional column kernel that returns
the nonzero band of a column, and optional specialized routines (closed-form
determinant, inverse, spectrum, and O(1) predicates) that the linalg dispatch
layer prefers over generic fallbacks. The routines passed are the family's
capabilities: the stored descriptor lists exactly those.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional

from .core import MatrixHandle
from .errors import DuplicateFamilyError, ParameterError, UnknownFamilyError
from .scalars import RATIONAL64, Rational64, check_kind

_REQUIRED = object()


@dataclass(frozen=True)
class ParamSpec:
    """One constructor parameter: name, kind, and default.

    kind is one of:
      dim     non-negative integer dimension (does not add to the handle footprint)
      scalar  a number (converted to the handle's scalar kind)
      vector  a sequence of numbers
      bool    a flag
    default may be a value, a callable(resolved_params) -> value, or omitted
    (the parameter is then required).
    """

    name: str
    kind: str
    default: object = _REQUIRED

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED


@dataclass(frozen=True)
class FamilyDescriptor:
    """Static metadata for one family; capabilities are derived at registration."""

    id: str
    params: tuple[ParamSpec, ...]
    default_scalar_kind: str
    tags: tuple[str, ...]
    capabilities: frozenset = frozenset()


@dataclass
class FamilyRecord:
    """Descriptor plus the callables implementing the family."""

    descriptor: FamilyDescriptor
    element_fn: Callable
    dims_fn: Callable
    column_fn: Optional[Callable] = None
    validate_fn: Optional[Callable] = None
    scalar_kind_fn: Optional[Callable] = None
    size_to_params: Optional[Callable] = None
    det_fn: Optional[Callable] = None
    inverse_fn: Optional[Callable] = None
    eigvals_fn: Optional[Callable] = None
    predicates: dict = field(default_factory=dict)

    @property
    def id(self) -> str:
        return self.descriptor.id


_LOCK = threading.RLock()
_FAMILIES: dict[str, FamilyRecord] = {}


def _valid_tags():
    from .properties import PROPERTY_TAGS

    return PROPERTY_TAGS


def register_family(
    descriptor: FamilyDescriptor,
    element_fn: Callable,
    *,
    dims_fn: Optional[Callable] = None,
    column_fn: Optional[Callable] = None,
    validate_fn: Optional[Callable] = None,
    scalar_kind_fn: Optional[Callable] = None,
    size_to_params: Optional[Callable] = None,
    det_fn: Optional[Callable] = None,
    inverse_fn: Optional[Callable] = None,
    eigvals_fn: Optional[Callable] = None,
    predicates: Optional[dict] = None,
) -> None:
    """Register a new family; it joins no group automatically.

    column_fn(params, j, kind) -> (first_row, values) is optional: values are
    rows first_row .. first_row + len(values) - 1 of column j, every entry
    outside them is exactly zero(kind), and each value equals element_fn's.
    A band must lie in rows 1 .. m; an empty band is a zero column.
    The descriptor is stored with capabilities naming the routines passed
    (det_fn, inverse_fn, eigvals_fn, a non-empty predicates); one that
    declares a different non-empty set is refused.
    """
    with _LOCK:
        fid = descriptor.id
        if fid in _FAMILIES:
            raise DuplicateFamilyError(f"family '{fid}' is already registered")
        vocabulary = _valid_tags()
        for tag in descriptor.tags:
            if tag not in vocabulary:
                raise ParameterError(
                    f"unknown property '{tag}' for family '{fid}'; "
                    f"tags must come from the builtin vocabulary"
                )
        routines = {
            "closed_det": det_fn,
            "closed_inverse": inverse_fn,
            "closed_eigvals": eigvals_fn,
            "closed_predicates": predicates,
        }
        caps = frozenset(cap for cap, routine in routines.items() if routine)
        declared = descriptor.capabilities
        if declared and declared != caps:
            missing = sorted(declared - caps)
            raise ParameterError(
                f"family '{fid}' declares capability '{missing[0]}' without a routine"
                if missing
                else f"family '{fid}' declares {sorted(declared)} "
                f"but passes routines for {sorted(caps)}"
            )
        if dims_fn is None:
            dims_fn = lambda params: (params["n"], params["n"])  # noqa: E731
        _FAMILIES[fid] = FamilyRecord(
            descriptor=replace(descriptor, capabilities=caps),
            element_fn=element_fn,
            dims_fn=dims_fn,
            column_fn=column_fn,
            validate_fn=validate_fn,
            scalar_kind_fn=scalar_kind_fn,
            size_to_params=size_to_params,
            det_fn=det_fn,
            inverse_fn=inverse_fn,
            eigvals_fn=eigvals_fn,
            predicates=predicates or {},
        )


def get_family(family_id: str) -> FamilyRecord:
    try:
        return _FAMILIES[family_id]
    except KeyError:
        raise UnknownFamilyError(family_id) from None


def is_registered(family_id: str) -> bool:
    return family_id in _FAMILIES


def list_families() -> list[str]:
    """All registered family ids, in registration order."""
    return list(_FAMILIES)


# -- parameter resolution -----------------------------------------------------


def _coerce_dim(name, value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"parameter '{name}' must be an integer, got {value!r}")
    if value < 0:
        raise ParameterError(f"{name} = {value} < 0")
    return value


def _coerce_scalar(name, value, kind):
    if isinstance(value, bool):
        raise ParameterError(f"parameter '{name}' must be a number, got {value!r}")
    if kind == RATIONAL64:
        try:
            return Rational64.from_number(value)
        except ParameterError:
            raise
        except Exception as exc:
            raise ParameterError(
                f"parameter '{name}' = {value!r} is not representable as rational64: {exc}"
            ) from exc
    if isinstance(value, Rational64):
        return float(value)
    if isinstance(value, Fraction):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    raise ParameterError(f"parameter '{name}' must be a number, got {value!r}")


def _coerce_vector(name, value, kind):
    try:
        items = list(value)
    except TypeError:
        raise ParameterError(f"parameter '{name}' must be a sequence, got {value!r}") from None
    return tuple(_coerce_scalar(f"{name}[{k}]", v, kind) for k, v in enumerate(items))


def _coerce_bool(name, value):
    if isinstance(value, bool):
        return value
    raise ParameterError(f"parameter '{name}' must be a flag, got {value!r}")


_PARAM_ALIASES = {"lam": "lambda"}


def construct(family_id: str, params: Optional[dict] = None, scalar_kind: Optional[str] = None, **extra) -> MatrixHandle:
    """Build an O(1) handle; no element is computed.

    Parameters may be given as a dict and/or keywords; `lam` is accepted as an
    alias for the `lambda` parameter, which is not a legal Python keyword.
    """
    record = get_family(family_id)
    desc = record.descriptor

    given = dict(params or {})
    given.update(extra)
    given = {_PARAM_ALIASES.get(k, k): v for k, v in given.items()}
    known = {spec.name for spec in desc.params}
    for name in given:
        if name not in known:
            raise ParameterError(f"unknown parameter '{name}' for family '{family_id}'")

    if scalar_kind is None:
        if record.scalar_kind_fn is not None:
            scalar_kind = record.scalar_kind_fn(given)
        else:
            scalar_kind = desc.default_scalar_kind
    check_kind(scalar_kind)

    resolved: dict = {}
    for spec in desc.params:
        if spec.name in given:
            value = given[spec.name]
        elif spec.required:
            raise ParameterError(
                f"family '{family_id}' requires parameter '{spec.name}'"
            )
        else:
            value = spec.default(resolved) if callable(spec.default) else spec.default
            if value is None:
                continue
        if spec.kind == "dim":
            value = _coerce_dim(spec.name, value)
        elif spec.kind == "scalar":
            value = _coerce_scalar(spec.name, value, scalar_kind)
        elif spec.kind == "vector":
            value = _coerce_vector(spec.name, value, scalar_kind)
        elif spec.kind == "bool":
            value = _coerce_bool(spec.name, value)
        resolved[spec.name] = value

    if record.validate_fn is not None:
        resolved = record.validate_fn(resolved, scalar_kind)

    rows, cols = record.dims_fn(resolved)
    return MatrixHandle(
        family=family_id,
        params=resolved,
        scalar_kind=scalar_kind,
        rows=rows,
        cols=cols,
        record=record,
    )


def feasible_size(family_id: str, requested: int) -> Optional[dict]:
    """Constructor parameters yielding a requested x requested matrix, or None.

    Most families take the size directly; poisson's dimension is the square of
    its grid parameter, so only perfect-square sizes are feasible.
    """
    if requested < 1:
        raise ParameterError(f"requested size must be >= 1, got {requested}")
    record = get_family(family_id)
    if record.size_to_params is not None:
        return record.size_to_params(requested)
    return {"n": requested}


# -- test-support state management (used by the test suite's fixtures) -------


def _snapshot():
    with _LOCK:
        return dict(_FAMILIES)


def _restore(snapshot):
    global _FAMILIES
    with _LOCK:
        _FAMILIES = dict(snapshot)
