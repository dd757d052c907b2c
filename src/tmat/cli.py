"""tm: command-line interface over the matrix collection.

Exit codes: 0 success, 1 domain error, 2 usage error. Record-style output is
one record per line with tab-separated fields. Group files resolve relative
paths against TM_GROUP_DIR (default: current directory).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import harness, mmio, properties, registry
from .core import materialize
from .errors import TmatError
from .families import construct, feasible_size, is_registered
from .linalg import (
    _float_twin,
    dense_is_symmetric,
    dense_sum,
    det_dense,
    determinant,
    entry_sum,
    is_symmetric,
)
from .scalars import FLOAT64, RATIONAL64, Rational64

_TYPE_TO_KIND = {"f64": FLOAT64, "rat": RATIONAL64}


def _parse_scalar(text: str):
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _parse_params(pairs) -> dict:
    params = {}
    for pair in pairs or ():
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise TmatError(f"malformed --param '{pair}'; expected name=value")
        if "," in value:
            params[name] = [_parse_scalar(v) for v in value.split(",")]
        else:
            params[name] = _parse_scalar(value)
    return params


def _ensure_family(name: str) -> str:
    # the bundled sumij tutorial extension is installed on demand
    if name == "sumij" and not is_registered("sumij"):
        from .sumij import install_sumij

        install_sumij()
    return name


def _render_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Rational64):
        return str(v)
    if isinstance(v, float):
        return mmio.format_value(v)
    if isinstance(v, complex):
        return repr(v)
    return str(v)


def _build_handle(args):
    _ensure_family(args.family)
    params = _parse_params(getattr(args, "param", None))
    size_params = feasible_size(args.family, args.size)
    if size_params is None:
        raise TmatError(
            f"size {args.size} is infeasible for family '{args.family}'"
        )
    merged = dict(size_params)
    merged.update(params)
    kind = _TYPE_TO_KIND[args.type] if getattr(args, "type", None) else None
    return construct(args.family, merged, scalar_kind=kind)


def _group_dir() -> str:
    return os.environ.get("TM_GROUP_DIR") or "."


def _group_path(path: str) -> str:
    if os.path.isabs(path):
        return path
    return os.path.join(_group_dir(), path)


# -- commands -------------------------------------------------------------------


def _cmd_list(args) -> int:
    names = registry.list_matrices(args.group, args.prop)
    for name in names:
        print(name)
    return 0


def _cmd_show(args) -> int:
    handle = _build_handle(args)
    dense = materialize(handle)
    for i in range(1, dense.rows + 1):
        print("\t".join(_render_value(dense.get(i, j)) for j in range(1, dense.cols + 1)))
    return 0


def _cmd_export(args) -> int:
    handle = _build_handle(args)
    if args.format == "mm-array":
        mmio.export_array(handle, args.output)
    else:
        mmio.export_coordinate(handle, args.output, zero_tol=args.zero_tol)
    return 0


def _cmd_audit(args) -> int:
    params = _parse_params(args.param)
    if args.family:
        family_ids = [_ensure_family(f) for f in args.family]
    elif args.group:
        family_ids = registry.list_matrices(args.group)
    else:
        family_ids = registry.list_matrices(["builtin"])
    sizes = args.size or [1, 2, 3, 4, 5, 8]
    failed = False
    for family_id in family_ids:
        reports = properties.audit(family_id, sizes, params or None)
        text = properties.render_audit(reports)
        if text:
            print(text)
        failed = failed or properties.has_failures(reports)
    return 1 if failed else 0


def _cmd_bench(args) -> int:
    if args.type is None:
        args.type = "f64"  # benches time float64 evaluation unless asked otherwise
    handle = _build_handle(args)
    reps = max(args.reps, 5)
    if args.dense:
        dense = materialize(_float_twin(handle))
        ops = {
            "det": lambda: det_dense(dense),
            "sum": lambda: dense_sum(dense),
            "issymmetric": lambda: dense_is_symmetric(dense),
        }
        variant = "dense"
    else:
        ops = {
            "det": lambda: determinant(handle),
            "sum": lambda: entry_sum(handle),
            "issymmetric": lambda: is_symmetric(handle),
        }
        variant = "lazy"
    median, value = harness.median_ns(ops[args.op], reps)
    if isinstance(value, Rational64):
        value = float(value)  # benches report decimal payloads
    print(f"{args.op}\t{variant}\t{median}\t{_render_value(value)}")
    return 0


def _cmd_run(args) -> int:
    fn = harness.FN_MENU[args.fn]
    records = harness.test_algorithm(
        fn,
        args.size,
        props=args.prop,
        groups=args.group,
        exclude=args.exclude or (),
        errors_as_warnings=args.errors_as_warnings,
        ignore_errors=args.ignore_errors,
    )
    for record in records:
        payload = record.message if record.status == harness.WARNING else _render_value(record.value)
        print(f"{record.family}\t{record.size}\t{record.status}\t{payload}")
    return 0


def _cmd_group(args) -> int:
    if args.group_command == "list":
        for name in registry.list_groups():
            print(name)
        return 0
    if args.group_command == "save":
        registry.save_group(args.name, _group_path(args.path))
        return 0
    registry.load_group(args.name, _group_path(args.path))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tm",
        description="Lazily generated test matrices: list, show, export, audit, bench, run, group.",
        epilog=(
            "Record output is tab-separated, one record per line. "
            "TM_GROUP_DIR sets the base directory for relative group-file paths."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list families, optionally filtered by group/property")
    p.add_argument("--group", action="append", help="restrict to a group (repeatable)")
    p.add_argument("--prop", action="append", help="require a property (repeatable)")
    p.set_defaults(handler=_cmd_list)

    p = sub.add_parser("show", help="print a matrix as a tab-separated grid")
    p.add_argument("family")
    p.add_argument("size", type=int)
    p.add_argument("--type", choices=sorted(_TYPE_TO_KIND))
    p.add_argument("--param", action="append", metavar="NAME=VALUE")
    p.set_defaults(handler=_cmd_show)

    p = sub.add_parser("export", help="write a matrix in Matrix Market format")
    p.add_argument("family")
    p.add_argument("size", type=int)
    p.add_argument("--format", required=True, choices=["mm-array", "mm-coordinate"])
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--type", choices=sorted(_TYPE_TO_KIND))
    p.add_argument("--param", action="append", metavar="NAME=VALUE")
    p.add_argument("--zero-tol", type=float, default=0.0)
    p.set_defaults(handler=_cmd_export)

    p = sub.add_parser(
        "audit",
        help="machine-check declared property tags (default: builtin group at sizes 1 2 3 4 5 8)",
    )
    p.add_argument("--group", action="append")
    p.add_argument("--family", action="append")
    p.add_argument("--size", action="append", type=int)
    p.add_argument("--param", action="append", metavar="NAME=VALUE")
    p.set_defaults(handler=_cmd_audit)

    p = sub.add_parser("bench", help="time an operation, lazy handle vs dense storage")
    p.add_argument("family")
    p.add_argument("size", type=int)
    p.add_argument("--op", required=True, choices=["det", "sum", "issymmetric"])
    p.add_argument("--dense", action="store_true", help="run on materialized dense storage")
    p.add_argument("--reps", type=int, default=5, help="repetitions (>= 5; median reported)")
    p.add_argument("--type", choices=sorted(_TYPE_TO_KIND))
    p.add_argument("--param", action="append", metavar="NAME=VALUE")
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("run", help="run a builtin algorithm over matching families")
    p.add_argument("--fn", required=True, choices=sorted(harness.FN_MENU))
    p.add_argument("--size", action="append", type=int, required=True)
    p.add_argument("--prop", action="append")
    p.add_argument("--group", action="append")
    p.add_argument("--exclude", action="append")
    p.add_argument("--errors-as-warnings", action="store_true")
    p.add_argument("--ignore-errors", action="store_true")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("group", help="list, save, or load groups")
    gsub = p.add_subparsers(dest="group_command", required=True)
    gsub.add_parser("list")
    g = gsub.add_parser("save")
    g.add_argument("name")
    g.add_argument("path")
    g = gsub.add_parser("load")
    g.add_argument("name")
    g.add_argument("path")
    p.set_defaults(handler=_cmd_group)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    size = getattr(args, "size", None)
    sizes = size if isinstance(size, list) else [size] if size is not None else []
    if any(isinstance(s, int) and s < 0 for s in sizes):
        parser.error("sizes must be non-negative")
    try:
        return args.handler(args)
    except (TmatError, OSError) as exc:  # OSError: an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
