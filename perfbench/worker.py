"""Run one workload in a fresh interpreter and write its raw measurements.

Started by run.py, one process per workload:

    python3 perfbench/worker.py --workload stream --seed 1 --seconds 30 \
        --trace 0 --scale full --out perfbench/out/raw.json [--setup-only]

Set-up time runs from just before `import tmat` until the op list is built.
One warm-up pass follows, with every output checked in full; then passes of
the same op list repeat until --seconds of op time have been measured. Later
passes check each output against the reference on sampled entries or by
comparing it with the output checked in full. Checking is never timed.
With --trace 1, odd passes record spans and even passes do not, so that the
tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from collections import Counter, defaultdict
from math import gcd
from time import perf_counter, perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference as R  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
# Times the calibration loops take at nominal machine speed ("mixed" runs
# both). Measured times are scaled by nominal / (calibration time measured
# next to them). A pass calibrates before an op when CAL_EVERY_S has passed
# since the last calibration, and once after its last op.
CAL_NOMINAL_S = {"entry": 1.5e-3, "kernel": 1.2e-3, "mixed": 2.7e-3, "bigint": 0.9e-3}
CAL_EVERY_S = 0.03
_CAL_ROWS = [[1.0 / (i + j + 1) for j in range(45)] for i in range(45)]


_CAL_BIG = R.superfactorial(80)  # about 13,000 bits
_CAL_BIG_DIVISOR = R.superfactorial(40) ** 4 + 1


def calibrate(bigint: bool) -> dict:
    """Time fixed pure-Python loops; return their times by op kind.

    "entry" formats floats and builds lists, strings and a dict (the work of
    entry generation and export); "kernel" is an elimination on nested float
    lists (the work of the dense kernels); "mixed" is both, for ops that mix
    the two (search, closed forms, exact arithmetic, audit, harness, CLI);
    "bigint" multiplies, divides and takes the gcd of integers of thousands
    of digits (the work of the superfactorial closed forms), and is timed
    only when some op needs it.
    On a shared host the speed of this process drifts by tens of percent
    within a minute; each loop slows down with the ops of its kind, so the
    ratio of an op's time to its loop's time stays steady. The collector is
    off so that a heap left large by the library does not change the cost.
    """
    gc.disable()
    try:
        times = {}
        if bigint:
            start = perf_counter()
            gcd(_CAL_BIG * 3 + 1, _CAL_BIG_DIVISOR * _CAL_BIG)
            (_CAL_BIG * _CAL_BIG) // _CAL_BIG_DIVISOR
            times["bigint"] = perf_counter() - start
        start = perf_counter()
        lines = [repr(1 / i) + "\n" for i in range(1, 1500)]
        table = {k: [k * 0.5] for k in range(750)}
        len("".join(lines)) + len(table)
        middle = perf_counter()
        a = [row[:] for row in _CAL_ROWS]
        for c in range(15):
            pivot_row = a[c]
            for row in a[c + 1:]:
                f = row[c] / pivot_row[c]
                for k in range(c + 1, 45):
                    row[k] = row[k] - f * pivot_row[k]
        end = perf_counter()
        times.update(entry=middle - start, kernel=end - middle, mixed=end - start)
        return times
    finally:
        gc.enable()


def run_pass(ops, span, tracer, full, stats):
    """Run every op once, calibrating between ops.

    Returns (op time in ns, latencies in ms, speeds): an op's speed is the
    median of the five calibration times of its kind around it over the
    nominal time, and its latency is its time divided by that speed.
    """
    wall = 0
    cals, cal_before, elapsed_ns = [], [], []
    last_cal = float("-inf")
    bigint = any(op.kind == "bigint" for op in ops)
    for k, op in enumerate(ops):
        if perf_counter() - last_cal >= CAL_EVERY_S:
            cals.append(calibrate(bigint))
            last_cal = perf_counter()
        cal_before.append(len(cals) - 1)
        result = exc = None
        if tracer is not None:
            tracer.op_id = k
            root = tracer.span("bench", "op")
        start = perf_counter_ns()
        try:
            if tracer is not None:
                with root:
                    result = op.run(span)
            else:
                result = op.run(span)
        except Exception as err:  # classified below, outside the timed region
            exc = err
        elapsed = perf_counter_ns() - start
        wall += elapsed
        elapsed_ns.append(elapsed)
        outcome, note = op.outcome(result, exc, full)
        del result, exc
        if full and outcome == R.FAILED:
            op.sticky = note  # a later sampled check cannot clear a full-check failure
        elif op.sticky:
            outcome, note = R.FAILED, op.sticky
        stats["outcomes"][outcome] += 1
        if outcome == R.FAILED:
            stats["failures"].setdefault(op.name, note)
            stats["failed_by_layer"][op.layer] += 1
        for key, value in op.counters.items():
            stats["counters"][key] += value
    cals.append(calibrate(bigint))
    speeds = [
        statistics.median(c[op.kind] for c in cals[max(0, i - 2): i + 3]) / CAL_NOMINAL_S[op.kind]
        for i, op in zip(cal_before, ops)
    ]
    return wall, [e / 1e6 / v for e, v in zip(elapsed_ns, speeds)], speeds


def list_time_s(latencies_by_pass) -> float:
    """Time to complete the op list: the sum over ops of each op's median latency."""
    return sum(statistics.median(column) for column in zip(*latencies_by_pass)) / 1e3


def layer_metrics(tracer, speeds, traced, untraced, failed_by_layer, counters, passes):
    """Per-layer metrics from the spans of the traced passes.

    Span times are divided by their op's speed, like the end-to-end times.
    """
    T = tracing
    spans = defaultdict(list)
    self_ns = tracer.self_times()
    busy = Counter()
    calls = Counter()
    for s in tracer.spans:
        speed = speeds[s[T.PASS]][s[T.OP]]
        spans[f"{s[T.LAYER]}.{s[T.NAME]}"].append(((s[T.END] - s[T.START]) / speed, s[T.WORK]))
        busy[s[T.LAYER]] += self_ns[s[T.ID]] / speed
        calls[s[T.LAYER]] += 1

    def per_work(key, scale=1.0):
        dur = sum(d for d, _ in spans[key])
        work = sum(w for _, w in spans[key])
        return dur / work / scale if work else 0.0

    def median(key, scale):
        durs = [d / scale for d, _ in spans[key]]
        return statistics.median(durs) if durs else 0.0

    closed = [d / 1e6 for d, _ in spans["catalog.closed_form"]]
    n_traced = len(traced)
    traced_s = sum(map(sum, traced)) / 1e3
    m = {
        "core.materialize.ns_per_entry": per_work("core.materialize"),
        "core.element.ns": per_work("core.element"),
        "linalg.entry_sum.ns_per_entry": per_work("linalg.entry_sum"),
        "linalg.frobenius_norm.ns_per_entry": per_work("linalg.frobenius_norm"),
        "linalg.scan.ns_per_entry": per_work("linalg.scan"),
        "scalars.rational_op.ns": per_work("scalars.rational_op"),
        "mmio.export_array.ns_per_entry": per_work("mmio.export_array"),
        "mmio.export_coordinate.ns_per_entry": per_work("mmio.export_coordinate"),
        "mmio.import_array.ns_per_value": per_work("mmio.import_array"),
        "mmio.bytes_written": counters["bytes"] / passes,
        "mmio.nnz_ratio": counters["nnz"] / counters["cells"] if counters["cells"] else 0.0,
        "linalg.lu_f64.ns_per_flop": per_work("linalg.lu_f64"),
        "linalg.lu_exact.ms": median("linalg.lu_exact", 1e6),
        "linalg.jacobi.ms": median("linalg.jacobi", 1e6),
        "catalog.closed_form.us": median("catalog.closed_form", 1e3),
        "catalog.closed_form.p90_ms": statistics.quantiles(closed, n=10)[-1] if len(closed) > 1 else 0.0,
        "linalg.predicate.us": median("linalg.predicate", 1e3),
        "families.construct.us": median("families.construct", 1e3),
        "registry.list_matrices.us": median("registry.list_matrices", 1e3),
        "registry.group_roundtrip.ms": median("registry.group_roundtrip", 1e6),
        "properties.audit.ms_per_report": per_work("properties.audit", 1e6),
        "harness.test_algorithm.us_per_record": per_work("harness.test_algorithm", 1e3),
        "cli.main.ms": median("cli.main", 1e6),
        "tracing.overhead_s": list_time_s(traced) - list_time_s(untraced),
        "tracing.spans_per_pass": len(tracer.spans) / n_traced,
    }
    for layer in tracing.LAYERS:
        m[f"{layer}.calls"] = calls[layer] / n_traced
        m[f"{layer}.busy_s"] = busy[layer] / 1e9 / n_traced
        m[f"{layer}.share"] = busy[layer] / 1e9 / traced_s
        m[f"{layer}.failed"] = failed_by_layer[layer] / passes
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = os.path.join(os.path.dirname(os.path.abspath(args.out)), f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        speed = statistics.median(calibrate(False)["entry"] for _ in range(9)) / CAL_NOMINAL_S["entry"]
        start = perf_counter()
        ops = workloads.build(args.workload, args.seed, args.scale, workdir)
        setup_s = perf_counter() - start
        raw = {} if args.setup_only else measure(args, ops)
        raw.update(setup_s=setup_s / speed, unscaled_setup_s=setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as sink:
        json.dump(raw, sink)


def measure(args, ops):
    stats = {
        "outcomes": Counter(),
        "failures": {},
        "failed_by_layer": Counter(),
        "counters": Counter(),
    }
    tracer = tracing.Tracer() if args.trace else None
    gc.collect()
    run_pass(ops, tracing.untraced, None, True, stats)  # warm-up, full checks
    for value in stats.values():
        value.clear()
    traced, untraced, raw_walls, speeds = [], [], [], {}
    budget, spent, passes = args.seconds * 1e9, 0, 0
    while spent < budget or passes < MIN_PASSES * (1 + args.trace):
        is_traced = bool(args.trace) and passes % 2 == 1
        gc.collect()
        if is_traced:
            tracer.pass_id = passes
            wall, latencies, speeds[passes] = run_pass(ops, tracer.span, tracer, False, stats)
            traced.append(latencies)
        else:
            wall, latencies, speeds[passes] = run_pass(ops, tracing.untraced, None, False, stats)
            untraced.append(latencies)
        raw_walls.append(wall / 1e9)
        spent += wall
        passes += 1
    outcomes = stats["outcomes"]
    raw = {
        "ops": len(ops),
        "passes": passes,
        "list_time_s": list_time_s(untraced),
        "latencies_ms": [v for latencies in untraced for v in latencies],
        "op_medians_ms": {op.name: statistics.median(c) for op, c in zip(ops, zip(*untraced))},
        "unscaled_walls_s": raw_walls,
        "median_speed": statistics.median(v for pass_speeds in speeds.values() for v in pass_speeds),
        "attempted": sum(outcomes.values()),
        "ok": outcomes[R.OK],
        "refused": outcomes[R.REFUSED],
        "failed": outcomes[R.FAILED],
        "failures": stats["failures"],
        "unexpected": {k: v for k, v in stats["failures"].items() if not workloads.known_failure(k, v)},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        raw["traced_list_time_s"] = list_time_s(traced)
        raw["layers"] = layer_metrics(
            tracer, speeds, traced, untraced, stats["failed_by_layer"], stats["counters"], passes
        )
        trace_path = os.path.splitext(args.out)[0] + ".spans.jsonl"
        tracer.dump(trace_path)
        raw["trace_file"] = trace_path
    return raw


if __name__ == "__main__":
    main()
