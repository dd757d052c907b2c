#!/usr/bin/env python3
"""The tmat benchmark: one command, three workloads, every output checked.

Run from the root of a checkout (it measures the library in ./src):

    python3 perfbench/run.py --workload stream --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare PARENT_RESULTS CHANGE_RESULTS

Each run starts the workload in fresh interpreters, one client, one thread:
a few set-up-only processes and one measuring process (worker.py). It prints
every metric by name with its unit, the failing ops, and the environment,
then, as its last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With --trace 0 the metrics are the end-to-end
metrics of BENCHMARK.json; with --trace 1 they are the per-layer metrics.
The full result, with provenance, is saved under perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 10  # set-up-only processes per run, besides the measuring one
SPAWN_REPEATS = 5  # `tm list` subprocesses timed in a traced run
WORKER_TIMEOUT_S = 170

SPEC = os.path.join(ROOT, "BENCHMARK.json")


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def worker(args, out_path, *extra):
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", args.scale,
        "--out", out_path,
        *extra,
    ]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        die(f"worker exited with code {proc.returncode}: {' '.join(extra)}")
    with open(out_path, encoding="utf-8") as source:
        raw = json.load(source)
    os.remove(out_path)
    return raw


def spawn_ms() -> float:
    """Median wall time of `python -m tmat.cli list` subprocesses."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SPAWN_REPEATS + 1):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "tmat.cli", "list"], env=env, capture_output=True, text=True,
            timeout=60, check=False,
        )
        times.append((perf_counter() - start) * 1e3)
        if proc.returncode != 0 or len(proc.stdout.split()) != 19:
            die("`tm list` subprocess failed")
    return statistics.median(times[1:])


def provenance(args, raw) -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "tmat")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as source:
                digest.update(name.encode() + b"\0" + source.read())
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as source:
            ref = source.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as source:
                    commit = source.read().strip()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "ops_per_pass": raw["ops"],
        "passes": raw["passes"],
    }


def end_to_end(raw, setups) -> dict:
    lat = raw["latencies_ms"]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": raw["list_time_s"],
        "op_p50_ms": statistics.median(lat),
        "op_p90_ms": statistics.quantiles(lat, n=10)[-1],
        "success_ratio": 1 - raw["failed"] / raw["attempted"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def measure(args) -> None:
    if not os.path.isfile(os.path.join(SRC, "tmat", "__init__.py")):
        die("no library at src/tmat; run from the root of a tmat checkout")
    with open(SPEC, encoding="utf-8") as source:
        listed = json.load(source)["per_layer" if args.trace else "end_to_end"]
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw_path = os.path.join(OUT, f"raw-{tag}-{os.getpid()}.json")

    worker(args, raw_path, "--setup-only")  # untimed: compiles bytecode once
    setups = [worker(args, raw_path, "--setup-only")["setup_s"] for _ in range(SETUP_REPEATS)]
    raw = worker(args, raw_path)
    setups.append(raw["setup_s"])

    if "trace_file" in raw:
        spans_path = os.path.join(OUT, "results", f"{tag}.spans.jsonl")
        os.replace(raw["trace_file"], spans_path)
        raw["trace_file"] = os.path.relpath(spans_path, ROOT)
    # Known defects are counted in `failed`; any other failed op is a wrong output.
    correct = not raw["unexpected"] and raw["attempted"] >= 1
    if args.trace:
        metrics = dict(raw["layers"], **{"cli.spawn.ms": spawn_ms()})
    else:
        metrics = end_to_end(raw, setups)
    result = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    saved = dict(
        result,
        refused=raw["refused"],
        failures=raw["failures"],
        unexpected_failures=raw["unexpected"],
        environment=provenance(args, raw),
        latency_samples=len(raw["latencies_ms"]),
        setup_samples_s=setups,
        unscaled_walls_s=raw["unscaled_walls_s"],
        median_speed=raw["median_speed"],
        op_medians_ms=raw["op_medians_ms"],
        trace_file=raw.get("trace_file"),
    )
    with open(os.path.join(OUT, "results", f"{tag}.json"), "w", encoding="utf-8") as sink:
        json.dump(saved, sink, indent=1)

    env = saved["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {env['python']}  nproc {env['nproc']}  numpy {env['numpy_importable']}  "
          f"commit {env['commit']}  src {env['src_sha256'][:12]}")
    print(f"ops per pass {raw['ops']}  measured passes {raw['passes']}  "
          f"latency samples {len(raw['latencies_ms'])}  attempted {raw['attempted']}  "
          f"ok {raw['ok']}  refused {raw['refused']}  failed {raw['failed']}")
    for name, note in sorted(raw["failures"].items()):
        known = "" if name in raw["unexpected"] else " (known defect)"
        print(f"  failed op{known}: {name}: {note}")
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    if args.trace:
        print(f"tracing overhead: {metrics['tracing.overhead_s']:.6f} s per pass "
              f"(traced wall_s minus untraced wall_s); spans in {raw['trace_file']}")
    print(json.dumps(result))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="tmat benchmark")
    parser.add_argument("--workload", choices=("stream", "factor", "survey"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every size, for the self-test")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"),
                        help="verdict per (metric, workload) from two directories of saved results")
    args = parser.parse_args(argv)
    if args.compare:
        import compare

        compare.main(*args.compare, SPEC)
        return
    if args.workload is None:
        die("--workload is required")
    measure(args)


if __name__ == "__main__":
    main()
