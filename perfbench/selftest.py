#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted by each workload
(untraced and traced), that a planted wrong reference is classified `failed`,
that a library with a planted wrong result makes the run's `correct` false,
and that the benchmark exits non-zero without printing a result when the
library is missing. Takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference as R  # noqa: E402
import workloads  # noqa: E402
from fractions import Fraction  # noqa: E402
from tracing import untraced  # noqa: E402


def check(cond, message):
    if not cond:
        print(f"FAIL {message}")
        sys.exit(1)
    print(f"ok   {message}")


def last_json(cmd, cwd):
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        return proc.returncode, None
    return 0, json.loads(proc.stdout.strip().splitlines()[-1])


def emitted_metrics(spec):
    for workload in workloads.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
                   "--seconds", "0.3", "--trace", str(trace), "--scale", "tiny"]
            code, result = last_json(cmd, ROOT)
            check(code == 0 and set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload} trace {trace}: result line")
            check(result["correct"] and result["attempted"] >= 1, f"{workload} trace {trace}: correct, no unexpected failure")
            metrics = result["metrics"]
            missing = [m["name"] for m in spec[group] if m["name"] not in metrics]
            check(not missing, f"{workload} trace {trace}: every {group} metric emitted" + (f" {missing}" if missing else ""))


def planted_references():
    ops = workloads.build("factor", 7, "tiny", os.path.join(HERE, "out"))
    planted = 0
    for op in ops:
        ref = op.expected()
        if not isinstance(ref.value, (int, Fraction)) or not ref.fits:
            continue
        try:
            result = op.run(untraced)
        except Exception:
            continue
        if op.outcome(result, None, True)[0] != R.OK:
            continue
        wrong = workloads.Expect(ref.value + 1, ref.fits)
        check(op.outcome(result, None, True, expected=wrong)[0] == R.FAILED,
              f"planted wrong reference classified failed: {op.name}")
        planted += 1
    check(planted >= 3, f"{planted} planted references tried")

    stream = workloads.build("stream", 7, "tiny", os.path.join(HERE, "out"))
    op = next(o for o in stream if o.name.startswith("materialize minij rational64"))
    result = op.run(untraced)
    check(op.outcome(result, None, True)[0] == R.OK, "materialize checks ok against the true entries")
    true_entry = R.entry_fn
    R.entry_fn = lambda family, params: (lambda i, j: true_entry(family, params)(i, j) + (i == j == 2))
    try:
        check(op.outcome(result, None, True)[0] == R.FAILED, "materialize with one planted wrong entry is failed")
    finally:
        R.entry_fn = true_entry


def copy_of_benchmark(name):
    """A directory holding BENCHMARK.json and perfbench/, and nothing else."""
    copy = os.path.join(HERE, "out", name)
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(copy, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), copy)
    return copy


def with_wrong_library():
    """A copy of the library whose entry_sum doubles its answer."""
    mutant = copy_of_benchmark("mutant")
    shutil.copytree(os.path.join(ROOT, "src", "tmat"), os.path.join(mutant, "src", "tmat"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(os.path.join(mutant, "src", "tmat", "linalg.py"), "a", encoding="utf-8") as sink:
        sink.write("\n\n_true_entry_sum = entry_sum\n\n\ndef entry_sum(h):\n    return _true_entry_sum(h) * 2\n")
    cmd = [sys.executable, "perfbench/run.py", "--workload", "stream", "--seed", "7",
           "--seconds", "0.3", "--trace", "0", "--scale", "tiny"]
    code, result = last_json(cmd, mutant)
    shutil.rmtree(mutant, ignore_errors=True)
    check(code == 0 and result["correct"] is False and result["failed"] > 0,
          "planted wrong library result: correct is false")


def without_library():
    bare = copy_of_benchmark("bare")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "stream", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=170, check=False)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(), "no library: non-zero exit, no result printed")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as source:
        spec = json.load(source)
    planted_references()
    with_wrong_library()
    without_library()
    emitted_metrics(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
