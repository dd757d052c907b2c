"""Compare saved results of a parent and a change, one verdict per (metric, workload).

    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR

Each directory holds result files written by untraced runs
(perfbench/out/results/<workload>-seed<n>-trace0.json). Runs of the two sides
are paired by workload and seed; run the pairs alternately, parent first in
half of them. Verdicts:

- improved: at least 10 pairs, the change wins at least 9/10 of them (ties
  count for neither), and the medians differ by more than the parent's
  interquartile range;
- unresolved: the run-to-run spread (IQR / median) of either side exceeds the
  metric's bound, and not every change run beats every parent run;
- worse: the change's median is worse than the parent's by more than the bound;
- no worse: within the bound.
"""

from __future__ import annotations

import glob
import json
import os
import statistics


def _load(directory):
    runs = {}
    for path in glob.glob(os.path.join(directory, "*-trace0.json")):
        with open(path, encoding="utf-8") as source:
            result = json.load(source)
        env = result["environment"]
        runs[(env["workload"], env["seed"])] = result
    return runs


def _iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent, change, bound, lower_is_better):
    """Verdict for paired samples of one metric on one workload."""
    sign = 1 if lower_is_better else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    mp, mc = statistics.median(parent), statistics.median(change)
    gap = sign * (mp - mc)  # > 0 when the change is better
    if len(parent) >= 10 and wins >= 0.9 * len(parent) and gap > _iqr(parent):
        return "improved"
    spread = max(_iqr(parent) / abs(mp) if mp else 0.0, _iqr(change) / abs(mc) if mc else 0.0)
    if spread > bound:
        if max(sign * c for c in change) < min(sign * p for p in parent):
            return "no worse"
        return "unresolved"
    if -gap > bound * abs(mp):
        return "worse"
    return "no worse"


def main(parent_dir, change_dir, benchmark_json):
    with open(benchmark_json, encoding="utf-8") as source:
        spec = json.load(source)
    parent, change = _load(parent_dir), _load(change_dir)
    keys = sorted(set(parent) & set(change))
    if not keys:
        raise SystemExit("no (workload, seed) pairs in common")
    print(f"{'workload':8s} {'metric':16s} {'pairs':>5s} {'parent median':>14s} "
          f"{'change median':>14s} {'ratio':>7s}  verdict")
    for workload in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [parent[(workload, s)]["metrics"][name]["value"] for s in seeds]
            c = [change[(workload, s)]["metrics"][name]["value"] for s in seeds]
            v = verdict(p, c, metric["bound"], metric["better"] == "lower")
            mp, mc = statistics.median(p), statistics.median(c)
            ratio = mc / mp if mp else float("nan")
            print(f"{workload:8s} {name:16s} {len(seeds):5d} {mp:14.6g} {mc:14.6g} {ratio:7.3f}  {v}")
