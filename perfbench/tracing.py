"""Spans recorded by the benchmark around each call into a library layer.

A span is (id, parent, op id, pass, layer, name, start ns, end ns, work,
error); the indices below name its fields.
Spans are kept in memory and written out when the run ends; a layer's self
time is its span duration minus the part covered by its child spans.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from time import perf_counter_ns

LAYERS = (
    "scalars",
    "families",
    "catalog",
    "core",
    "linalg",
    "mmio",
    "properties",
    "registry",
    "harness",
    "cli",
)

ID, PARENT, OP, PASS, LAYER, NAME, START, END, WORK, ERROR = range(10)
FIELDS = ("id", "parent", "op", "pass", "layer", "name", "start_ns", "end_ns", "work", "error")

_NULL = nullcontext()


def untraced(layer, name, work=0):
    """Span factory used when tracing is off: records nothing."""
    return _NULL


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        tracer = self.tracer
        self.record[PARENT] = tracer.stack[-1] if tracer.stack else -1
        tracer.stack.append(self.record[ID])
        self.record[START] = perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.record[END] = perf_counter_ns()
        self.record[ERROR] = exc_type.__name__ if exc_type else ""
        self.tracer.stack.pop()
        return False


class Tracer:
    """In-memory span recorder for one workload process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.pass_id = -1

    def span(self, layer, name, work=0):
        record = [len(self.spans), -1, self.op_id, self.pass_id, layer, name, 0, 0, work, ""]
        self.spans.append(record)
        return _Span(self, record)

    def self_times(self) -> list[int]:
        """Self time (ns) of every span, by span id."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps(dict(zip(FIELDS, s))) + "\n")
