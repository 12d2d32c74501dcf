"""In-memory span tracer and the arithmetic the benchmark reports.

A span is recorded around a call into the package by replacing the
function at the module attribute its caller looks it up through (for
example `scan.transmit`, which `scan_point` calls).  Each span keeps its
name, start, end, parent span, thread and the counts taken from the call's
arguments and return value.  Spans stay in memory until the run ends.

Threads of the sweep pool start with an empty span stack; their spans take
the tracer's current root (the benchmark's pass span) as parent, so a
parent can have children running on several threads at once.  Self time is
therefore the span's duration minus the *union* of its children's
intervals, clipped to the span.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float = math.nan
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; `wrap` installs a recording wrapper on a module
    attribute and `restore` puts every original back."""

    def __init__(self):
        self.spans: list[Span] = []
        self.root: int | None = None
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        parent = stack[-1].id if stack else self.root
        span = Span(sid, parent, name, threading.get_ident(), time.perf_counter())
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Trace calls made through `module.attr` under `name`.  `count`
        maps (args, kwargs, result) to a dict of counts for the span."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(span)
            if count is not None:
                span.counts.update(count(args, kwargs, result))
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.id, s.parent, s.name, s.thread,
                                     s.start, s.end, s.counts]) + "\n")


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered_length(children.get(s.id, ()),
                                              s.start, s.end)
            for s in spans}


def descendants(spans, root: int) -> list:
    """Every span below `root` (not `root` itself)."""
    children: dict = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out, todo = [], [root]
    while todo:
        for s in children.get(todo.pop(), ()):
            out.append(s)
            todo.append(s.id)
    return out


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) by linear interpolation between order
    statistics, as numpy's default method."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(values, q: float) -> int:
    """How many samples lie strictly above the q-th percentile."""
    p = percentile(values, q)
    return sum(v > p for v in values)


def pool_busy_frac(point_seconds, workers: int, wall: float) -> float:
    """Share of the pool's capacity spent inside sweep points:
    sum of point times / (workers x wall time of the pass)."""
    if workers < 1 or wall <= 0:
        raise ValueError("need workers >= 1 and wall > 0")
    return sum(point_seconds) / (workers * wall)
