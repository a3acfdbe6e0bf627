"""Spans recorded from outside the package, plus the arithmetic over them.

The tracer replaces a module attribute (or a class method) with a wrapper
that records one span per call, so the library itself is untouched. A
function is wrapped under the name its caller looks it up by: `cli.py`
calls `train` through `sheafcast.cli.train`, so that is the attribute
replaced. Garbage-collector pauses arrive through `gc.callbacks` and are
recorded as spans of the layer `runtime`.

A span's self time is its duration minus the part of it that its child
spans cover; summing self time over every span of a pass therefore never
counts a second twice.
"""

from __future__ import annotations

import gc
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field

GC_SPAN = "runtime.gc"

# Percentiles the tail figure is chosen from, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int = -1                  # index into the span list, -1 for a root


@dataclass
class Hook:
    """Extra counts taken from a wrapped call's arguments and result."""

    on_result: object = None          # f(counts, args, kwargs, result)
    on_error: object = None           # f(counts, args, kwargs, exc)


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(float))
    gc_gen2: int = 0
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    # -- recording ------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        # an exception may unwind several wrappers; pop down to this span
        while self._stack and self._stack.pop() != idx:
            pass

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._open(GC_SPAN)
        elif self._stack and self.spans[self._stack[-1]].name == GC_SPAN:
            self._close(self._stack[-1])
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)
        self.gc_gen2 = 0
        self._stack = []

    # -- installing wrappers ---------------------------------------------
    def wrap(self, owner, attr: str, span_name: str, hook: Hook = None) -> None:
        """Replace `owner.attr` with a span-recording wrapper."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(span_name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx)
                if hook is not None and hook.on_error is not None:
                    hook.on_error(tracer.counts, args, kwargs, exc)
                raise
            tracer._close(idx)
            if hook is not None and hook.on_result is not None:
                hook.on_result(tracer.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def watch_gc(self) -> None:
        gc.callbacks.append(self._gc_callback)

    def uninstall(self) -> None:
        """Restore every wrapped attribute and drop the GC callback."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)


# ----------------------------------------------------------------------
# arithmetic over recorded spans
# ----------------------------------------------------------------------
def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Self time of each span: duration minus the union of its children,
    each child clipped to the parent's interval."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for idx, span in enumerate(spans):
        covered = union_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(idx, ()) if c.end > span.start and c.start < span.end)
        out.append(span.end - span.start - covered)
    return out


def aggregate(spans) -> dict:
    """Per span name: {'self': s, 'total': s, 'calls': n}.

    'total' sums inclusive durations, so it double-counts a name that nests
    inside itself; no wrapped function here recurses.
    """
    out = defaultdict(lambda: {"self": 0.0, "total": 0.0, "calls": 0})
    for span, own in zip(spans, self_times(spans)):
        entry = out[span.name]
        entry["self"] += own
        entry["total"] += span.end - span.start
        entry["calls"] += 1
    return dict(out)


def root_coverage(spans, start: float, end: float) -> float:
    """Seconds of [start, end] covered by at least one root span."""
    return union_length((max(s.start, start), min(s.end, end))
                        for s in spans
                        if s.parent < 0 and s.end > start and s.start < end)


def tail_percentile(n_samples: int):
    """Highest ladder percentile with at least ten samples beyond it, or
    None when even the median has fewer than ten above it."""
    best = None
    for p in PERCENTILE_LADDER:
        if n_samples * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


def nearest_rank(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]
