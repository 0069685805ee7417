"""Spans recorded by the harness around calls into the program's layers.

A span is ``(id, name, start, end, parent)`` with ``name`` of the form
``"<layer>:<call>"``; the layer is the module the call enters.  Spans
are kept in memory and written to ``out/trace-<workload>.jsonl`` when
the run ends.  A layer's *self time* is its spans' duration minus the
part of that interval their child spans cover, so concurrent children
(requests in flight together) are not counted twice.

With ``enabled=False`` every call is a no-op, which is the untraced
pass end-to-end metrics come from.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

Span = Tuple[int, str, float, float, Optional[int]]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation); NaN when empty."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class Tracer:
    """Collects the spans of one workload run."""

    def __init__(self, enabled: bool, workload: str = "") -> None:
        self.enabled = enabled
        self.workload = workload
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the enclosed call; nested spans become its children."""
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((span_id, name, time.perf_counter(), 0.0, parent))
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            _, _, start, _, _ = self.spans[span_id]
            self.spans[span_id] = (span_id, name, start, time.perf_counter(), parent)

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span timed elsewhere (an epoch, a request) under the open span."""
        if self.enabled:
            parent = self._stack[-1] if self._stack else None
            self.spans.append((len(self.spans), name, start, end, parent))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            for span_id, name, start, end, parent in self.spans:
                record = {
                    "workload": self.workload,
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                }
                stream.write(json.dumps(record) + "\n")


def layer_self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self seconds per layer (the part of a span name before ``:``)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, _, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals: Dict[str, float] = {}
    for span_id, name, start, end, _ in spans:
        inside = [(max(s, start), min(e, end)) for s, e in children.get(span_id, ()) if e > start and s < end]
        layer = name.split(":", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + (end - start) - covered(inside)
    return totals


def attribution_error(spans: Sequence[Span], root_name: str) -> float:
    """``|sum of layer self-times - wall| / wall`` under the ``root_name`` span.

    The root span is the measured run; its own self time is what the
    harness could not hand to any layer.  Children that overlap in time
    (concurrent requests) are summed as the work they are, so the error
    can exceed the unattributed share in either direction.
    """
    roots = [span for span in spans if span[1] == root_name]
    if not roots:
        return float("nan")
    root_id, _, start, end, _ = roots[0]
    wall = end - start
    if wall <= 0:
        return float("nan")
    descendants = {root_id}
    inside = []
    for span in spans:  # spans are appended parents-first
        if span[4] in descendants:
            descendants.add(span[0])
            inside.append(span)
    layers = layer_self_times(inside)
    return abs(sum(layers.values()) - wall) / wall
