"""Spans recorded by the benchmark's own code, around every layer call.

A span is ``(id, parent id, request id, name, layer, start, end)`` on
the ``time.perf_counter`` clock.  Spans stay in memory and are written
as JSON lines when the run ends.  A layer's *self time* is its spans'
duration minus the part of each interval that child spans cover, so the
self times of a root's subtree sum to the root's duration.

The engine's own :class:`repro.obs.tracer.Span` trees (join phases,
per-query service traces) carry durations but no start times; they are
*adopted* under the benchmark span that caused them, laid out back to
back from the parent's start and clipped to it — exact for self time,
which only needs durations — and flagged ``"adopted": true`` in the
trace file.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator, Optional

__all__ = ["Span", "SpanRecorder", "NullRecorder", "self_times", "layer_self_times"]

#: benchmark glue (loop overhead between layer calls) is charged here
LEDGER_LAYER = "ledger"


class Span:
    __slots__ = ("id", "parent", "request", "name", "layer", "start", "end", "adopted")

    def __init__(
        self,
        span_id: int,
        parent: Optional[int],
        request: Optional[int],
        name: str,
        layer: str,
        start: float,
        end: float = 0.0,
        adopted: bool = False,
    ) -> None:
        self.id = span_id
        self.parent = parent
        self.request = request
        self.name = name
        self.layer = layer
        self.start = start
        self.end = end
        self.adopted = adopted

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict[str, Any]:
        return {slot: getattr(self, slot) for slot in self.__slots__}


#: first component of an engine span name -> layer; phase spans of the
#: join operators (``vpj.partition``, ``prepare``, ...) default to join
_ENGINE_LAYERS = {
    "service": "service",
    "docstore": "storage",
    "parallel": "parallel",
    "shard": "shard",
    "query": "db",
}


def engine_layer(name: str) -> str:
    """The ``src/repro`` module an engine span's time belongs to."""
    if name.endswith(".sort"):
        return "sort"
    if "build" in name:
        return "index"
    return _ENGINE_LAYERS.get(name.split(".", 1)[0], "join")


class SpanRecorder:
    """Thread-safe in-memory span store; one open-span stack per thread."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._open = threading.local()

    def _new(self, parent, request, name, layer, start, end=0.0, adopted=False) -> Span:
        with self._lock:
            span = Span(len(self.spans), parent, request, name, layer, start, end, adopted)
            self.spans.append(span)
        return span

    @contextmanager
    def span(
        self, name: str, layer: str = LEDGER_LAYER, request: Optional[int] = None
    ) -> Iterator[Span]:
        stack = self._open.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        span = self._new(
            None if parent is None else parent.id, request, name, layer, perf_counter()
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            stack.pop()

    def child(self, parent: Span, name: str, layer: str, start: float, end: float) -> Span:
        """Record an already-measured interval under ``parent``, clipped to it."""
        start = min(max(start, parent.start), parent.end)
        end = min(max(end, start), parent.end)
        return self._new(parent.id, parent.request, name, layer, start, end, adopted=True)

    def adopt(
        self, parent: Span, engine_span: Any, start: Optional[float] = None,
        scale: float = 1.0,
    ) -> None:
        """Graft an engine span tree under ``parent`` (see module docstring).

        ``scale`` shrinks every duration: spans shipped back from ``n``
        concurrent workers are laid out at ``1/n`` of their length, the
        critical-path lower bound of the fan-out.  A container the
        engine opened only after its children ran (``shard.fanout``) is
        stretched over them.
        """
        begin = parent.start if start is None else start
        inner = sum(child.wall_seconds for child in engine_span.children)
        grafted = self.child(
            parent, engine_span.name, engine_layer(engine_span.name),
            begin, begin + max(engine_span.wall_seconds, inner) * scale,
        )
        cursor = begin
        for engine_child in engine_span.children:
            self.adopt(grafted, engine_child, cursor, scale)
            cursor += engine_child.wall_seconds * scale

    def write_jsonl(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span.as_dict(), sort_keys=True) + "\n")
        return path


class NullRecorder(SpanRecorder):
    """Untraced runs: ``span()`` is one shared no-op context yielding None."""

    enabled = False
    _NO_SPAN = nullcontext()

    def span(self, name, layer=LEDGER_LAYER, request=None):  # type: ignore[override]
        return self._NO_SPAN

    def child(self, parent, name, layer, start, end):  # type: ignore[override]
        return None

    def adopt(self, parent, engine_span, start=None, scale=1.0) -> None:
        return None


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: duration minus what its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - _covered(span.start, span.end, children.get(span.id, []))
        for span in spans
    }


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer, largest first."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.layer] = totals.get(span.layer, 0.0) + own[span.id]
    return dict(sorted(totals.items(), key=lambda item: -item[1]))
