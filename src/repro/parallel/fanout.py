"""Deterministic fan-out: ordered task registry + merge into one run.

A parallel join operator submits partition tasks *in the order the
serial algorithm would have executed them* and drains results in that
same submission order.  Workers may finish in any order — the merge
never observes completion order, so the parent's
:class:`~repro.join.base.JoinSink` contents, ``false_hits`` tally and
attached span forest are identical run to run (and, for the sorted
pair set, identical to serial).

Worker spans come back as JSON lines and are attached as children of a
single ``parallel.fanout`` span.  The fanout span is opened on the
parent tracer *after* the operator's own storage work, so its I/O delta
is zero and the root ``join.<name>`` span's I/O delta remains exactly
the serial accounting; the worker spans under it carry wall time only
(their kernels, by construction, perform no I/O).

:func:`run_cold_joins` is the same discipline one level up: whole cold
joins (:class:`~repro.parallel.tasks.SlotJoinTask`) fanned over a pool
and merged in submission order — the one pooled path shared by the
line-up harness (one task per algorithm) and the shard executor (one
task per slot).
"""

from __future__ import annotations

from concurrent.futures import Future
from contextlib import nullcontext
from typing import Any, Callable, Optional, Sequence

from ..join.base import JoinReport, JoinSink
from ..obs.export import spans_from_jsonl
from ..obs.tracer import Span, Tracer
from .pool import WorkerPool
from .tasks import (
    SlotJoinTask,
    SlotTaskResult,
    TaskResult,
    fault_from_payload,
    run_slot_join_task,
)

__all__ = ["Fanout", "open_fanout", "run_cold_joins"]

_TaskFn = Callable[[Any], TaskResult]


def open_fanout(workers: int, mode: Optional[str] = None) -> "Optional[Fanout]":
    """A :class:`Fanout` for ``workers > 1``, else ``None`` (serial)."""
    if workers <= 1:
        return None
    return Fanout(WorkerPool(workers, mode=mode))


class Fanout:
    """Ordered registry of one join run's in-flight partition tasks."""

    def __init__(self, pool: WorkerPool) -> None:
        self.pool = pool
        self._items: list[tuple[_TaskFn, Any, "Future[TaskResult]"]] = []

    def __len__(self) -> int:
        return len(self._items)

    @property
    def workers(self) -> int:
        """Fan-out width producers should chunk for."""
        return self.pool.workers

    def submit(self, fn: _TaskFn, task: Any) -> None:
        """Schedule one task; its merge slot is this call's position."""
        self._items.append((fn, task, self.pool.submit(fn, task)))

    def drain(
        self,
        sink: JoinSink,
        report: JoinReport,
        span: Optional[Span] = None,
    ) -> None:
        """Merge all results, in submission order, into the parent run."""
        items, self._items = self._items, []
        for fn, task, future in items:
            result = self.pool.resolve(future, fn, task)
            sink.absorb(result["count"], result["pairs"])
            report.false_hits += result["false_hits"]
            if span is not None and result["trace"]:
                span.children.extend(spans_from_jsonl(result["trace"]))

    def drain_traced(
        self, sink: JoinSink, report: JoinReport, tracer: Tracer
    ) -> None:
        """Drain under a ``parallel.fanout`` span on ``tracer``."""
        with tracer.span(
            "parallel.fanout", tasks=len(self), workers=self.pool.workers
        ) as span:
            self.drain(sink, report, span if tracer.enabled else None)

    def close(self) -> None:
        """Release the pool (idempotent; does not drain)."""
        self.pool.close()


def run_cold_joins(
    tasks: Sequence[SlotJoinTask],
    workers: int,
    mode: Optional[str],
    tracer: Optional[Tracer],
    span_name: str,
    /,
    **span_attributes: object,
) -> list[SlotTaskResult]:
    """Fan cold-join tasks over a pool; payloads in submission order.

    Deterministic merge: payloads are resolved and folded in task
    order, never in completion order.  A worker-side
    :class:`~repro.storage.faults.StorageFault` is rebuilt typed in the
    parent and raised from the first faulted task in that order.  Worker
    span trees come back as JSON lines: they are attached under one
    ``span_name`` root on the parent tracer, and each report's ``trace``
    is re-pointed at its own ``join.<name>`` root.
    """
    pool = WorkerPool(workers, mode=mode)
    try:
        futures = [pool.submit(run_slot_join_task, task) for task in tasks]
        payloads = [
            pool.resolve(future, run_slot_join_task, task)
            for task, future in zip(tasks, futures)
        ]
    finally:
        pool.close()
    fan = (
        tracer.span(span_name, **span_attributes)
        if tracer is not None and tracer.enabled
        else nullcontext()
    )
    with fan as fan_span:
        for payload in payloads:
            if payload["fault"] is not None:
                raise fault_from_payload(payload["fault"])
            if fan_span is not None and payload["trace"]:
                roots = spans_from_jsonl(payload["trace"])
                fan_span.children.extend(roots)
                if roots:
                    payload["report"].trace = roots[0]
    return payloads
