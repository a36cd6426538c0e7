"""Deterministic fan-out of cold joins: submission-order merge.

:func:`run_cold_joins` fans whole cold joins
(:class:`~repro.parallel.tasks.SlotJoinTask`) over a pool and merges
them in *submission order*.  It is the one pooled path: the shard
executor ships one task per slot.  Workers may finish in any order —
the merge never observes completion order, so the returned payloads,
the first raised fault and the attached span forest are identical run
to run.

Worker spans come back as JSON lines and are attached as children of
one root span on the parent tracer; each worker ran on its own bench,
so the root's I/O delta in the parent is zero and each report carries
its own accounting.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Optional, Sequence

from ..obs.export import spans_from_jsonl
from ..obs.tracer import Tracer
from .pool import WorkerPool
from .tasks import (
    SlotJoinTask,
    SlotTaskResult,
    fault_from_payload,
    run_slot_join_task,
)

__all__ = ["FANOUT_SPAN", "run_cold_joins"]

#: name of the root span the worker span trees are attached under
FANOUT_SPAN = "shard.fanout"


def run_cold_joins(
    tasks: Sequence[SlotJoinTask],
    workers: int,
    mode: Optional[str],
    tracer: Optional[Tracer],
    /,
    **span_attributes: object,
) -> list[SlotTaskResult]:
    """Fan cold-join tasks over a pool; payloads in submission order.

    Deterministic merge: payloads are resolved and folded in task
    order, never in completion order.  A worker-side
    :class:`~repro.storage.faults.StorageFault` is rebuilt typed in the
    parent and raised from the first faulted task in that order.  Worker
    span trees come back as JSON lines: they are attached under one
    :data:`FANOUT_SPAN` root on the parent tracer, and each report's
    ``trace`` is re-pointed at its own ``join.<name>`` root.
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
        tracer.span(FANOUT_SPAN, **span_attributes)
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
