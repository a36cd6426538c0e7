"""Cold-join tasks: one algorithm, cold, on a worker-private bench.

A :class:`SlotJoinTask` is the only unit of pooled work: one
level-``l`` slot of a sharded join, defined as "this algorithm, cold,
on a fresh bench", so each worker builds its *own complete workbench*
(disk + buffer pool) from the shipped codes and runs the ordinary
serial operator on it.  A
task's page I/O is therefore exactly what the same run in the parent
would charge (docs/parallel.md).  The worker sends the finished
:class:`~repro.join.base.JoinReport` back (trace detached and shipped
as JSON lines, which survive pickling losslessly), plus structured
fault payloads — :class:`~repro.storage.faults.StorageFault` instances
themselves use keyword-only constructors and do not round-trip through
pickle.

Every task is frozen and built from ints, strings, bools, lists of
ints and frozen configs — safe for both ``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, TypedDict

from ..experiments.harness import Workbench, materialize, run_algorithm
from ..join.base import JoinSink
from ..join.planner import make_algorithm
from ..obs.export import trace_to_jsonl
from ..obs.tracer import Tracer
from ..storage.faults import (
    FaultConfig,
    PermanentIOError,
    RetryPolicy,
    StorageFault,
    TransientIOError,
)

__all__ = [
    "SlotTaskResult",
    "SlotJoinTask",
    "run_slot_join_task",
    "fault_to_payload",
    "fault_from_payload",
]


class SlotTaskResult(TypedDict):
    """One algorithm's cold run on a worker-private workbench."""

    #: finished report (``trace`` detached), or ``None`` when faulted
    report: Optional[Any]
    #: emitted pairs when the task collects, else ``None``
    pairs: Optional[list[tuple[int, int]]]
    #: structured :func:`fault_to_payload` payload, or ``None``
    fault: Optional[dict[str, Any]]
    #: worker tracer output as JSON lines, or ``None`` when untraced
    trace: Optional[str]


def fault_to_payload(fault: StorageFault) -> dict[str, Any]:
    """Flatten a fault for the trip back to the parent process.

    ``StorageFault`` constructors take keyword-only arguments, which
    default pickling of exceptions does not reproduce — a raised fault
    crossing a process boundary would turn into a ``TypeError``.
    """
    return {
        "type": type(fault).__name__,
        "message": fault.args[0] if fault.args else "storage fault",
        "page_id": fault.page_id,
        "operation": fault.operation,
        "transient": fault.transient,
        "context": list(fault.context),
        "algorithm": fault.algorithm,
    }


def fault_from_payload(payload: dict[str, Any]) -> StorageFault:
    """Rebuild a typed fault from :func:`fault_to_payload` output."""
    kinds: dict[str, type[StorageFault]] = {
        "TransientIOError": TransientIOError,
        "PermanentIOError": PermanentIOError,
    }
    kind = kinds.get(str(payload["type"]))
    fault: StorageFault
    if kind is not None and payload["page_id"] is not None:
        fault = kind(
            str(payload["message"]),
            page_id=int(payload["page_id"]),
            operation=str(payload["operation"]),
        )
    else:
        fault = StorageFault(
            str(payload["message"]),
            page_id=payload["page_id"],
            operation=payload["operation"],
            transient=bool(payload["transient"]),
        )
    fault.context = list(payload["context"])
    fault.algorithm = payload["algorithm"]
    return fault


@dataclass(frozen=True)
class SlotJoinTask:
    """One cold join: one level-``l`` slot of a sharded scatter-gather
    join.

    The worker builds its own complete workbench from the shipped
    codes and sends back structured fault payloads plus — when
    ``collect`` is set — the emitted pairs.  ``label`` feeds heap names
    and the trace span; it must be derived from the *slot* alone (never
    the shard or worker), so the slot's report is identical however
    slots are grouped or scheduled.

    ``faults`` must be a (picklable, frozen) :class:`FaultConfig`, not
    a live injector: the worker builds a fresh seeded injector from it,
    so a task's fault schedule equals a serial run of that algorithm on
    a fresh bench with the same config.
    """

    label: str
    algorithm: str
    a_codes: list[int]
    d_codes: list[int]
    tree_height: int
    buffer_pages: int
    page_size: int
    collect: bool
    faults: Optional[FaultConfig]
    retry: Optional[RetryPolicy]
    traced: bool


def run_slot_join_task(task: SlotJoinTask) -> SlotTaskResult:
    """Run one cold join on a fresh workbench (worker side)."""
    sink = JoinSink("collect" if task.collect else "count")
    tracer = Tracer() if task.traced else None
    report = None
    fault: Optional[dict[str, Any]] = None
    bench = Workbench.create(
        task.buffer_pages, task.page_size, faults=task.faults, retry=task.retry
    )
    ancestors = materialize(
        bench.bufmgr, task.a_codes, task.tree_height, f"{task.label}.A"
    )
    descendants = materialize(
        bench.bufmgr, task.d_codes, task.tree_height, f"{task.label}.D"
    )
    algorithm = make_algorithm(task.algorithm)
    try:
        report = run_algorithm(algorithm, ancestors, descendants, sink, tracer=tracer)
    except StorageFault as exc:
        fault = fault_to_payload(exc)
    pairs: Optional[list[tuple[int, int]]] = None
    if report is not None:
        # the trace is shipped as JSON lines (span objects hold a tracer
        # reference, which drags the whole workbench into the pickle)
        report.trace = None
        if task.collect:
            pairs = [(int(a_code), int(d_code)) for a_code, d_code in sink.pairs]
    return SlotTaskResult(
        report=report,
        pairs=pairs,
        fault=fault,
        trace=trace_to_jsonl(tracer) if tracer is not None else None,
    )
