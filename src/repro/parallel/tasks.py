"""Picklable partition tasks and their pure-CPU worker kernels.

The accounting contract of the parallel subsystem (docs/parallel.md)
is that a parallel run's merged page-I/O equals the serial run's
*exactly*.  The design that makes this trivial rather than heroic: the
parent replays the exact serial page-access order while extracting
each partition's code arrays, and ships only those arrays.  Workers
never open a :class:`~repro.storage.disk.DiskManager` for partition
work — their kernels are pure CPU over the shipped lists — so all
storage I/O, buffer hits/misses, retries and injected faults happen in
the parent, in serial order.

Cold-join tasks (:class:`SlotJoinTask`) are the one exception: each
worker builds its *own complete workbench* (disk + buffer pool) from the
shipped codes, because both of their users — one algorithm of a
line-up, one level-``l`` slot of a sharded join — are defined as "this
algorithm, cold, on a fresh bench".  The worker sends the finished
:class:`~repro.join.base.JoinReport` back (trace detached and shipped
as JSON lines, which survive pickling losslessly), plus structured
fault payloads — :class:`~repro.storage.faults.StorageFault` instances
themselves use keyword-only constructors and do not round-trip through
pickle.

Every task dataclass here is frozen and built from ints, strings,
lists of ints and frozen configs — safe for both ``fork`` and ``spawn``
start methods.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional, TypedDict

from ..core import batch, pbitree
from ..core.execconfig import ExecConfig, exec_scope
from ..core.pbitree import PBiCode
from ..obs.export import trace_to_jsonl
from ..obs.tracer import Tracer
from ..storage.faults import (
    FaultConfig,
    PermanentIOError,
    RetryPolicy,
    StorageFault,
    TransientIOError,
)

if TYPE_CHECKING:
    from ..experiments.harness import Workbench

__all__ = [
    "TaskResult",
    "BenchGauges",
    "SlotTaskResult",
    "MemJoinTask",
    "HeightProbeTask",
    "SlotJoinTask",
    "run_memjoin_task",
    "run_height_probe_task",
    "run_slot_join_task",
    "bench_gauges",
    "fault_to_payload",
    "fault_from_payload",
]


class TaskResult(TypedDict):
    """What every partition-task worker sends back to the parent."""

    #: pairs emitted by this task's kernel
    count: int
    #: candidates that failed Lemma-1 verification (MHCJ rollup path)
    false_hits: int
    #: the emitted pairs, or ``None`` when the parent sink only counts
    pairs: Optional[list[tuple[int, int]]]
    #: worker-side span tree as JSON lines, or ``None`` when untraced
    trace: Optional[str]


class BenchGauges(TypedDict):
    """Final state of one workbench (see :func:`bench_gauges`)."""

    #: buffer-pool hits / misses / resident / pinned
    buffer: dict[str, float]
    #: injected-fault tallies, or ``None`` when no injector is attached
    fault_stats: Optional[dict[str, int]]


class SlotTaskResult(BenchGauges):
    """One algorithm's cold run on a worker-private workbench."""

    #: finished report (``trace`` detached), or ``None`` when faulted
    report: Optional[Any]
    #: emitted pairs when the task collects, else ``None``
    pairs: Optional[list[tuple[int, int]]]
    #: structured :func:`fault_to_payload` payload, or ``None``
    fault: Optional[dict[str, Any]]
    #: worker tracer output as JSON lines, or ``None`` when untraced
    trace: Optional[str]


def _run_kernel(
    task: Any,
    kernel: Callable[[Any, Callable[[int, int], None]], int],
    **span_attributes: object,
) -> TaskResult:
    """Run one partition kernel (which returns its false-hit count)
    into a counting/collecting sink, under a local tracer if traced."""
    pairs: Optional[list[tuple[int, int]]] = [] if task.collect else None
    count = 0

    def emit(a_code: int, d_code: int) -> None:
        nonlocal count
        count += 1
        if pairs is not None:
            pairs.append((a_code, d_code))

    trace: Optional[str] = None
    if task.traced:
        tracer = Tracer()
        with tracer.span(task.label, **span_attributes):
            false_hits = kernel(task, emit)
        trace = trace_to_jsonl(tracer)
    else:
        false_hits = kernel(task, emit)
    return TaskResult(count=count, false_hits=false_hits, pairs=pairs, trace=trace)


# ---------------------------------------------------------------------------
# VPJ: memory containment join over one co-partition
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MemJoinTask:
    """Algorithm 6 kernel over extracted code arrays.

    ``d_fits`` selects the branch the parent chose from *page* counts
    (the serial criterion — record counts could disagree with it):
    True sorts the descendant codes and binary-searches each ancestor's
    region; False builds per-height ancestor hash sets and probes each
    descendant with ``F``.  ``dedup_above_height`` carries VPJ's
    replicated-ancestor de-duplication; the parent only chunks the
    ancestor stream when it is ``None`` (the dedup set must see the
    whole stream).

    ``batch_size`` is shipped explicitly because workers do not share
    the parent's execution-configuration context; 0 selects the scalar
    kernel (the differential oracle).
    """

    label: str
    a_codes: list[int]
    d_codes: list[int]
    d_fits: bool
    dedup_above_height: Optional[int]
    collect: bool
    traced: bool
    batch_size: int = batch.DEFAULT_BATCH_SIZE


def _memjoin_kernel(task: MemJoinTask, emit: Callable[[int, int], None]) -> int:
    if task.batch_size > 0:
        if task.d_fits:
            batch.region_probe(
                task.a_codes,
                sorted(task.d_codes),
                emit,
                task.dedup_above_height,
                set(),
            )
        else:
            tables: dict[int, set[int]] = {}
            batch.build_height_tables(task.a_codes, tables)
            batch.height_probe(
                tables, sorted(tables, reverse=True), task.d_codes, emit
            )
        return 0  # Algorithm 6 verifies nothing: no false hits
    region_of = pbitree.region_of
    height_of = pbitree.height_of
    f_ancestor = pbitree.f_ancestor
    if task.d_fits:
        d_codes = sorted(task.d_codes)
        dedup = task.dedup_above_height
        seen_high: set[int] = set()
        for a_code in task.a_codes:
            if dedup is not None and height_of(PBiCode(a_code)) > dedup:
                if a_code in seen_high:
                    continue
                seen_high.add(a_code)
            start, end = region_of(PBiCode(a_code))
            lo = bisect_left(d_codes, start)
            hi = bisect_right(d_codes, end)
            for d_code in d_codes[lo:hi]:
                if a_code != d_code:
                    emit(a_code, d_code)
    else:
        # hash sets de-duplicate replicated ancestors by construction
        by_height: dict[int, set[int]] = {}
        for a_code in task.a_codes:
            by_height.setdefault(height_of(PBiCode(a_code)), set()).add(a_code)
        heights = sorted(by_height, reverse=True)
        for d_code in task.d_codes:
            d_height = height_of(PBiCode(d_code))
            for height in heights:
                if height <= d_height:
                    break
                anc = f_ancestor(PBiCode(d_code), height)
                if anc in by_height[height]:
                    emit(anc, d_code)
    return 0


def run_memjoin_task(task: MemJoinTask) -> TaskResult:
    """Execute one VPJ memory-join kernel; pure CPU, no storage."""
    return _run_kernel(
        task,
        _memjoin_kernel,
        a_records=len(task.a_codes),
        d_records=len(task.d_codes),
    )


# ---------------------------------------------------------------------------
# MHCJ: one height class's hash probe
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class HeightProbeTask:
    """One (chunk of one) height class of MHCJ / MHCJ+Rollup.

    ``a_pairs`` are ``(effective, original)`` records — ``effective``
    is the (possibly rolled) code at ``height``.  Matches through
    rolled records are verified with Lemma 1 against the original code;
    failures count as false hits, exactly as the serial
    ``_join_height_class``.  Either side may be the chunked one; the
    kernel's output is identical regardless of which side streams.
    """

    label: str
    height: int
    a_pairs: list[tuple[int, int]]
    d_codes: list[int]
    collect: bool
    traced: bool
    batch_size: int = batch.DEFAULT_BATCH_SIZE


def _height_probe_kernel(
    task: HeightProbeTask, emit: Callable[[int, int], None]
) -> int:
    if task.batch_size > 0:
        table: dict[int, list[int]] = {}
        for effective, original in task.a_pairs:
            bucket = table.get(effective)
            if bucket is None:
                table[effective] = [original]
            else:
                bucket.append(original)
        return batch.height_class_probe(table, task.height, task.d_codes, emit)
    height_of = pbitree.height_of
    f_ancestor = pbitree.f_ancestor
    is_ancestor = pbitree.is_ancestor
    height = task.height
    false_hits = 0
    table: dict[int, list[tuple[int, int]]] = {}
    for pair in task.a_pairs:
        table.setdefault(pair[0], []).append(pair)
    for d_code in task.d_codes:
        if height_of(PBiCode(d_code)) >= height:
            continue
        anc = f_ancestor(PBiCode(d_code), height)
        for effective, original in table.get(anc, ()):
            if effective == original:
                emit(original, d_code)
            elif is_ancestor(PBiCode(original), PBiCode(d_code)):
                emit(original, d_code)
            else:
                false_hits += 1
    return false_hits


def run_height_probe_task(task: HeightProbeTask) -> TaskResult:
    """Execute one MHCJ height-class probe; pure CPU, no storage."""
    return _run_kernel(
        task,
        _height_probe_kernel,
        height=task.height,
        a_records=len(task.a_pairs),
        d_records=len(task.d_codes),
    )


# ---------------------------------------------------------------------------
# one algorithm, cold, on a worker-private bench (line-up runs and
# sharded-join slots)
# ---------------------------------------------------------------------------
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


def bench_gauges(bench: "Workbench") -> BenchGauges:
    """Snapshot a bench's buffer-pool and injected-fault tallies."""
    injector = bench.disk.faults
    return BenchGauges(
        buffer={
            "hits": float(bench.bufmgr.hits),
            "misses": float(bench.bufmgr.misses),
            "resident": float(bench.bufmgr.num_resident),
            "pinned": float(bench.bufmgr.num_pinned),
        },
        fault_stats=None if injector is None else asdict(injector.stats),
    )


@dataclass(frozen=True)
class SlotJoinTask:
    """One cold join: an algorithm of a line-up, or one level-``l`` slot
    of a sharded scatter-gather join.

    The worker builds its own complete workbench from the shipped
    codes, runs under ``exec`` (the parent's execution configuration,
    shipped because workers do not share the parent's context), and
    sends back structured fault payloads plus — when ``collect`` is
    set — the emitted pairs.  ``label`` feeds heap names and the trace
    span: the dataset name for a line-up run; for a slot it must be
    derived from the *slot* alone (never the shard or worker), so the
    slot's report is identical however slots are grouped or scheduled.

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
    algorithm_workers: int = 1
    exec: ExecConfig = ExecConfig()


def run_slot_join_task(task: SlotJoinTask) -> SlotTaskResult:
    """Run one cold join on a fresh workbench (worker side)."""
    # imported lazily: the harness and the planner import the join
    # operators, which import this package — a module-level import
    # would be circular
    from ..experiments.harness import Workbench, materialize, run_algorithm
    from ..join.base import JoinSink
    from ..join.planner import make_algorithm

    sink = JoinSink("collect" if task.collect else "count")
    tracer = Tracer() if task.traced else None
    report = None
    fault: Optional[dict[str, Any]] = None
    with exec_scope(task.exec):
        bench = Workbench.create(
            task.buffer_pages, task.page_size, faults=task.faults, retry=task.retry
        )
        ancestors = materialize(
            bench.bufmgr, task.a_codes, task.tree_height, f"{task.label}.A"
        )
        descendants = materialize(
            bench.bufmgr, task.d_codes, task.tree_height, f"{task.label}.D"
        )
        algorithm = make_algorithm(task.algorithm, workers=task.algorithm_workers)
        try:
            report = run_algorithm(
                algorithm, ancestors, descendants, sink, tracer=tracer
            )
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
        **bench_gauges(bench),
    )
