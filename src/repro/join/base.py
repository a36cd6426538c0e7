"""Join framework: operator interface, output sinks and run reports.

Every containment-join algorithm in this package consumes two
:class:`~repro.storage.elementset.ElementSet` inputs (the ancestor set
``A`` and the descendant set ``D``) and emits ``(a_code, d_code)``
pairs into a :class:`JoinSink`.  ``run`` returns a :class:`JoinReport`
with the result count, the I/O charged to preparation (on-the-fly
sorting / index building — what the paper's Section 4 charges the
region-code algorithms with) and to the join proper, false-hit counts
where applicable, and wall time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from ..core.pbitree import PBiCode
from ..obs.tracer import NULL_TRACER, Span, Tracer
from ..storage.buffer import BufferManager
from ..storage.elementset import ElementSet
from ..storage.faults import StorageFault
from ..storage.stats import IOSnapshot

__all__ = ["JoinSink", "JoinReport", "JoinAlgorithm", "SINK_MODES"]

#: ``JoinSink`` modes: all pairs, a pair count, or one side's survivors
SINK_MODES = ("collect", "count", "semi-d", "semi-a")


class JoinSink:
    """Collects join output.

    ``mode='count'`` only counts pairs (used by the benchmarks so that
    materialisation cost — identical across algorithms — never skews a
    comparison); ``mode='collect'`` keeps the pairs for verification.
    The two existential modes keep one side of each pair:
    ``'semi-d'`` the distinct matched descendants, ``'semi-a'`` the
    distinct matched ancestors, in :attr:`survivors`; their ``count``
    is the number of survivors, not of pairs.  ``emit(a_code, d_code)``
    is correct in every mode; an operator may also add survivors
    straight to the set (its semijoin fast path).
    """

    __slots__ = ("mode", "pairs", "survivors", "emit", "_tally")

    def __init__(self, mode: str = "collect") -> None:
        if mode not in SINK_MODES:
            raise ValueError(f"unknown sink mode {mode!r}")
        self.mode = mode
        self.pairs: list[tuple[PBiCode, PBiCode]] = []
        self.survivors: set[int] = set()
        self._tally = [0]
        self.emit: Callable[[PBiCode, PBiCode], None] = self._emitter()

    def _emitter(self) -> Callable[[PBiCode, PBiCode], None]:
        # the closures hold the containers, not the sink: a sink is
        # never a reference cycle, so it dies with its last reference
        if self.mode == "count":
            tally = self._tally

            def count_pair(a_code: PBiCode, d_code: PBiCode) -> None:
                tally[0] += 1

            return count_pair
        if self.mode == "collect":
            append = self.pairs.append
            return lambda a_code, d_code: append((a_code, d_code))
        add = self.survivors.add
        if self.mode == "semi-d":
            return lambda a_code, d_code: add(d_code)
        return lambda a_code, d_code: add(a_code)

    @property
    def count(self) -> int:
        if self.mode == "collect":
            return len(self.pairs)
        if self.mode == "count":
            return self._tally[0]
        return len(self.survivors)

    def emit_many(self, pairs: Iterable[tuple[PBiCode, PBiCode]]) -> None:
        if self.mode == "collect":
            self.pairs.extend(pairs)
        else:
            for a_code, d_code in pairs:
                self.emit(a_code, d_code)


@dataclass
class JoinReport:
    """Everything measured about one join execution."""

    algorithm: str
    result_count: int
    prep_io: IOSnapshot = field(default_factory=IOSnapshot)
    join_io: IOSnapshot = field(default_factory=IOSnapshot)
    false_hits: int = 0
    wall_seconds: float = 0.0
    partitions: int = 0
    notes: str = ""
    #: buffer-pool activity over the whole run (prep + join)
    buffer_hits: int = 0
    buffer_misses: int = 0
    #: root span of the traced run, or None when tracing was disabled
    trace: Optional[Span] = None

    @property
    def total_io(self) -> IOSnapshot:
        return self.prep_io + self.join_io

    @property
    def total_pages(self) -> int:
        return self.total_io.total

    def cost(self, random_penalty: float = 1.0) -> float:
        """Weighted page cost (see :meth:`IOSnapshot.weighted_cost`)."""
        return (
            self.prep_io.weighted_cost(random_penalty)
            + self.join_io.weighted_cost(random_penalty)
        )


class JoinAlgorithm:
    """Base class for containment-join operators.

    Subclasses implement :meth:`_execute`, which runs after the
    ``prepare`` phase.  The default :meth:`run` wraps both phases with
    I/O snapshots and timing; algorithms that need on-the-fly
    preparation (sorting, index building) override :meth:`_prepare` and
    the framework attributes its I/O separately, exactly as the paper's
    experiments include sorting/indexing time for the region-code
    algorithms when inputs arrive unsorted and unindexed.
    """

    name = "abstract"

    #: the tracer of the *current* run; NULL_TRACER between runs, so
    #: ``self.trace(...)`` is always safe to call from ``_execute``
    _tracer: Tracer = NULL_TRACER

    def run(
        self,
        ancestors: ElementSet,
        descendants: ElementSet,
        sink: Optional[JoinSink] = None,
        tracer: Optional[Tracer] = None,
    ) -> JoinReport:
        if ancestors.tree_height != descendants.tree_height:
            raise ValueError(
                "ancestor and descendant sets come from different PBiTrees "
                f"(H={ancestors.tree_height} vs H={descendants.tree_height})"
            )
        sink = sink if sink is not None else JoinSink("collect")
        bufmgr = ancestors.bufmgr
        stats = bufmgr.disk.stats
        tracer = tracer if tracer is not None else NULL_TRACER
        tracer.bind(bufmgr)
        self._tracer = tracer
        hits_before = bufmgr.hits
        misses_before = bufmgr.misses

        start = time.perf_counter()
        before_prep = stats.snapshot()
        # The root span covers exactly what the report charges (prepare
        # + join, not cleanup), so its I/O delta equals ``total_pages``.
        root = tracer.span(f"join.{self.name}")
        prepared = None
        try:
            with root:
                with tracer.span("prepare"):
                    prepared = self._prepare(ancestors, descendants, bufmgr)
                prep_io = stats.delta(before_prep)

                before_join = stats.snapshot()
                with tracer.span("execute"):
                    report = self._execute(prepared, sink, bufmgr)
            report.join_io = stats.delta(before_join)
            report.prep_io = prep_io
            report.wall_seconds = time.perf_counter() - start
            report.result_count = sink.count
            report.buffer_hits = bufmgr.hits - hits_before
            report.buffer_misses = bufmgr.misses - misses_before
            if tracer.enabled:
                root.set("results", report.result_count)
                if report.false_hits:
                    root.set("false_hits", report.false_hits)
                report.trace = root
            return report
        except StorageFault as fault:
            # Fail fast, never return a silently truncated result: the
            # sink may hold partial output, so annotate the fault with
            # the operator and input context and let it propagate.
            fault.algorithm = self.name
            fault.add_context(
                f"join {ancestors.name or 'A'} <| {descendants.name or 'D'} "
                f"after {sink.count} "
                f"{'pairs' if sink.mode in ('collect', 'count') else 'survivors'}"
            )
            raise
        finally:
            self._tracer = NULL_TRACER
            # intermediates are freed on every path once prepared, so a
            # fault mid-join leaks no sorted copy or on-the-fly index
            if prepared is not None:
                self._cleanup(prepared, ancestors, descendants)

    def trace(self, name: str, **attributes: object) -> Span:
        """Open a sub-span on the current run's tracer (no-op untraced)."""
        return self._tracer.span(name, **attributes)

    # -- hooks ----------------------------------------------------------
    def _prepare(
        self, ancestors: ElementSet, descendants: ElementSet, bufmgr: BufferManager
    ):
        """On-the-fly preparation; returns whatever _execute consumes."""
        return ancestors, descendants

    def _execute(self, prepared, sink: JoinSink, bufmgr: BufferManager) -> JoinReport:
        raise NotImplementedError

    def _cleanup(self, prepared, ancestors, descendants) -> None:
        """Free intermediates not part of the original inputs (sorted
        copies, on-the-fly indexes); runs after ``_execute`` whether it
        returned or raised."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
