"""Shard-parallel scatter-gather joins over a :class:`ShardedCorpus`.

The executor runs any named join algorithm of the line-up slot by
slot: each populated level-``l`` slot becomes one
:class:`~repro.parallel.tasks.SlotJoinTask` — a cold, worker-private
workbench built from that slot's ancestor input (owned + replicated
codes) and descendant input (owned codes) — fanned over the existing
:class:`~repro.parallel.pool.WorkerPool`.  The per-slot
:class:`~repro.join.base.JoinReport`s are merged field-wise in slot
order.

Accounting contract (the differential oracle):

* the *slot* is the unit of work.  Which slots exist, their inputs and
  their scan order are pure functions of ``(tree_height, level,
  data)`` — see :mod:`repro.shard.corpus` — so every summed report
  field is identical for ``shards=1`` and ``shards=N``, serial or
  parallel.  Only ``wall_seconds`` (real elapsed time) varies.
* per-slot chaos seeds derive from ``(base seed, dataset, algorithm,
  slot)`` via CRC-32, so a fault schedule is reproducible and
  grouping-invariant too.
* extracting slot inputs from the corpus heaps is charged to the
  per-shard engines' own ledgers, *not* to the merged report: its
  random/sequential split depends on how slot files interleave on a
  shard's disk, which is exactly the shard-grouping detail the merged
  accounting must not observe.  (The line-up harness likewise keeps
  set materialisation out of the reports.)

Because every slot runs on a fresh private bench, a sharded report is
*internally* consistent across shard counts but intentionally differs
from an unsharded run of the same algorithm (one bench, no
partitioning): compare sharded runs against sharded runs.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, replace
from itertools import chain
from typing import Any, Optional, Sequence, Union

from ..core.execconfig import ExecConfig, current
from ..join.base import JoinReport
from ..join.mhcj import pair_pages
from ..join.planner import make_algorithm, plan_from_metadata
from ..obs.tracer import Tracer
from ..parallel.fanout import run_cold_joins
from ..parallel.pool import check_pool_args
from ..parallel.tasks import BenchGauges, SlotJoinTask
from ..storage.faults import FaultConfig, FaultInjector, RetryPolicy
from ..storage.histogram import PositionHistogram
from ..storage.page import page_capacity
from ..storage.record import CODE
from ..storage.stats import IOSnapshot
from .corpus import ShardedCorpus

__all__ = ["ShardedJoinExecutor", "SlotInputs", "slot_fault_config"]


@dataclass(frozen=True)
class SlotInputs:
    """Pre-extracted per-slot input lists for one join side.

    The query service extracts slot inputs during its *prepare* phase
    (under the storage lock — the shard pools are shared state) and
    hands the executor this wrapper so the concurrent *execute* phase
    touches no shared pages at all.  ``slots`` must be in slot order
    and cover every slot of the corpus.
    """

    slots: Sequence[Sequence[int]]


#: a join side: a tag registered on the corpus, raw codes to scatter
#: transiently in memory (query intermediates), or pre-extracted
#: per-slot inputs (the service's prepare phase)
SideInput = Union[str, "SlotInputs", Sequence[int]]


def slot_fault_config(
    base: Optional[FaultConfig], dataset: str, algorithm: str, slot: int
) -> Optional[FaultConfig]:
    """Derive one slot's deterministic chaos seed from the base config.

    CRC-32 over ``seed:dataset:algorithm:slot`` — stable across runs,
    independent of shard grouping and worker scheduling, and distinct
    per slot so concurrent slot benches don't replay one fault stream.
    """
    if base is None:
        return None
    token = f"{base.seed}:{dataset}:{algorithm}:slot{slot}"
    return replace(base, seed=zlib.crc32(token.encode("utf-8")))


class ShardedJoinExecutor:
    """Scatter-gather any line-up join algorithm over corpus slots."""

    def __init__(
        self,
        corpus: ShardedCorpus,
        workers: Optional[int] = None,
        parallel_mode: Optional[str] = None,
    ) -> None:
        self.corpus = corpus
        self.workers = corpus.num_shards if workers is None else workers
        check_pool_args(self.workers, parallel_mode)
        self.parallel_mode = parallel_mode
        #: bench gauges of the most recent run's slots, in slot order
        #: (what a caller folds into line-up-level buffer/fault metrics)
        self.slot_benches: Sequence[BenchGauges] = ()

    # ------------------------------------------------------------------
    def _side_inputs(self, side: SideInput, ancestor: bool) -> list[list[int]]:
        """Per-slot input lists for one join side, in slot order."""
        corpus = self.corpus
        if isinstance(side, SlotInputs):
            if len(side.slots) != corpus.num_slots:
                raise ValueError(
                    f"SlotInputs covers {len(side.slots)} slots, corpus "
                    f"has {corpus.num_slots}"
                )
            return [list(codes) for codes in side.slots]
        if isinstance(side, str):
            if ancestor:
                return [
                    corpus.slot_ancestor_codes(side, slot)
                    for slot in range(corpus.num_slots)
                ]
            return [
                corpus.slot_descendant_codes(side, slot)
                for slot in range(corpus.num_slots)
            ]
        # raw codes (query intermediates): scatter transiently in
        # memory — equivalent to materialised slot files because
        # extraction I/O is outside the merged accounting anyway
        owned, replica = corpus.map.scatter(side)
        if ancestor:
            return [
                owned[slot] + replica[slot]
                for slot in range(corpus.num_slots)
            ]
        return owned

    def extract(self, tag: str, ancestor: bool) -> SlotInputs:
        """Pre-extract one registered set's per-slot inputs (this reads
        slot files through the shard pools — call it where those may be
        touched, e.g. the service's prepare phase)."""
        return SlotInputs(
            tuple(tuple(codes) for codes in self._side_inputs(tag, ancestor))
        )

    def run(
        self,
        algorithm: str,
        ancestors: SideInput,
        descendants: SideInput,
        dataset: str = "",
        buffer_pages: int = 50,
        page_size: int = 1024,
        collect: bool = False,
        faults: "FaultInjector | FaultConfig | None" = None,
        retry: Optional[RetryPolicy] = None,
        tracer: Optional[Tracer] = None,
        exec: Optional[ExecConfig] = None,
    ) -> tuple[JoinReport, Optional[list[tuple[int, int]]]]:
        """Run ``algorithm`` shard-parallel; returns (merged report, pairs).

        ``pairs`` is the gathered result set when ``collect`` is set
        (concatenated in slot order), else ``None``.  ``exec`` defaults
        to the caller's current execution configuration, mirroring the
        line-up harness; every slot bench runs under it.
        """
        if isinstance(faults, FaultInjector):
            raise ValueError(
                "a live FaultInjector cannot be shipped to slot workers; "
                "pass its FaultConfig instead (each slot bench seeds a "
                "fresh injector from a slot-derived seed)"
            )
        make_algorithm(algorithm)  # reject unknown names before spawning

        corpus = self.corpus
        a_slots = self._side_inputs(ancestors, ancestor=True)
        d_slots = self._side_inputs(descendants, ancestor=False)
        prefix = f"{dataset}." if dataset else ""
        traced = tracer is not None and tracer.enabled
        cfg = current() if exec is None else exec
        started = time.perf_counter()
        tasks = [
            SlotJoinTask(
                label=f"{prefix}slot{slot:03d}",
                algorithm=algorithm,
                a_codes=a_slots[slot],
                d_codes=d_slots[slot],
                tree_height=corpus.tree_height,
                buffer_pages=buffer_pages,
                page_size=page_size,
                collect=collect,
                faults=slot_fault_config(faults, dataset, algorithm, slot),
                retry=retry,
                traced=traced,
                exec=cfg,
            )
            for slot in range(corpus.num_slots)
            # an empty side joins to nothing; purge (VPJ-style)
            if a_slots[slot] and d_slots[slot]
        ]
        payloads = run_cold_joins(
            tasks,
            self.workers,
            self.parallel_mode,
            tracer,
            "shard.fanout",
            slots=len(tasks),
            total_slots=corpus.num_slots,
            level=corpus.map.level,
        )
        self.slot_benches = [
            BenchGauges(buffer=p["buffer"], fault_stats=p["fault_stats"])
            for p in payloads
        ]
        reports: list[JoinReport] = [payload["report"] for payload in payloads]
        merged = JoinReport(
            algorithm=algorithm,
            result_count=sum(r.result_count for r in reports),
            prep_io=sum((r.prep_io for r in reports), IOSnapshot()),
            join_io=sum((r.join_io for r in reports), IOSnapshot()),
            false_hits=sum(r.false_hits for r in reports),
            wall_seconds=time.perf_counter() - started,
            partitions=sum(r.partitions for r in reports),
            notes=(
                f"shard scatter-gather: {len(tasks)} active of "
                f"{corpus.num_slots} level-{corpus.map.level} slots"
            ),
            buffer_hits=sum(r.buffer_hits for r in reports),
            buffer_misses=sum(r.buffer_misses for r in reports),
        )
        pairs: Optional[list[tuple[int, int]]] = None
        if collect:
            pairs = [pair for payload in payloads for pair in payload["pairs"]]
        return merged, pairs

    def run_path(
        self,
        sides: Sequence[SideInput],
        dataset: str,
        buffer_pages: int = 50,
        page_size: int = 1024,
        **run_options: Any,
    ) -> tuple[list[JoinReport], list[int]]:
        """Evaluate a descendant chain top-down, one sharded join per step.

        ``sides[0]`` joins ``sides[1]``; each later step joins the
        previous step's surviving descendants (scattered transiently)
        against the next side.  Every step is planned **once for the
        whole corpus** (:meth:`plan_step`) and that one algorithm runs
        on every slot.  Returns the per-step merged reports and the
        final survivors, sorted.  ``run_options`` are forwarded to
        :meth:`run` (faults, tracer).
        """
        if len(sides) < 2:
            raise ValueError("a path needs an anchor and at least one step")
        reports: list[JoinReport] = []
        survivors: list[int] = []
        ancestors: SideInput = sides[0]
        for step_index, descendants in enumerate(sides[1:], start=1):
            a_slots = self._side_inputs(ancestors, ancestor=True)
            d_slots = self._side_inputs(descendants, ancestor=False)
            report, pairs = self.run(
                self.plan_step(a_slots, d_slots, buffer_pages, page_size),
                SlotInputs(a_slots),
                SlotInputs(d_slots),
                dataset=f"{dataset}.step{step_index}",
                buffer_pages=buffer_pages,
                page_size=page_size,
                collect=True,
                **run_options,
            )
            reports.append(report)
            assert pairs is not None
            ancestors = survivors = sorted({d for _a, d in pairs})
        return reports, survivors

    def plan_step(
        self,
        a_slots: Sequence[Sequence[int]],
        d_slots: Sequence[Sequence[int]],
        buffer_pages: int,
        page_size: int,
    ) -> str:
        """The algorithm the planner picks for one step of the corpus.

        Planned from corpus-level metadata — record counts and pages
        summed over the slots, one slot bench's pool, and the histograms
        of the whole sets (a replicated ancestor counted once, so they
        equal the unsharded sets') — which is a function of the slot
        structure alone, so ``shards=1`` and ``shards=N`` run the same
        plan, and the plan the unsharded planner picks; planning slot
        by slot would not keep that.
        """
        capacity = page_capacity(page_size, CODE.record_size)
        tree_height = self.corpus.tree_height
        return plan_from_metadata(
            a_count=sum(map(len, a_slots)),
            a_pages=sum(-(-len(codes) // capacity) for codes in a_slots),
            a_pair_pages=sum(pair_pages(len(codes), capacity) for codes in a_slots),
            a_histogram=PositionHistogram.of_codes(
                list(set(chain.from_iterable(a_slots))), tree_height
            ),
            d_count=sum(map(len, d_slots)),
            d_pages=sum(-(-len(codes) // capacity) for codes in d_slots),
            d_histogram=PositionHistogram.of_codes(
                list(chain.from_iterable(d_slots)), tree_height
            ),
            buffer_pages=buffer_pages,
        ).algorithm_name
