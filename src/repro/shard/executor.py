"""Shard-parallel scatter-gather joins over a :class:`ShardedCorpus`.

The executor runs any named join algorithm of the line-up slot by
slot: each populated level-``l`` slot becomes one
:class:`~repro.parallel.tasks.SlotJoinTask` — a cold, worker-private
workbench built from that slot's ancestor input (owned + replicated
codes) and descendant input (owned codes) — fanned over the existing
:class:`~repro.parallel.pool.WorkerPool`.  The per-slot
:class:`~repro.join.base.JoinReport`s are merged field-wise in slot
order.  Both sides are sets registered on the corpus by tag.  The
executor is the one scale-out entry (the perf ledger's
``shard_scatter`` drives it); the line-up harness runs serially.  Path
queries do not shard: they run the one
:class:`~repro.join.pipeline.PathPipeline` (:mod:`repro.db`).

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
from dataclasses import replace
from typing import Optional

from ..join.base import JoinReport
from ..join.planner import make_algorithm
from ..obs.tracer import Tracer
from ..parallel.fanout import run_cold_joins
from ..parallel.pool import check_pool_args
from ..parallel.tasks import SlotJoinTask
from ..storage.faults import FaultConfig, FaultInjector, RetryPolicy
from ..storage.stats import IOSnapshot
from .corpus import ShardedCorpus

__all__ = ["ShardedJoinExecutor", "slot_fault_config"]


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

    # ------------------------------------------------------------------
    def run(
        self,
        algorithm: str,
        ancestors: str,
        descendants: str,
        dataset: str = "",
        buffer_pages: int = 50,
        page_size: int = 1024,
        collect: bool = False,
        faults: "FaultInjector | FaultConfig | None" = None,
        retry: Optional[RetryPolicy] = None,
        tracer: Optional[Tracer] = None,
    ) -> tuple[JoinReport, Optional[list[tuple[int, int]]]]:
        """Join two sets registered on the corpus (by tag) shard-parallel;
        returns (merged report, pairs).

        Each slot joins its owned + replicated ``ancestors`` codes
        against its owned ``descendants`` codes, read back through the
        owning shard's pool.  ``pairs`` is the gathered result set when
        ``collect`` is set
        (concatenated in slot order), else ``None``.
        """
        if isinstance(faults, FaultInjector):
            raise ValueError(
                "a live FaultInjector cannot be shipped to slot workers; "
                "pass its FaultConfig instead (each slot bench seeds a "
                "fresh injector from a slot-derived seed)"
            )
        make_algorithm(algorithm)  # reject unknown names before spawning
        corpus = self.corpus
        for tag in (ancestors, descendants):
            if tag not in corpus.tags:
                raise ValueError(
                    f"set {tag!r} is not registered on the corpus "
                    f"(registered: {', '.join(corpus.tags) or 'none'})"
                )

        slots = range(corpus.num_slots)
        a_slots = [corpus.slot_ancestor_codes(ancestors, slot) for slot in slots]
        d_slots = [corpus.slot_descendant_codes(descendants, slot) for slot in slots]
        prefix = f"{dataset}." if dataset else ""
        traced = tracer is not None and tracer.enabled
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
            slots=len(tasks),
            total_slots=corpus.num_slots,
            level=corpus.map.level,
        )
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
