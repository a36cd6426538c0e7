"""Experiment harness: run algorithm line-ups over datasets, cold.

The paper's experiments (Section 4) always start from element sets that
are on disk, unsorted and unindexed, behind a deliberately small buffer
pool; any sorting or index building an algorithm needs is charged to
it.  This module reproduces that protocol:

* :func:`materialize` writes code lists into element sets and *cools*
  the buffer pool (flush + evict) so the first access of every page is
  a real read;
* :func:`run_algorithm` executes one operator cold and returns its
  :class:`JoinReport`;
* :func:`run_lineup` runs the standard line-up — INLJN, STACKTREE,
  ADB+ (the region-code side, summarised as ``MIN_RGN``), and the
  partitioning algorithms — over one dataset and returns a
  :class:`LineupResult` with the per-algorithm costs and the paper's
  improvement/speedup ratios.

Cost metric: total page I/O (prep + join).  ``MIN_RGN`` is the minimum
over the three region-code algorithms, exactly as in Table 2(e).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional, Sequence, TypeVar

from ..core.execconfig import ExecConfig, current, exec_scope
from ..join.base import JoinAlgorithm, JoinReport, JoinSink
from ..join.planner import make_algorithm
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer
from ..parallel.fanout import run_cold_joins
from ..parallel.pool import check_pool_args
from ..parallel.tasks import BenchGauges, SlotJoinTask, bench_gauges
from ..storage.buffer import BufferManager
from ..storage.disk import DiskManager
from ..storage.elementset import ElementSet
from ..storage.faults import FaultConfig, FaultInjector, RetryPolicy

__all__ = [
    "REGION_ALGORITHMS",
    "materialize",
    "run_algorithm",
    "AlgorithmResult",
    "LineupResult",
    "run_lineup",
    "make_lineup",
    "make_algorithm",
    "Workbench",
    "timed",
]

#: factory list for the region-code side of every comparison
REGION_ALGORITHMS = ("INLJN", "STACKTREE", "ADB+")


def make_lineup(single_height: bool) -> list[str]:
    """The algorithms Figure 6(a)/(b) compare for a dataset class."""
    partitioned = "SHCJ" if single_height else "MHCJ+Rollup"
    return list(REGION_ALGORITHMS) + [partitioned, "VPJ"]


@dataclass
class Workbench:
    """A disk + buffer pool pair sized like the paper's testbed."""

    disk: DiskManager
    bufmgr: BufferManager

    @classmethod
    def create(
        cls,
        buffer_pages: int = 50,
        page_size: int = 1024,
        policy: str = "lru",
        faults: "FaultInjector | FaultConfig | None" = None,
        retry: Optional[RetryPolicy] = None,
        checksums: Optional[bool] = None,
    ) -> "Workbench":
        """``faults`` attaches a fault injector (a :class:`FaultConfig`
        is wrapped in a fresh injector); checksums default to on
        whenever faults are injected so torn pages stay detectable."""
        if isinstance(faults, FaultConfig):
            faults = FaultInjector(faults)
        if checksums is None:
            checksums = faults is not None
        disk = DiskManager(page_size, checksums=checksums, faults=faults)
        return cls(disk, BufferManager(disk, buffer_pages, policy, retry=retry))


def materialize(
    bufmgr: BufferManager,
    codes: Sequence[int],
    tree_height: int,
    name: str,
) -> ElementSet:
    """Write codes into a cold element set (flushed and evicted)."""
    elements = ElementSet.from_codes(bufmgr, codes, tree_height, name=name)
    bufmgr.flush_all()
    bufmgr.evict_all()
    return elements


def run_algorithm(
    algorithm: JoinAlgorithm,
    ancestors: ElementSet,
    descendants: ElementSet,
    sink: Optional[JoinSink] = None,
    tracer: Optional[Tracer] = None,
) -> JoinReport:
    """Run one operator against cold inputs.

    Pass a collecting :class:`JoinSink` to keep the result pairs;
    the default sink only counts (the benchmark setting).

    Under fault injection the run either completes correctly (transient
    faults absorbed by buffer-pool retries, visible as
    ``report.total_io.retries``) or raises a
    :class:`~repro.storage.faults.StorageFault` annotated with the
    algorithm name — partial results are never returned.
    """
    bufmgr = ancestors.bufmgr
    bufmgr.flush_all()
    bufmgr.evict_all()
    bufmgr.disk.stats.reset()
    return algorithm.run(
        ancestors, descendants, sink or JoinSink("count"), tracer=tracer
    )


@dataclass
class AlgorithmResult:
    name: str
    report: JoinReport

    @property
    def total_io(self) -> int:
        return self.report.total_pages

    @property
    def wall_seconds(self) -> float:
        return self.report.wall_seconds


@dataclass
class LineupResult:
    """All algorithms over one dataset, plus the paper's derived ratios."""

    dataset: str
    results: list[AlgorithmResult] = field(default_factory=list)
    result_count: int = 0

    def by_name(self, name: str) -> AlgorithmResult:
        for result in self.results:
            if result.name == name:
                return result
        raise KeyError(name)

    @property
    def min_rgn_io(self) -> int:
        """MIN_RGN: the best region-code algorithm's total I/O."""
        return min(
            result.total_io
            for result in self.results
            if result.name in REGION_ALGORITHMS
        )

    @property
    def min_rgn_seconds(self) -> float:
        return min(
            result.wall_seconds
            for result in self.results
            if result.name in REGION_ALGORITHMS
        )

    def improvement_ratio(self, name: str) -> float:
        """``(T_MIN_RGN - T_alg) / T_MIN_RGN`` on the I/O cost metric.

        Degenerate baselines are made explicit instead of silently
        clamped: a 0-I/O baseline against a 0-I/O algorithm is a tie
        (0.0); against an algorithm that *did* pay I/O the improvement
        is ``-inf`` (infinitely worse than free), never the old 0.0
        that made a regression look like parity.
        """
        min_rgn = self.min_rgn_io
        alg = self.by_name(name).total_io
        if min_rgn == 0:
            return 0.0 if alg == 0 else float("-inf")
        return (min_rgn - alg) / min_rgn

    def speedup(self, name: str) -> float:
        """``T_MIN_RGN / T_alg`` on I/O; 0/0 is a tie (1.0), not inf."""
        alg = self.by_name(name).total_io
        if alg == 0:
            return 1.0 if self.min_rgn_io == 0 else float("inf")
        return self.min_rgn_io / alg

    def wall_speedup(self, name: str) -> float:
        """``T_MIN_RGN / T_alg`` on wall time, safe for sub-tick runs.

        Tiny inputs can finish inside one timer tick on either side;
        0/0 reports a tie (1.0) and only a genuinely free algorithm
        against a non-free baseline reports ``inf``.
        """
        alg = self.by_name(name).wall_seconds
        baseline = self.min_rgn_seconds
        if alg <= 0.0:
            return 1.0 if baseline <= 0.0 else float("inf")
        return baseline / alg


def run_lineup(
    dataset_name: str,
    a_codes: Sequence[int],
    d_codes: Sequence[int],
    tree_height: int,
    buffer_pages: int = 50,
    page_size: int = 1024,
    algorithms: Optional[Sequence[str]] = None,
    single_height: Optional[bool] = None,
    collect: bool = False,
    faults: "FaultInjector | FaultConfig | None" = None,
    retry: Optional[RetryPolicy] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    workers: int = 1,
    parallel_mode: Optional[str] = None,
    exec: Optional[ExecConfig] = None,
    shards: int = 0,
    shard_level: Optional[int] = None,
) -> LineupResult:
    """Run the standard line-up over one dataset, each algorithm cold.

    With ``faults`` set the whole line-up runs under injection: a
    transient-fault schedule must leave every algorithm's result
    unchanged (they are still cross-checked against each other), while
    a permanent fault aborts the line-up with a typed
    :class:`StorageFault` — never a silently wrong comparison.

    ``tracer`` collects one ``join.<name>`` span tree per algorithm;
    ``metrics`` accumulates per-algorithm counters (see
    :meth:`~repro.obs.metrics.MetricsRegistry.record_report`) plus the
    final buffer-pool and fault gauges, summed over every bench the
    line-up ran on.

    ``workers > 1`` fans the per-algorithm runs out over a process
    pool (``parallel_mode``: ``"process"`` or ``"inline"``, see
    :class:`~repro.parallel.pool.WorkerPool`); each worker builds its
    own cold workbench, so every report equals that algorithm's serial
    report on a fresh bench (fault injection then requires a picklable
    :class:`FaultConfig`, not a live injector — each worker seeds a
    fresh one from it).  ``workers < 1`` or an unknown mode name raises
    :class:`ValueError` before any work.

    ``exec`` pins the execution configuration (batch size, flat
    indexes, sanitizer — :class:`~repro.core.execconfig.ExecConfig`)
    for the whole line-up, workers included; ``None`` keeps the
    caller's current one.  No value of it changes a report, only wall
    time.  The effective values are recorded as the ``batch.size`` /
    ``flat.index`` / ``sanitize.enabled`` gauges.

    ``shards > 0`` runs every algorithm scatter-gather over a
    :class:`~repro.shard.corpus.ShardedCorpus` partitioned at
    ``shard_level`` (default: :func:`~repro.shard.corpus.
    default_shard_level`); ``workers`` then fans *slots* (not
    algorithms) over the pool.  Merged reports are shard-count
    invariant — ``shards=1`` vs ``shards=N`` is a differential oracle
    — but intentionally differ from an unsharded run (each slot runs
    cold on a private bench; see :mod:`repro.shard.executor`).
    """
    if algorithms is None:
        if single_height is None:
            raise ValueError("pass algorithms or single_height")
        algorithms = make_lineup(single_height)
    check_pool_args(workers, parallel_mode)
    for name in algorithms:
        make_algorithm(name)  # reject unknown names before any work
    cfg = current() if exec is None else exec
    if metrics is not None:
        metrics.gauge("batch.size").set(float(cfg.batch_size))
        metrics.gauge("flat.index").set(1.0 if cfg.flat_index else 0.0)
        metrics.gauge("sanitize.enabled").set(1.0 if cfg.sanitize else 0.0)
    pooled = shards > 0 or workers > 1
    if pooled and isinstance(faults, FaultInjector):
        raise ValueError(
            "a live FaultInjector cannot be shipped to workers; pass its "
            "FaultConfig instead (each worker seeds a fresh injector, "
            "matching a serial run on a fresh bench)"
        )
    benches: list[BenchGauges] = []

    # Each mode yields (name, report) in line-up order and leaves the
    # final gauges of the benches it ran on in ``benches``.
    def serial() -> Iterator[tuple[str, JoinReport]]:
        bench = Workbench.create(
            buffer_pages, page_size, faults=faults, retry=retry
        )
        ancestors = materialize(
            bench.bufmgr, a_codes, tree_height, f"{dataset_name}.A"
        )
        descendants = materialize(
            bench.bufmgr, d_codes, tree_height, f"{dataset_name}.D"
        )
        for name in algorithms:
            algorithm = make_algorithm(name)
            sink = JoinSink("collect") if collect else None
            yield name, run_algorithm(
                algorithm, ancestors, descendants, sink, tracer=tracer
            )
        benches.append(bench_gauges(bench))

    def fanned() -> Iterator[tuple[str, JoinReport]]:
        # a line-up run is a one-slot cold join labelled by the dataset
        tasks = [
            SlotJoinTask(
                label=dataset_name,
                algorithm=name,
                a_codes=list(a_codes),
                d_codes=list(d_codes),
                tree_height=tree_height,
                buffer_pages=buffer_pages,
                page_size=page_size,
                collect=collect,
                faults=faults,  # type: ignore[arg-type]  # checked above
                retry=retry,
                traced=tracer is not None and tracer.enabled,
                exec=cfg,
            )
            for name in algorithms
        ]
        payloads = run_cold_joins(
            tasks,
            workers,
            parallel_mode,
            tracer,
            "parallel.fanout",
            tasks=len(tasks),
            workers=workers,
        )
        benches.extend(payloads)
        for task, payload in zip(tasks, payloads):
            yield task.algorithm, payload["report"]

    def sharded() -> Iterator[tuple[str, JoinReport]]:
        # the corpus is built once and reused across algorithms (slot
        # extraction happens per run, but its I/O is charged to the
        # corpus engines, not the reports — see the executor's contract)
        from ..shard.corpus import ShardedCorpus
        from ..shard.executor import ShardedJoinExecutor

        corpus = ShardedCorpus(
            tree_height, shards, level=shard_level, page_size=page_size
        )
        corpus.add_set("A", list(a_codes))
        corpus.add_set("D", list(d_codes))
        executor = ShardedJoinExecutor(
            corpus, workers=workers, parallel_mode=parallel_mode
        )
        for name in algorithms:
            report, _pairs = executor.run(
                name,
                "A",
                "D",
                dataset=dataset_name,
                buffer_pages=buffer_pages,
                page_size=page_size,
                collect=collect,
                faults=faults,
                retry=retry,
                tracer=tracer,
                exec=cfg,
            )
            benches.extend(executor.slot_benches)
            yield name, report

    runs = sharded() if shards > 0 else fanned() if workers > 1 else serial()
    lineup = LineupResult(dataset=dataset_name)
    with exec_scope(cfg):
        for name, report in runs:
            lineup.results.append(AlgorithmResult(name=name, report=report))
            if metrics is not None:
                metrics.record_report(report, dataset=dataset_name)
    if metrics is not None:
        _record_bench_gauges(metrics, benches)
    counts = {result.report.result_count for result in lineup.results}
    if len(counts) != 1:
        raise AssertionError(
            f"algorithms disagree on {dataset_name}: "
            + ", ".join(
                f"{r.name}={r.report.result_count}" for r in lineup.results
            )
        )
    lineup.result_count = counts.pop()
    return lineup


def _record_bench_gauges(
    metrics: MetricsRegistry, benches: Sequence[BenchGauges]
) -> None:
    """Sum the benches' final buffer/fault gauges into the registry.

    A serial line-up shares one bench; fanned out, each algorithm (or
    slot) ran on its own, so the line-up-level gauges are the sums, with
    the hit rate recomputed over the summed accesses.
    """
    buffer = {
        key: sum(bench["buffer"][key] for bench in benches)
        for key in ("hits", "misses", "resident", "pinned")
    }
    for key, value in buffer.items():
        metrics.gauge(f"buffer.{key}").set(value)
    accesses = buffer["hits"] + buffer["misses"]
    metrics.gauge("buffer.hit_rate").set(
        buffer["hits"] / accesses if accesses else 0.0
    )
    fault_stats = [b["fault_stats"] for b in benches if b["fault_stats"]]
    if fault_stats:
        faults = {
            key: sum(stats[key] for stats in fault_stats)
            for key in ("read_errors", "write_errors", "torn_reads", "latency_events")
        }
        # mirrors FaultStats.total_injected (scheduled faults are
        # already counted under their kind)
        metrics.gauge("faults.injected").set(sum(faults.values()))
        for key in ("read_errors", "write_errors", "torn_reads"):
            metrics.gauge(f"faults.{key}").set(faults[key])


_T = TypeVar("_T")


def timed(fn: Callable[..., _T], *args: Any, **kwargs: Any) -> tuple[float, _T]:
    """Small helper: (wall seconds, result)."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result
