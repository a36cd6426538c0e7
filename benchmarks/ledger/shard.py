"""``shard_scatter``: build, scatter and gather over a 2-shard corpus.

The corpus is ``perf_smoke.shard_section``'s unclustered one, driven by
the seed: uniform positions over a height-20 PBiTree (stratified by
height, see ``_unclustered_codes``), so level-``l`` slots are evenly
filled and no algorithm gets locality for free.
``ShardedJoinExecutor(workers=2, parallel_mode="process")`` forks a
fresh two-worker pool for every join — that start-up is part of what a
sharded query pays, so it is inside the timed trio.

The monolithic baseline (traced run only) runs the same three
algorithms on one 50-page pool and the *fastest* of them is the
denominator of ``shard.speedup_vs_best_mono`` — not MHCJ+Rollup, which
thrashes that pool on this corpus and flattered the old 14.7x / 8.3x.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter
from typing import Any

from repro.core.pbitree import g_code
from repro.experiments.harness import Workbench, make_algorithm, materialize, run_algorithm
from repro.obs.tracer import Tracer
from repro.parallel.pool import WorkerPool
from repro.parallel.tasks import SlotJoinTask, run_slot_join_task
from repro.shard.corpus import ShardedCorpus
from repro.shard.executor import ShardedJoinExecutor
from repro.workloads.synthetic import count_results

from .harness import Measurement, median
from .spans import SpanRecorder

__all__ = ["ShardWorkload", "SHARD_SCATTER"]

TREE_HEIGHT = 20
SET_SIZE = 20_000
SHARDS = 2
WORKERS = 2
BUFFER_PAGES = 50
PAGE_SIZE = 1024
ALGORITHMS = ("MHCJ+Rollup", "VPJ", "STACKTREE")
MIN_TRIOS = 3
PROBE_REPEATS = 3


@dataclass
class _State:
    a_codes: list[int]
    d_codes: list[int]
    corpus: ShardedCorpus
    executor: ShardedJoinExecutor
    build_s: float
    expected: int


def _unclustered_codes(rng: random.Random, size: int, slots: int) -> list[int]:
    """``size`` sorted codes, uniform in position, stratified by height.

    A plain uniform draw over the code space puts 0, 1 or 2 elements in
    each of the top levels.  The highest ancestor of a slot sets that
    slot's MHCJ+Rollup rollup height, and which slots the few top
    elements fall into sets the two-worker makespan: over ten seeds the
    sharded trio ran between 0.29 and 3.5 s.  Drawing each height's
    *expected* count (``size / 2^(h+1)``) at uniform positions, and
    stopping below the heights that would hold fewer than two elements
    per slot (0.1 % of a uniform draw), keeps the corpus unclustered and
    gives every seed the same height histogram and evenly loaded slots.
    """
    counts = [0] + [round(size / 2 ** (height + 1)) for height in range(1, TREE_HEIGHT)]
    counts = [count for count in counts if count == 0 or count >= 2 * slots]
    counts = counts[: counts.index(0, 1)]
    counts[0] = size - sum(counts)
    codes = []
    for height, count in enumerate(counts):
        level = TREE_HEIGHT - 1 - height
        codes += [
            int(g_code(alpha, level, TREE_HEIGHT))
            for alpha in rng.sample(range(1 << level), count)
        ]
    return sorted(codes)


def _pool_probe(task: int) -> int:
    return task


class ShardWorkload:
    name = "shard_scatter"

    def setup(self, seed: int, scale: float) -> _State:
        size = max(400, int(SET_SIZE * scale))
        rng = random.Random(seed)
        corpus = ShardedCorpus(TREE_HEIGHT, SHARDS, page_size=PAGE_SIZE)
        a_codes = _unclustered_codes(rng, size, corpus.num_slots)
        d_codes = _unclustered_codes(rng, size, corpus.num_slots)
        started = perf_counter()
        corpus.add_set("A", a_codes)
        corpus.add_set("D", d_codes)
        build_s = perf_counter() - started
        executor = ShardedJoinExecutor(corpus, workers=WORKERS, parallel_mode="process")
        return _State(
            a_codes, d_codes, corpus, executor, build_s, count_results(a_codes, d_codes)
        )

    def teardown(self, state: _State) -> None:
        pass  # every executor.run closes the pool it forked

    # -- the timed window -----------------------------------------------
    @staticmethod
    def _trio(
        executor: ShardedJoinExecutor, rec: SpanRecorder
    ) -> list[tuple[str, float, Any]]:
        joins = []
        for algorithm in ALGORITHMS:
            tracer = Tracer() if rec.enabled else None
            with rec.span(f"shard.join.{algorithm}", "shard") as span:
                started = perf_counter()
                report, _pairs = executor.run(
                    algorithm, "A", "D", dataset="U", buffer_pages=BUFFER_PAGES,
                    page_size=PAGE_SIZE, tracer=tracer,
                )
                wall = perf_counter() - started
            if span is not None and tracer is not None:
                for root in tracer.roots:  # slot spans from WORKERS processes
                    rec.adopt(span, root, scale=1.0 / WORKERS)
            joins.append((algorithm, wall, report))
        return joins

    def measure(self, state: _State, seconds: float, rec: SpanRecorder) -> Measurement:
        trios = []
        deadline = perf_counter() + seconds
        while len(trios) < MIN_TRIOS or perf_counter() < deadline:
            with rec.span("op", request=len(trios)):
                trios.append(self._trio(state.executor, rec))
        latencies = [sum(wall for _alg, wall, _report in trio) for trio in trios]
        window = Measurement(
            latencies=latencies,
            items=len(trios) * len(ALGORITHMS),
            wall=sum(latencies),
            pages_per_op=median(
                [sum(report.total_pages for _a, _w, report in trio) for trio in trios]
            ),
            rows=[(f"{alg}[{SHARDS} shards]", "U", report) for alg, _w, report in trios[-1]],
            detail={"trios": trios},
        )
        for trio in trios:
            for algorithm, _wall, report in trio:
                window.check(
                    report.result_count == state.expected,
                    f"sharded {algorithm}: {report.result_count} results, "
                    f"in-memory count says {state.expected}",
                )
        return window

    # -- per-layer probes -----------------------------------------------
    def layers(
        self, state: _State, rec: SpanRecorder, untraced: Measurement, traced: Measurement
    ) -> dict[str, float]:
        corpus = state.corpus
        codes = len(state.a_codes) + len(state.d_codes)
        sets: dict[str, dict[str, int]] = corpus.stats()["sets"]  # type: ignore[assignment]
        replicas = sum(entry["replicas"] for entry in sets.values())
        trios = untraced.detail["trios"]
        sharded_wall = {
            algorithm: median([trio[index][1] for trio in trios])
            for index, algorithm in enumerate(ALGORITHMS)
        }
        out = {
            "shard.build_s": state.build_s,
            "shard.build_codes_per_s": codes / state.build_s,
            "shard.build_pages_written": float(
                sum(store.disk.stats.writes for store in corpus.shards)
            ),
            "shard.replication_factor": (codes + replicas) / codes,
            "shard.scatter_gather_s": median(untraced.latencies),
        }

        # parallel: what forking the pool costs, and what the process
        # fan-out adds over running the identical slot tasks inline
        starts = []
        for _ in range(PROBE_REPEATS):
            with rec.span("parallel.pool_start", "parallel"):
                started = perf_counter()
                pool = WorkerPool(WORKERS, mode="process")
                try:
                    futures = [pool.submit(_pool_probe, n) for n in range(WORKERS)]
                    for n, future in enumerate(futures):
                        pool.resolve(future, _pool_probe, n)
                finally:
                    pool.close()
                starts.append(perf_counter() - started)
        out["parallel.pool_start_s"] = median(starts)
        inline = ShardedJoinExecutor(corpus, workers=WORKERS, parallel_mode="inline")
        inline_trios = [
            sum(wall for _alg, wall, _report in self._trio(inline, rec))
            for _ in range(PROBE_REPEATS)
        ]
        out["parallel.fanout_overhead_s"] = out["shard.scatter_gather_s"] - median(inline_trios)

        # shard: per-slot walls (each slot task run alone, inline) give
        # the skew and the floor a two-worker schedule cannot beat
        slot_wall = [0.0] * corpus.num_slots
        floor = 0.0
        for algorithm in ALGORITHMS:
            busy = [0.0] * WORKERS
            for slot in range(corpus.num_slots):
                a_codes = corpus.slot_ancestor_codes("A", slot)
                d_codes = corpus.slot_descendant_codes("D", slot)
                if not a_codes or not d_codes:
                    continue
                task = SlotJoinTask(
                    label=f"U.slot{slot:03d}", algorithm=algorithm, a_codes=a_codes,
                    d_codes=d_codes, tree_height=TREE_HEIGHT, buffer_pages=BUFFER_PAGES,
                    page_size=PAGE_SIZE, collect=False, faults=None, retry=None,
                    traced=False,
                )
                with rec.span(f"shard.slot.{algorithm}", "shard"):
                    started = perf_counter()
                    run_slot_join_task(task)
                    wall = perf_counter() - started
                slot_wall[slot] += wall
                # tasks are handed out in slot order to whichever
                # worker frees up first
                busy[busy.index(min(busy))] += wall
            floor += max(busy)
        active = [wall for wall in slot_wall if wall > 0.0]
        out["shard.slot_skew"] = max(active) / (sum(active) / len(active))
        out["shard.gather_overhead_s"] = out["shard.scatter_gather_s"] - floor

        # the monolithic baseline: same algorithms, one 50-page pool
        bench = Workbench.create(BUFFER_PAGES, PAGE_SIZE)
        ancestors = materialize(bench.bufmgr, state.a_codes, TREE_HEIGHT, "U.A")
        descendants = materialize(bench.bufmgr, state.d_codes, TREE_HEIGHT, "U.D")
        def monolithic(algorithm: str) -> float:
            with rec.span(f"join.mono.{algorithm}", "join"):
                started = perf_counter()
                report = run_algorithm(make_algorithm(algorithm), ancestors, descendants)
                wall = perf_counter() - started
            traced.check(
                report.result_count == state.expected,
                f"monolithic {algorithm}: {report.result_count} results",
            )
            return wall

        mono_wall = {algorithm: monolithic(algorithm) for algorithm in ALGORITHMS}
        best = min(mono_wall, key=mono_wall.__getitem__)
        best_wall = median(
            [mono_wall[best]] + [monolithic(best) for _ in range(PROBE_REPEATS - 1)]
        )
        out["shard.speedup_vs_best_mono"] = best_wall / min(sharded_wall.values())
        return out


SHARD_SCATTER = ShardWorkload()
