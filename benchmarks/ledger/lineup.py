"""``lineup_ll`` / ``lineup_ls``: the paper's cold algorithm line-up.

Both run Figure 6(a)/(b)'s five algorithms over two ``syn.generate``
datasets on a 50-page x 1 KiB pool, every algorithm cold, its own
sort / index build included.  They differ in what the data does to the
pool: on ``lineup_ll`` both sides are several times the pool, so scans,
run formation and partition writes dominate; on ``lineup_ls`` one side
is 4 pages, so index probes, skipping and purging decide the time.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any

from repro.core import batch, pbitree
from repro.experiments.harness import (
    Workbench, make_algorithm, make_lineup, materialize, run_algorithm,
)
from repro.join.inljn import build_interval_index, build_start_index
from repro.join.planner import choose_algorithm
from repro.obs.tracer import Tracer
from repro.sort.external_sort import external_sort_set
from repro.storage.elementset import ElementSet
from repro.workloads import synthetic as syn

from .harness import Measurement, median
from .spans import SpanRecorder

__all__ = ["LineupWorkload", "LINEUP_LL", "LINEUP_LS"]

BUFFER_PAGES = 50
PAGE_SIZE = 1024
#: passes measured even when one pass outlasts the window
MIN_PASSES = 3
PROBES = 500
KERNEL_REPEATS = 5


def metric_name(algorithm: str) -> str:
    """``+`` is not a legal metric-name character."""
    return algorithm.replace("+Rollup", "-Rollup").replace("+", "")


@dataclass
class _Loaded:
    dataset: syn.SyntheticDataset
    ancestors: ElementSet
    descendants: ElementSet

    @property
    def lineup(self) -> list[str]:
        return make_lineup(single_height=not self.dataset.spec.multi_height)


@dataclass
class _State:
    bench: Workbench
    loaded: list[_Loaded]


@dataclass
class _Join:
    dataset: str
    algorithm: str
    wall: float
    report: Any
    #: engine-reported prepare / total wall (traced passes only)
    prepare_wall: float = 0.0
    engine_wall: float = 0.0


class LineupWorkload:
    def __init__(self, name: str, datasets: tuple[str, ...], large: int, small: int):
        self.name = name
        self.datasets = datasets
        self.large = large
        self.small = small

    # -- set-up ---------------------------------------------------------
    def setup(self, seed: int, scale: float) -> _State:
        large = max(200, int(self.large * scale))
        small = max(20, int(self.small * scale))
        bench = Workbench.create(BUFFER_PAGES, PAGE_SIZE)
        loaded = []
        for name in self.datasets:
            dataset = syn.generate(syn.spec_by_name(name, large, small), seed=seed)
            height = dataset.tree_height
            loaded.append(_Loaded(
                dataset,
                materialize(bench.bufmgr, dataset.a_codes, height, f"{name}.A"),
                materialize(bench.bufmgr, dataset.d_codes, height, f"{name}.D"),
            ))
        return _State(bench, loaded)

    def teardown(self, state: _State) -> None:
        pass  # the in-memory disk goes with the state

    # -- the timed window -----------------------------------------------
    def _pass(self, state: _State, rec: SpanRecorder) -> list[_Join]:
        joins = []
        for item in state.loaded:
            for algorithm in item.lineup:
                tracer = Tracer() if rec.enabled else None
                with rec.span(f"join.{algorithm}", "join") as span:
                    started = perf_counter()
                    report = run_algorithm(
                        make_algorithm(algorithm), item.ancestors,
                        item.descendants, tracer=tracer,
                    )
                    wall = perf_counter() - started
                join = _Join(item.dataset.name, algorithm, wall, report)
                if span is not None:
                    rec.adopt(span, report.trace)
                    join.engine_wall = report.trace.wall_seconds
                    join.prepare_wall = report.trace.find("prepare").wall_seconds
                joins.append(join)
        return joins

    def measure(self, state: _State, seconds: float, rec: SpanRecorder) -> Measurement:
        passes: list[list[_Join]] = []
        deadline = perf_counter() + seconds
        while len(passes) < MIN_PASSES or perf_counter() < deadline:
            with rec.span("op", request=len(passes)):
                passes.append(self._pass(state, rec))
        latencies = [sum(join.wall for join in one) for one in passes]
        window = Measurement(
            latencies=latencies,
            items=sum(len(one) for one in passes),
            wall=sum(latencies),
            pages_per_op=median(
                [sum(join.report.total_pages for join in one) for one in passes]
            ),
            rows=[(join.algorithm, join.dataset, join.report) for join in passes[-1]],
            detail={"passes": passes},
        )
        expected = {item.dataset.name: item.dataset.num_results for item in state.loaded}
        for one in passes:
            for join in one:
                window.check(
                    join.report.result_count == expected[join.dataset],
                    f"{join.algorithm} on {join.dataset}: {join.report.result_count} "
                    f"results, expected {expected[join.dataset]}",
                )
        return window

    # -- per-layer probes -----------------------------------------------
    def layers(
        self, state: _State, rec: SpanRecorder, untraced: Measurement, traced: Measurement
    ) -> dict[str, float]:
        out: dict[str, float] = {}
        bufmgr = state.bench.bufmgr
        stats = bufmgr.disk.stats
        first = state.loaded[0]
        codes = first.dataset.d_codes

        # core: the code-algebra kernels over the D set
        def kernel(name: str, fn) -> None:
            times = []
            for _ in range(KERNEL_REPEATS):
                with rec.span(f"core.{name}", "core"):
                    started = perf_counter()
                    fn(codes)
                    times.append(perf_counter() - started)
            out[f"core.{name}_mcodes_per_s"] = len(codes) / median(times) / 1e6

        a_height = min(first.dataset.spec.a_heights)
        kernel("rollup", lambda batch_codes: batch.rollup(batch_codes, a_height))
        kernel("region", batch.regions)
        kernel("doc_order", batch.doc_order_keys)

        # storage: bulk write of a fresh set, cold scan of an existing one
        with rec.span("storage.materialize", "storage"):
            started = perf_counter()
            copy = materialize(bufmgr, codes, first.dataset.tree_height, "probe.D")
            wall = perf_counter() - started
        out["storage.write_pages_per_s"] = copy.num_pages / wall
        copy.destroy()
        bufmgr.flush_all()
        bufmgr.evict_all()
        with rec.span("storage.scan", "storage"):
            started = perf_counter()
            scanned = sum(len(page) for page in first.descendants.scan_code_arrays())
            wall = perf_counter() - started
        traced.check(scanned == len(codes), f"cold scan saw {scanned} of {len(codes)} codes")
        out["storage.scan_pages_per_s"] = first.descendants.num_pages / wall
        reports = [join.report for join in untraced.detail["passes"][-1]]
        hits = sum(r.buffer_hits for r in reports)
        misses = sum(r.buffer_misses for r in reports)
        reads = sum(r.total_io.reads for r in reports)
        out["storage.buffer_hit_rate"] = hits / (hits + misses)
        out["storage.random_read_share"] = (
            sum(r.total_io.random_reads for r in reports) / reads
        )

        # sort: external sort of both sides into document order
        sort_wall = 0.0
        sort_pages = 0
        for elements in (first.ancestors, first.descendants):
            bufmgr.flush_all()
            bufmgr.evict_all()
            before = stats.snapshot()
            with rec.span("sort.external_sort", "sort"):
                started = perf_counter()
                ordered = external_sort_set(elements)
                sort_wall += perf_counter() - started
            sort_pages += stats.delta(before).total
            ordered.destroy()
        out["sort.external_sort_s"] = sort_wall
        out["sort.pages_per_input_page"] = sort_pages / (
            first.ancestors.num_pages + first.descendants.num_pages
        )

        # index: build on the large side, probe from the (small) other side
        by_d = max(state.loaded, key=lambda item: len(item.descendants))
        by_a = max(state.loaded, key=lambda item: len(item.ancestors))
        with rec.span("index.bptree_build", "index"):
            started = perf_counter()
            start_index = build_start_index(by_d.descendants, bufmgr)
            out["index.bptree_build_s"] = perf_counter() - started
        with rec.span("index.interval_build", "index"):
            started = perf_counter()
            stab_index = build_interval_index(by_a.ancestors, bufmgr)
            out["index.interval_build_s"] = perf_counter() - started
        bufmgr.flush_all()
        bufmgr.evict_all()
        before = stats.snapshot()
        range_from = by_d.dataset.a_codes[:PROBES]
        with rec.span("index.range_probes", "index"):
            started = perf_counter()
            for code in range_from:
                lo, hi = pbitree.region_of(code)
                for _entry in start_index.range_scan(lo, hi):
                    pass
            out["index.range_probe_us"] = (perf_counter() - started) / len(range_from) * 1e6
        stab_from = by_a.dataset.d_codes[:PROBES]
        with rec.span("index.stab_probes", "index"):
            started = perf_counter()
            for code in stab_from:
                for _interval in stab_index.stab(pbitree.start_of(code)):
                    pass
            out["index.stab_probe_us"] = (perf_counter() - started) / len(stab_from) * 1e6
        out["index.pages_per_probe"] = stats.delta(before).reads / (
            len(range_from) + len(stab_from)
        )

        # join: per-algorithm medians over the untraced passes, phase
        # split from the engine's own spans in the traced passes
        walls: dict[tuple[str, str], list[float]] = {}
        for one in untraced.detail["passes"]:
            for join in one:
                walls.setdefault((join.dataset, join.algorithm), []).append(join.wall)
        median_wall = {key: median(values) for key, values in walls.items()}
        last = untraced.detail["passes"][-1]
        traced_joins = [join for one in traced.detail["passes"] for join in one]
        for algorithm in {join.algorithm for join in last}:
            key = f"join.{metric_name(algorithm)}"
            out[f"{key}.wall_s"] = sum(
                wall for (_ds, alg), wall in median_wall.items() if alg == algorithm
            )
            out[f"{key}.pages"] = sum(
                join.report.total_pages for join in last if join.algorithm == algorithm
            )
            mine = [join for join in traced_joins if join.algorithm == algorithm]
            out[f"{key}.prep_share"] = (
                sum(join.prepare_wall for join in mine)
                / sum(join.engine_wall for join in mine)
            )
        vpj = [join.report.total_io for join in last if join.algorithm == "VPJ"]
        out["join.vpj_write_share"] = (
            sum(io.writes for io in vpj) / sum(io.total for io in vpj)
        )
        out["join.lineup_s"] = median(untraced.latencies)
        out["join.pages_per_lineup"] = untraced.pages_per_op
        out["join.best_join_s"] = sum(
            min(wall for (ds, _alg), wall in median_wall.items() if ds == item.dataset.name)
            for item in state.loaded
        )

        # planner: Table 1's pick on the unsorted, unindexed inputs
        plan_us = 0.0
        planned_s = 0.0
        for item in state.loaded:
            plans = []
            runs = []
            for _ in range(KERNEL_REPEATS):
                with rec.span("join.plan", "join"):
                    started = perf_counter()
                    algorithm = choose_algorithm(item.ancestors, item.descendants)
                    plans.append(perf_counter() - started)
                with rec.span(f"join.planned.{algorithm.name}", "join"):
                    started = perf_counter()
                    report = run_algorithm(algorithm, item.ancestors, item.descendants)
                    runs.append(perf_counter() - started)
                traced.check(
                    report.result_count == item.dataset.num_results,
                    f"planned {algorithm.name} on {item.dataset.name}: "
                    f"{report.result_count} results",
                )
            plan_us += median(plans) * 1e6
            planned_s += median(plans) + median(runs)
        out["join.plan_us"] = plan_us
        out["join.planned_join_s"] = planned_s
        out["join.planner_regret"] = planned_s / out["join.best_join_s"]
        return out


LINEUP_LL = LineupWorkload("lineup_ll", ("SLLH", "MLLH"), large=25_000, small=250)
LINEUP_LS = LineupWorkload("lineup_ls", ("MLSH", "MSLH"), large=50_000, small=500)
