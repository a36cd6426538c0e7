"""Names, units and bounds: the single source ``BENCHMARK.json`` is made from.

``python -m benchmarks.ledger manifest`` prints the manifest built
here; ``test_ledger.py`` pins the committed ``BENCHMARK.json`` to it.

Every end-to-end metric is emitted by every workload (the driver
compares each against its bound per workload).  A per-layer metric
belongs to the workloads whose run calls that layer; on the others the
layer does no work and the contract line reports 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "ROOT", "LEDGER_DIR", "COMMAND", "RUN_SECONDS", "WORKLOADS", "END_TO_END",
    "PER_LAYER", "Metric", "manifest", "layer_metrics_of", "UNITS",
]

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]

COMMAND = ["python3", "benchmarks/ledger/run.py"]
RUN_SECONDS = 12

LL, LS, SV, UP, SH = (
    "lineup_ll", "lineup_ls", "service_closed", "update_mix", "shard_scatter"
)
LINEUPS = (LL, LS)
EVERY = (LL, LS, SV, UP, SH)

#: name -> why (one line each; the README has the long form)
WORKLOADS = {
    LL: "data >> 50-page pool on both sides: storage scans/writes, sort and "
        "hash/partition phases decide the time; planner and service do none",
    LS: "small side fits the pool: index probes, skipping and purge/rollup "
        "decide the time; a scan/sort gain must show on lineup_ll and not here",
    SV: "closed loop, 2 TCP clients, warm plan cache: wire, admission, prepare "
        "and rollup plans (~100s of false hits per result) do the work, storage little",
    UP: "70/30 insert/delete storm with a draining query every 16 updates: "
        "docstore patches, B+-tree maintenance and relabels beside reads",
    SH: "unclustered 2-shard corpus, process fan-out: shard build, scatter, "
        "gather and pool start do the work; baseline is the best monolithic join",
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: end-to-end: allowed worsening as a share of the parent's median
    bound: float = 0.0
    #: per-layer: the workloads whose run exercises the layer
    workloads: tuple[str, ...] = EVERY


END_TO_END = [
    # several set-ups per run, median reported; the contract gives it the widest bound
    Metric("setup_s", "s", "lower", 0.25),
    # median wall of the workload's unit of work: one cold line-up pass /
    # one client's sweep of the five-path mix / one five-round update
    # sweep (80 updates, 5 draining queries) / one sharded join trio
    Metric("op_p50_ms", "ms", "lower", 0.20),
    # joins, ok replies, updates or sharded joins completed per second of timed wall
    Metric("throughput_per_s", "1/s", "higher", 0.25),
    # page transfers (reads + writes) per unit of work: the paper's metric;
    # repeats exactly for a seed, the bound covers what the seed moves
    Metric("pages_per_op", "pages", "lower", 0.15),
    Metric("peak_rss_mb", "MiB", "lower", 0.15),
]

_ALGORITHMS = ("INLJN", "STACKTREE", "ADB", "SHCJ", "MHCJ-Rollup", "VPJ")


def _layer(name: str, unit: str, better: str, *workloads: str) -> Metric:
    return Metric(name, unit, better, workloads=workloads or EVERY)


PER_LAYER = [
    # -- core ---------------------------------------------------------
    _layer("core.rollup_mcodes_per_s", "Mcodes/s", "higher", *LINEUPS),
    _layer("core.region_mcodes_per_s", "Mcodes/s", "higher", *LINEUPS),
    _layer("core.doc_order_mcodes_per_s", "Mcodes/s", "higher", *LINEUPS),
    _layer("core.encode_us_per_node", "us", "lower", SV, UP),
    _layer("core.update_p50_us", "us", "lower", UP),
    # -- storage ------------------------------------------------------
    _layer("storage.write_pages_per_s", "pages/s", "higher", *LINEUPS),
    _layer("storage.scan_pages_per_s", "pages/s", "higher", *LINEUPS),
    _layer("storage.buffer_hit_rate", "ratio", "higher", *LINEUPS),
    _layer("storage.random_read_share", "ratio", "lower", *LINEUPS),
    _layer("storage.patch_us_per_record", "us", "lower", UP),
    _layer("storage.flush_pages_written", "pages", "lower", UP),
    _layer("storage.pages_written_per_update", "pages", "lower", UP),
    # -- sort ---------------------------------------------------------
    _layer("sort.external_sort_s", "s", "lower", *LINEUPS),
    _layer("sort.pages_per_input_page", "ratio", "lower", *LINEUPS),
    # -- index --------------------------------------------------------
    _layer("index.bptree_build_s", "s", "lower", *LINEUPS),
    _layer("index.interval_build_s", "s", "lower", *LINEUPS),
    _layer("index.range_probe_us", "us", "lower", *LINEUPS),
    _layer("index.stab_probe_us", "us", "lower", *LINEUPS),
    _layer("index.pages_per_probe", "pages", "lower", *LINEUPS),
    _layer("index.maintain_us_per_update", "us", "lower", UP),
    # -- join ---------------------------------------------------------
    *(
        _layer(f"join.{alg}.{field}", unit, "lower", *((LL,) if alg == "SHCJ" else LINEUPS))
        for alg in _ALGORITHMS
        for field, unit in (("wall_s", "s"), ("pages", "pages"), ("prep_share", "ratio"))
    ),
    _layer("join.vpj_write_share", "ratio", "lower", *LINEUPS),
    _layer("join.plan_us", "us", "lower", *LINEUPS),
    _layer("join.planner_regret", "ratio", "lower", *LINEUPS),
    _layer("join.lineup_s", "s", "lower", *LINEUPS),
    _layer("join.best_join_s", "s", "lower", *LINEUPS),
    _layer("join.planned_join_s", "s", "lower", *LINEUPS),
    _layer("join.pages_per_lineup", "pages", "lower", *LINEUPS),
    _layer("join.false_hits_per_result", "ratio", "lower", SV),
    _layer("join.pages_per_query", "pages", "lower", SV),
    # -- db -----------------------------------------------------------
    _layer("db.query_ms", "ms", "lower", SV),
    _layer("db.read_after_write_p50_ms", "ms", "lower", UP),
    # -- service ------------------------------------------------------
    _layer("service.query_p50_ms", "ms", "lower", SV),
    _layer("service.query_p90_ms", "ms", "lower", SV),
    _layer("service.qps", "1/s", "higher", SV),
    _layer("service.inproc_p50_ms", "ms", "lower", SV),
    _layer("service.wire_overhead_ms", "ms", "lower", SV),
    _layer("service.contention_ms", "ms", "lower", SV),
    _layer("service.cold_plan_ms", "ms", "lower", SV),
    _layer("service.plan_cache_hit_rate", "ratio", "higher", SV),
    _layer("service.rejected_share", "ratio", "lower", SV),
    _layer("service.reply_bytes_per_query", "B", "lower", SV),
    # -- parallel -----------------------------------------------------
    _layer("parallel.pool_start_s", "s", "lower", SH),
    _layer("parallel.fanout_overhead_s", "s", "lower", SH),
    # -- shard --------------------------------------------------------
    _layer("shard.build_s", "s", "lower", SH),
    _layer("shard.scatter_gather_s", "s", "lower", SH),
    _layer("shard.build_codes_per_s", "codes/s", "higher", SH),
    _layer("shard.build_pages_written", "pages", "lower", SH),
    _layer("shard.replication_factor", "ratio", "lower", SH),
    _layer("shard.slot_skew", "ratio", "lower", SH),
    _layer("shard.gather_overhead_s", "s", "lower", SH),
    _layer("shard.speedup_vs_best_mono", "ratio", "higher", SH),
    # -- the traced run itself ---------------------------------------
    _layer("trace.untraced_share", "ratio", "lower"),
    _layer("trace.overhead_share", "ratio", "lower"),
]

UNITS = {metric.name: metric.unit for metric in END_TO_END + PER_LAYER}


def layer_metrics_of(workload: str) -> list[str]:
    return [metric.name for metric in PER_LAYER if workload in metric.workloads]


def manifest() -> dict[str, object]:
    """The ``BENCHMARK.json`` object."""
    return {
        "command": COMMAND,
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
