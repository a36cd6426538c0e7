"""Shard scale-out: monolithic vs level-``l`` scatter-gather joins.

Not a figure from the paper — Section 3.4's observation that the VPJ
partitions "can be processed independently" is what
:mod:`repro.shard` scales out to storage shards, and this benchmark
validates the two contracts of that layer at benchmark scale:

* **exactness** — the merged JoinReport of a sharded run is identical
  field-for-field (modulo wall time) whether the slots are grouped
  into 1, 2 or 4 shards: the slot, not the shard, is the unit of
  accounting;
* **speed** — on an *unclustered* corpus (uniform draws over the full
  code space, the paper's 1M-elements-vs-500-pages regime scaled
  down) the monolithic multi-heap join overflows the buffer pool
  while the per-slot benches stay resident, so the 2-shard
  scatter-gather beats the monolithic run by well over the gated
  1.3x.

The ladder climbs by powers of four; ``REPRO_BENCH_MILLION=1``
unlocks the restored paper-scale rung with 1,000,000-element sets on
both sides (minutes of wall time — excluded from the default sweep).
Rows land in ``benchmarks/results/shard_scaling.txt`` and the
schema-valid ``benchmarks/results/BENCH_shard.json``.
"""

import dataclasses
import os
import random
import time

import pytest

from repro.core.pbitree import max_code
from repro.experiments.harness import run_lineup
from repro.obs.export import bench_summary, write_bench_summary
from repro.shard import ShardedCorpus, ShardedJoinExecutor

from .common import (
    DEFAULT_BUFFER_PAGES,
    DEFAULT_PAGE_SIZE,
    RESULTS_DIR,
    SEED,
    save_result,
    scale,
)

TREE_HEIGHT = 20
MILLION_HEIGHT = 24
MILLION_SIZE = 1_000_000
MILLION_LEVEL = 8
MILLION_ENV = "REPRO_BENCH_MILLION"
#: elements per slot the ladder aims for when picking the shard level
TARGET_SLOT_SIZE = 4_000
#: hard floor on the 2-shard speedup over the monolithic join
SHARD_MIN_SPEEDUP = 1.3
LADDER_STEPS = [1, 4, 16]
ALGORITHM = "MHCJ+Rollup"

ROWS = []
METRICS = {}
BENCH_ROWS = []


def base_size() -> int:
    return max(2_000, int(10_000 * scale()))


def ladder_level(size: int) -> int:
    """Shard level keeping slots near :data:`TARGET_SLOT_SIZE` codes."""
    return max(2, (size // TARGET_SLOT_SIZE).bit_length())


def unclustered_sets(size: int, height: int) -> tuple[list[int], list[int]]:
    """Uniform draws over the whole height-``height`` code space.

    Unclustered on purpose: every multi-heap partition stays hot, so
    the monolithic join's working set tracks the data size while each
    level-``l`` slot bench stays buffer-resident.
    """
    rng = random.Random(SEED)
    top = int(max_code(height))
    ancestors = sorted(rng.sample(range(1, top + 1), size))
    descendants = sorted(rng.sample(range(1, top + 1), size))
    return ancestors, descendants


def sharded_reports(
    dataset, a_codes, d_codes, height, algorithms, *, shards, level
):
    """Build a ``shards``-shard corpus and scatter-gather every algorithm
    over it serially; returns the merged reports and the wall time,
    corpus build included."""
    started = time.perf_counter()
    corpus = ShardedCorpus(height, shards, level=level, page_size=DEFAULT_PAGE_SIZE)
    corpus.add_set("A", a_codes)
    corpus.add_set("D", d_codes)
    executor = ShardedJoinExecutor(corpus, workers=1)
    reports = [
        executor.run(
            name,
            "A",
            "D",
            dataset=dataset,
            buffer_pages=DEFAULT_BUFFER_PAGES,
            page_size=DEFAULT_PAGE_SIZE,
        )[0]
        for name in algorithms
    ]
    return reports, time.perf_counter() - started


def run_sharded(a_codes, d_codes, height, *, shards, level):
    reports, wall = sharded_reports(
        "shard-sweep", a_codes, d_codes, height, [ALGORITHM],
        shards=shards, level=level,
    )
    return reports[0], wall


def normalize(report):
    return dataclasses.replace(report, wall_seconds=0.0, trace=None)


def test_shard_speedup(benchmark):
    """Monolithic vs 2-shard scatter-gather on the unclustered corpus."""
    size = 4 * base_size()
    level = ladder_level(size)
    a_codes, d_codes = unclustered_sets(size, TREE_HEIGHT)

    started = time.perf_counter()
    mono = run_lineup(
        "shard-sweep",
        a_codes,
        d_codes,
        TREE_HEIGHT,
        buffer_pages=DEFAULT_BUFFER_PAGES,
        page_size=DEFAULT_PAGE_SIZE,
        algorithms=[ALGORITHM],
    ).results[0].report
    mono_wall = time.perf_counter() - started

    sharded = {
        shards: run_sharded(
            a_codes, d_codes, TREE_HEIGHT, shards=shards, level=level
        )
        for shards in (1, 2, 4)
    }
    # the differential oracle at benchmark scale: shard grouping is
    # invisible to the merged accounting
    for shards in (2, 4):
        assert normalize(sharded[shards][0]) == normalize(sharded[1][0]), shards
    assert sharded[2][0].result_count == mono.result_count

    wall_2s = sharded[2][1]
    speedup = mono_wall / max(wall_2s, 1e-9)
    benchmark.pedantic(
        lambda: run_sharded(a_codes, d_codes, TREE_HEIGHT, shards=2, level=level),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info.update(
        {"size": size, "level": level, "speedup_2s": round(speedup, 2)}
    )
    METRICS.update(
        {
            "shard_speedup_size": size,
            "shard_speedup_level": level,
            "shard_mono_seconds": round(mono_wall, 6),
            "shard_2s_seconds": round(wall_2s, 6),
            "shards_wall_speedup": round(speedup, 3),
        }
    )
    BENCH_ROWS.append((f"{ALGORITHM}[mono]", f"U-{size}", mono))
    BENCH_ROWS.append((f"{ALGORITHM}[2 shards]", f"U-{size}", sharded[2][0]))
    ROWS.append(
        {
            "rung": "speedup",
            "size": size,
            "level": level,
            "shards": 2,
            "wall_ms": round(wall_2s * 1000, 1),
            "mono_ms": round(mono_wall * 1000, 1),
            "qps": round(1.0 / max(wall_2s, 1e-9), 2),
            "results": sharded[2][0].result_count,
        }
    )
    assert speedup > SHARD_MIN_SPEEDUP, (
        f"2-shard scatter-gather speedup {speedup:.2f}x is below the "
        f"{SHARD_MIN_SPEEDUP}x floor (mono {mono_wall:.2f}s vs {wall_2s:.2f}s)"
    )


@pytest.mark.parametrize("k", LADDER_STEPS)
def test_shard_scale_ladder(benchmark, k):
    """Sharded wall time and QPS climbing the unclustered ladder."""
    size = k * base_size()
    level = ladder_level(size)
    a_codes, d_codes = unclustered_sets(size, TREE_HEIGHT)

    report, wall = benchmark.pedantic(
        lambda: run_sharded(a_codes, d_codes, TREE_HEIGHT, shards=4, level=level),
        rounds=1,
        iterations=1,
    )
    qps = 1.0 / max(wall, 1e-9)
    codes_per_second = 2 * size / max(wall, 1e-9)
    benchmark.extra_info.update(
        {"size": size, "level": level, "qps": round(qps, 2)}
    )
    METRICS.update(
        {
            f"shard.n{size}.wall_seconds": round(wall, 6),
            f"shard.n{size}.qps": round(qps, 3),
            f"shard.n{size}.codes_per_second": round(codes_per_second, 1),
        }
    )
    BENCH_ROWS.append((f"{ALGORITHM}[4 shards]", f"U-{size}", report))
    ROWS.append(
        {
            "rung": f"{k}x",
            "size": size,
            "level": level,
            "shards": 4,
            "wall_ms": round(wall * 1000, 1),
            "mono_ms": "-",
            "qps": round(qps, 2),
            "results": report.result_count,
        }
    )


def test_million_element_sets(benchmark):
    """The restored paper-scale rung: 1M-element sets on both sides.

    Gated behind ``REPRO_BENCH_MILLION=1`` — minutes of wall time.
    The completion contract is the point: the scatter-gather must
    climb to the paper's data scale without the monolithic join's
    buffer-pool collapse, and MHCJ+Rollup and VPJ must agree on the
    result count.
    """
    if not os.environ.get(MILLION_ENV):
        pytest.skip(f"set {MILLION_ENV}=1 to run the 1M-element rung")
    a_codes, d_codes = unclustered_sets(MILLION_SIZE, MILLION_HEIGHT)

    algorithms = [ALGORITHM, "VPJ"]
    reports, wall = benchmark.pedantic(
        lambda: sharded_reports(
            "shard-1M", a_codes, d_codes, MILLION_HEIGHT, algorithms,
            shards=4, level=MILLION_LEVEL,
        ),
        rounds=1,
        iterations=1,
    )
    results = reports[0].result_count
    assert results > 0 and all(r.result_count == results for r in reports)
    benchmark.extra_info.update(
        {"size": MILLION_SIZE, "level": MILLION_LEVEL, "wall_s": round(wall, 1)}
    )
    METRICS.update(
        {
            "shard.million.wall_seconds": round(wall, 3),
            "shard.million.qps": round(2.0 / max(wall, 1e-9), 4),
            "shard.million.results": results,
        }
    )
    for name, report in zip(algorithms, reports):
        BENCH_ROWS.append((f"{name}[4 shards]", "U-1M", report))
    ROWS.append(
        {
            "rung": "1M",
            "size": MILLION_SIZE,
            "level": MILLION_LEVEL,
            "shards": 4,
            "wall_ms": round(wall * 1000, 1),
            "mono_ms": "-",
            "qps": round(2.0 / max(wall, 1e-9), 4),
            "results": results,
        }
    )


@pytest.fixture(scope="module", autouse=True)
def emit_table():
    yield
    if not ROWS:
        return
    header = list(ROWS[0])
    lines = ["\t".join(header)]
    lines += ["\t".join(str(row[key]) for key in header) for row in ROWS]
    save_result("shard_scaling", "\n".join(lines))
    summary = bench_summary("shard", BENCH_ROWS, metrics=METRICS)
    path = write_bench_summary(summary, RESULTS_DIR / "BENCH_shard.json")
    print(f"[saved to {path}]")
