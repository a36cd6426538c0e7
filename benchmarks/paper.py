"""The paper's Section 4 as one table: every Table 2 / Figure 6 experiment.

An :class:`Experiment` names its points (label -> codes, tree height,
buffer pages), its line-up class, the tables each of its result files
holds, and the paper's shape as a check over its rows.  :func:`run` is
the one driver (every point's line-up, then the per-point result
counts) and :func:`write` the one writer.  ``benchmarks/bench_paper.py``
runs them under pytest-benchmark and asserts the shape before writing;
``scripts/run_experiments.py`` runs the same table without pytest.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.core.binarize import binarize
from repro.datatree.paths import select_by_tag
from repro.experiments.figures import render_series
from repro.experiments.harness import LineupResult, run_lineup
from repro.experiments.report import format_ratio, format_table
from repro.storage import CODE
from repro.storage.page import page_capacity
from repro.workloads import dblp, synthetic as syn, xmark

from .common import (
    DEFAULT_BUFFER_PAGES, DEFAULT_PAGE_SIZE, PAPER_BASE_UNIT, RESULTS_DIR, SEED,
    large_size, paper_sizes, save_result, small_size,
)

MIN_RGN = "MIN_RGN"
ROLLUP = "MHCJ+Rollup"


@dataclass(frozen=True)
class Point:
    """One line-up of an experiment."""

    label: str
    a_codes: Sequence[int]
    d_codes: Sequence[int]
    tree_height: int
    buffer_pages: int = DEFAULT_BUFFER_PAGES
    #: the generator's exact result count, when it knows one
    results: int | None = None
    #: the inputs' statistics (set sizes, tags, height counts)
    stats: dict[str, Any] = field(default_factory=dict)


Row = tuple[Point, LineupResult]
Getter = Callable[[Point, LineupResult], object]
Job = Callable[[], list[LineupResult]]


@dataclass(frozen=True)
class Table:
    """One row per point: its label under ``key``, then ``columns``."""

    title: str
    key: str
    columns: tuple[tuple[str, Getter], ...]

    def render(self, rows: list[Row]) -> str:
        return format_table(
            [self.key, *(header for header, _get in self.columns)],
            [[row[0].label, *(get(*row) for _header, get in self.columns)]
             for row in rows],
            title=self.title,
        )


@dataclass(frozen=True)
class Chart:
    """Page-I/O series as ASCII bars, one group per point."""

    title: str
    series: tuple[tuple[str, Getter], ...]

    def render(self, rows: list[Row]) -> str:
        return render_series(
            [point.label for point, _lineup in rows],
            {name: [get(*row) for row in rows] for name, get in self.series},
            title=self.title,
        )


@dataclass(frozen=True)
class Experiment:
    key: str
    points: Callable[[float], list[Point]]  # scale -> points
    single_height: bool
    files: dict[str, tuple[Table | Chart, ...]]  # result file -> blocks
    check: Callable[[list[Row]], None]  # the paper's shape


def run(
    experiment: Experiment,
    scale: float,
    measure: Callable[[Job], list[LineupResult]] = lambda job: job(),
) -> list[Row]:
    """Every point's line-up, as one job handed to ``measure``, then
    each point's result count against its generator's."""
    points = experiment.points(scale)
    lineups = measure(lambda: [
        run_lineup(
            point.label, point.a_codes, point.d_codes, point.tree_height,
            buffer_pages=point.buffer_pages, page_size=DEFAULT_PAGE_SIZE,
            single_height=experiment.single_height,
        )
        for point in points
    ])
    for point, lineup in zip(points, lineups):
        assert point.results in (None, lineup.result_count), (
            point.label, point.results, lineup.result_count
        )
    return list(zip(points, lineups))


def write(
    experiment: Experiment, rows: list[Row], directory: Path = RESULTS_DIR
) -> dict[str, str]:
    """Render every result file of ``experiment`` and save it."""
    texts = {
        name: "\n\n".join(block.render(rows) for block in blocks)
        for name, blocks in experiment.files.items()
    }
    for name, text in texts.items():
        save_result(name, text, directory)
    return texts


# -- points --------------------------------------------------------------

SINGLE = ("SLLH", "SLSH", "SSLH", "SSSH", "SLLL", "SLSL", "SSLL", "SSSL")
MULTI = tuple("M" + name[1:] for name in SINGLE)
#: relative buffer sizes P, percent of the smaller set's pages
SWEEP = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0)


def synthetic_point(spec: syn.SyntheticSpec, label: str = "") -> Point:
    data = syn.generate(spec, seed=SEED)
    return Point(
        label or spec.name, data.a_codes, data.d_codes, data.tree_height,
        results=data.num_results,
        stats={"|A|": spec.a_size, "|D|": spec.d_size,
               "H_A": len(spec.a_heights), "H_D": len(spec.d_heights),
               "results/|D|": data.num_results / spec.d_size},
    )


def datasets(names: Sequence[str], scale: float) -> list[Point]:
    """The named Table 2 datasets, Large/Small scaled."""
    return [
        synthetic_point(syn.spec_by_name(
            name, large=large_size(scale), small=small_size(scale)
        ))
        for name in names
    ]


def document_joins(tree, joins) -> list[Point]:
    height = binarize(tree).tree_height
    points = []
    for join in joins:
        a_codes = select_by_tag(tree, join.anc_tag)
        d_codes = select_by_tag(tree, join.desc_tag)
        points.append(Point(
            join.name, a_codes, d_codes, height,
            stats={"A": f"//{join.anc_tag}", "|A|": len(a_codes),
                   "D": f"//{join.desc_tag}", "|D|": len(d_codes)},
        ))
    return points


def xmark_joins(scale: float) -> list[Point]:
    tree = xmark.generate_tree(scale=2.0 * scale, seed=SEED)
    return document_joins(tree, xmark.XMARK_JOINS)


def dblp_joins(scale: float) -> list[Point]:
    publications = max(2000, int(20_000 * scale))
    tree = dblp.generate_tree(num_publications=publications, seed=SEED)
    return document_joins(tree, dblp.DBLP_JOINS)


def pages_of_smaller(point: Point) -> int:
    """Pages of the smaller input at the storage engine's codes per page."""
    per_page = page_capacity(DEFAULT_PAGE_SIZE, CODE.record_size)
    return -(-min(len(point.a_codes), len(point.d_codes)) // per_page)


def buffer_sweep(name: str, scale: float) -> list[Point]:
    (base,) = datasets([name], scale)
    smaller = pages_of_smaller(base)
    return [
        dataclasses.replace(
            base, label=f"{percent}%", buffer_pages=max(3, int(smaller * percent / 100))
        )
        for percent in SWEEP
    ]


def scalability(single: bool, scale: float) -> list[Point]:
    """Sizes k*B, k = 1..8 (``REPRO_BENCH_PAPER_SIZES=1``: the paper's B)."""
    base = PAPER_BASE_UNIT if paper_sizes() else max(500, int(6_000 * scale))
    return [
        synthetic_point(syn.SyntheticSpec(
            name=f"{'S' if single else 'M'}-{k}B",
            a_size=k * base, d_size=k * base,
            a_heights=(6,) if single else (8, 9, 10),
            d_heights=(2,) if single else tuple(range(1, 8)),
            match_fraction=syn.LOW_MATCH_FRACTION,
        ), label=f"{k}B")
        for k in range(1, 9)
    ]


# -- columns -------------------------------------------------------------


def results(point: Point, lineup: LineupResult) -> object:
    return lineup.result_count


def buffer_pages(point: Point, lineup: LineupResult) -> object:
    return point.buffer_pages


def false_hits(point: Point, lineup: LineupResult) -> object:
    return lineup.by_name(ROLLUP).report.false_hits


def stat(name: str) -> Getter:
    return lambda point, lineup: point.stats[name]


def pages(lineup: LineupResult, algorithm: str) -> int:
    if algorithm == MIN_RGN:
        return lineup.min_rgn_io
    return lineup.by_name(algorithm).total_io


def io(algorithm: str) -> Getter:
    return lambda point, lineup: pages(lineup, algorithm)


def wall(algorithm: str) -> Getter:
    def get(point: Point, lineup: LineupResult) -> object:
        if algorithm == MIN_RGN:
            return f"{lineup.min_rgn_seconds:.3f}s"
        return f"{lineup.by_name(algorithm).wall_seconds:.3f}s"

    return get


def impr(algorithm: str) -> Getter:
    return lambda point, lineup: format_ratio(lineup.improvement_ratio(algorithm))


def io_columns(partitioned: str) -> tuple[tuple[str, Getter], ...]:
    short = partitioned.removeprefix("MHCJ+")
    return (
        ("MIN_RGN io", io(MIN_RGN)), (f"{short} io", io(partitioned)),
        ("VPJ io", io("VPJ")),
    )


ROLLUP_RATIOS = (
    *io_columns(ROLLUP), ("Rollup impr", impr(ROLLUP)), ("VPJ impr", impr("VPJ"))
)
SERIES = (("MIN_RGN", io(MIN_RGN)), ("SHCJ", io("SHCJ")), ("VPJ", io("VPJ")))


def join_tables(figure: str, corpus: str) -> tuple[Table, Table]:
    return (
        Table(f"Table 2({figure}): {corpus} dataset statistics", "Join", (
            ("A", stat("A")), ("|A|", stat("|A|")), ("D", stat("D")),
            ("|D|", stat("|D|")), ("#results", results),
        )),
        Table(f"Figure 6({figure}): improvement ratios, {corpus} joins", "Join",
              ROLLUP_RATIOS),
    )


# -- the paper's shapes ----------------------------------------------------


def synthetic_shape(partitioned: str, rows: list[Row]) -> None:
    """The partitioning joins never lose to MIN_RGN by more than noise
    and win big where one set is large and the other small (paper:
    >95% / up to 30x)."""
    for point, lineup in rows:
        assert len(point.a_codes) == point.stats["|A|"], point.label
        assert len(point.d_codes) == point.stats["|D|"], point.label
        ours = lineup.improvement_ratio(partitioned)
        vpj = lineup.improvement_ratio("VPJ")
        assert ours >= -0.05 and vpj >= -0.05, (point.label, ours, vpj)
        if point.label[1] != point.label[2]:
            assert ours > 0.5 and vpj > 0.5, (point.label, ours, vpj)


def fig6a_shape(rows: list[Row]) -> None:
    synthetic_shape("SHCJ", rows)
    for point, lineup in rows:
        # "SHCJ and VPJ perform similarly"
        shcj, vpj = pages(lineup, "SHCJ"), pages(lineup, "VPJ")
        assert min(shcj, vpj) > 0, point.label
        assert max(shcj, vpj) / min(shcj, vpj) < 2.5, point.label


def fig6b_shape(rows: list[Row]) -> None:
    synthetic_shape(ROLLUP, rows)
    for point, _lineup in rows:
        heights = (point.stats["H_A"], point.stats["H_D"])
        assert heights == syn._TABLE_2B_HEIGHTS[point.label], point.label


def document_shape(rows: list[Row]) -> dict[str, Row]:
    """The partitioning joins must not lose noticeably on any join."""
    for point, lineup in rows:
        assert point.a_codes and point.d_codes, point.label
        for algorithm in (ROLLUP, "VPJ"):
            ratio = lineup.improvement_ratio(algorithm)
            assert ratio >= -0.10, (point.label, algorithm, ratio)
    return {point.label: (point, lineup) for point, lineup in rows}


def fig6c_shape(rows: list[Row]) -> None:
    b1, _lineup = document_shape(rows)["B1"]
    # Table 2(c): B1 has exactly one result
    assert b1.stats["|D|"] == 1, ("B1", b1.stats["|D|"])


def fig6d_shape(rows: list[Row]) -> None:
    joins = document_shape(rows)
    # D5/D6: #results < |D|, descendants under non-matching publications
    for name in ("D5", "D6"):
        point, lineup = joins[name]
        assert lineup.result_count < point.stats["|D|"], name


def buffer_shape(partitioned: str, rows: list[Row]) -> None:
    """VPJ converts memory into fewer passes; the partitioned join (a
    fixed-pass Grace join until a side fits) stays flat within noise."""
    tight, roomy = rows[0][1], rows[-1][1]
    vpj = pages(tight, "VPJ"), pages(roomy, "VPJ")
    assert vpj[1] < vpj[0], ("VPJ", vpj)
    ours = pages(tight, partitioned), pages(roomy, partitioned)
    assert ours[1] <= ours[0] * 1.02, (partitioned, ours)


def fig6e_shape(rows: list[Row]) -> None:
    buffer_shape("SHCJ", rows)
    # VPJ closes at least half of the gap MIN_RGN closes with memory
    tight, roomy = rows[0][1], rows[-1][1]
    rgn_drop = pages(tight, MIN_RGN) - pages(roomy, MIN_RGN)
    vpj_drop = pages(tight, "VPJ") - pages(roomy, "VPJ")
    assert vpj_drop >= rgn_drop * 0.5, (vpj_drop, rgn_drop)


def scalability_shape(partitioned: str, tolerance: float, rows: list[Row]) -> None:
    """Linear in the data size between the rungs that outgrow the pool
    (a rung that fits runs in one in-memory pass), and at most
    ``tolerance`` x MIN_RGN at every size."""
    disk_bound = [row for row in rows if pages_of_smaller(row[0]) > row[0].buffer_pages]
    assert len(disk_bound) >= 2, "fewer than two rungs outgrow the buffer pool"
    (low_point, low), (high_point, high) = disk_bound[0], disk_bound[-1]
    growth = len(high_point.a_codes) / len(low_point.a_codes)
    for algorithm in (partitioned, "VPJ"):
        cost = pages(high, algorithm) / pages(low, algorithm)
        assert growth / 2 <= cost <= growth * 2, (algorithm, growth, cost)
    for point, lineup in rows:
        for algorithm in (partitioned, "VPJ"):
            assert pages(lineup, algorithm) <= lineup.min_rgn_io * tolerance, (
                point.label, algorithm
            )


# -- the table -------------------------------------------------------------

EXPERIMENTS = {experiment.key: experiment for experiment in (
    Experiment("fig6a", partial(datasets, SINGLE), True, {
        "table2a_single_height_datasets": (
            Table("Table 2(a): single-height synthetic datasets", "Dataset", (
                ("|A|", stat("|A|")), ("|D|", stat("|D|")), ("#results", results),
                ("results/|D|", stat("results/|D|")),
            )),
        ),
        "table2e_fig6a_single_height": (
            Table(
                "Table 2(e): elapsed cost, single-height datasets "
                "(page I/O is the primary metric)",
                "Dataset",
                (("#results", results), *io_columns("SHCJ"),
                 ("MIN_RGN t", wall(MIN_RGN)), ("SHCJ t", wall("SHCJ")),
                 ("VPJ t", wall("VPJ"))),
            ),
            Table("Figure 6(a): improvement ratio over MIN_RGN", "Dataset", (
                ("SHCJ improvement", impr("SHCJ")), ("VPJ improvement", impr("VPJ")),
            )),
        ),
    }, fig6a_shape),
    Experiment("fig6b", partial(datasets, MULTI), False, {
        "table2b_multi_height_datasets": (
            Table("Table 2(b): multiple-height synthetic datasets", "Dataset", (
                ("|A|", stat("|A|")), ("H_A", stat("H_A")), ("|D|", stat("|D|")),
                ("H_D", stat("H_D")), ("#results", results),
            )),
        ),
        "fig6b_multi_height": (
            Table("Figure 6(b): improvement ratios, multiple-height datasets",
                  "Dataset", (("#results", results), *ROLLUP_RATIOS)),
            Table("Table 2(f): false hits for MHCJ+Rollup", "Dataset",
                  (("#false hits", false_hits),)),
        ),
    }, fig6b_shape),
    Experiment("fig6c", xmark_joins, False, {
        "table2c_fig6c_xmark": join_tables("c", "XMark-like"),
    }, fig6c_shape),
    Experiment("fig6d", dblp_joins, False, {
        "table2d_fig6d_dblp": join_tables("d", "DBLP-like"),
    }, fig6d_shape),
    Experiment("fig6e", partial(buffer_sweep, "SLLL"), True, {
        "fig6e_buffer_slll": (
            Table("Figure 6(e): varying buffer size, SLLL", "P",
                  (("buffer pages", buffer_pages), *io_columns("SHCJ"))),
            Chart("page I/O by relative buffer size", SERIES),
        ),
    }, fig6e_shape),
    Experiment("fig6f", partial(buffer_sweep, "MLLL"), False, {
        "fig6f_buffer_mlll": (
            Table("Figure 6(f): varying buffer size, MLLL", "P",
                  (("buffer pages", buffer_pages), *io_columns(ROLLUP))),
        ),
    }, partial(buffer_shape, ROLLUP)),
    Experiment("fig6g", partial(scalability, True), True, {
        "fig6g_scalability_single": (
            Table("Figure 6(g): scalability, single-height datasets", "size",
                  (("|A|=|D|", stat("|A|")), *io_columns("SHCJ"))),
            Chart("page I/O by dataset size", SERIES),
        ),
    }, partial(scalability_shape, "SHCJ", 1.05)),
    Experiment("fig6h", partial(scalability, False), False, {
        "fig6h_scalability_multi": (
            Table("Figure 6(h): scalability, multiple-height datasets", "size",
                  (("|A|=|D|", stat("|A|")), *io_columns(ROLLUP))),
        ),
    }, partial(scalability_shape, ROLLUP, 1.10)),
)}
