"""Validation of the planner's in-cell cost ranking.

Over the 16 synthetic datasets (unsorted, unindexed — the cells where
the planner has a choice to make), compare what :func:`repro.join.
planner.plan` predicted with what was measured: (a) the chosen plan
must never be far from the measured-best candidate *of its cell*
("regret"), and (b) predicted and measured totals of the chosen plan
must agree within a small factor.

A second table validates the model's I/O-free ``cpu`` term where it
decides — between candidates that read the same pages — on the nine
join workloads of the perf ledger: its four line-up datasets at its
sizes and the five service paths over its corpus.  Estimated ``cpu``
sits next to what was measured (pairs verified = false hits + results,
wall time), and the pick must be the measured-fastest of the candidates
it tied with on pages.
"""

from statistics import median

import pytest

from repro import ContainmentDatabase
from repro.experiments.harness import Workbench, materialize, run_algorithm
from repro.experiments.report import format_table
from repro.join.base import JoinSink
from repro.join.costmodel import CostModel
from repro.join.planner import make_algorithm, plan
from repro.workloads import synthetic as syn

from .common import DEFAULT_BUFFER_PAGES, SEED, save_result, scale
from .ledger.corpus import PATH_MIX, seeded_corpus

DATASETS = [
    "SLLH", "SLSH", "SSLH", "SSSH", "SLLL", "SLSL", "SSLL", "SSSL",
    "MLLH", "MLSH", "MSLH", "MSSH", "MLLL", "MLSL", "MSLL", "MSSL",
]
ROWS = []


@pytest.mark.parametrize("name", DATASETS)
def test_planner_on_dataset(benchmark, name):
    spec = syn.spec_by_name(
        name,
        large=max(2000, int(20_000 * scale())),
        small=max(100, int(200 * scale())),
    )
    dataset = syn.generate(spec, seed=SEED)
    bench = Workbench.create(buffer_pages=DEFAULT_BUFFER_PAGES)
    a_set = materialize(bench.bufmgr, dataset.a_codes, dataset.tree_height, "A")
    d_set = materialize(bench.bufmgr, dataset.d_codes, dataset.tree_height, "D")

    def run():
        chosen = plan(a_set, d_set)
        return chosen, run_algorithm(chosen.instantiate(), a_set, d_set)

    chosen, report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.result_count == dataset.num_results

    # the truth pool for regret: every other candidate of the cell
    in_cell = {chosen.algorithm_name: report.total_pages}
    for estimate in chosen.estimates[1:]:
        in_cell[estimate.algorithm] = run_algorithm(
            make_algorithm(estimate.algorithm), a_set, d_set
        ).total_pages
    best_name = min(in_cell, key=in_cell.__getitem__)
    regret = report.total_pages / max(1, in_cell[best_name])
    predicted = chosen.estimate.total
    accuracy = predicted / max(1, report.total_pages)
    ROWS.append(
        [name, chosen.cell, chosen.algorithm_name, round(predicted),
         report.total_pages, f"{best_name} {in_cell[best_name]}",
         f"{regret:.2f}x", f"{accuracy:.2f}"]
    )
    benchmark.extra_info.update(
        {"chosen": chosen.algorithm_name, "regret": round(regret, 2)}
    )
    # the chosen plan must never be badly worse than the measured best
    assert regret <= 2.0, (name, chosen.algorithm_name, regret)
    # and the prediction must be the right order of magnitude
    assert 0.2 <= accuracy <= 5.0, (name, predicted, report.total_pages)


# ---------------------------------------------------------------------------
# the cpu term, on the perf ledger's join workloads
# ---------------------------------------------------------------------------
#: benchmarks/ledger/lineup.py: lineup_ll and lineup_ls, 50-page pool
LEDGER_LINEUPS = [
    ("SLLH", 25_000, 250), ("MLLH", 25_000, 250),
    ("MLSH", 50_000, 500), ("MSLH", 50_000, 500),
]
#: benchmarks/ledger/service.py: 2,000 nodes, 64-page pool
SERVICE_NODES, SERVICE_BUFFER_PAGES = 2_000, 64
MODEL = CostModel()
PARTITIONING = {"MHCJ+Rollup": MODEL.mhcj_rollup, "VPJ": MODEL.vpj}
CPU_ROWS = []
REPEATS = 3


def record_cpu_rows(workload, picked, candidates):
    """``candidates``: name -> (estimated pages, estimated cpu, runs);
    a run is (measured pages, pairs verified, wall seconds)."""
    walls = {}
    for name, (pages, cpu, runs) in candidates.items():
        walls[name] = median(wall for _pages, _verified, wall in runs)
        CPU_ROWS.append(
            [workload, name, round(pages), round(cpu), runs[0][0], runs[0][1],
             f"{walls[name] * 1e3:.2f}", "<- pick" if name == picked else ""]
        )
    tied = [
        name for name, (pages, _cpu, _runs) in candidates.items()
        if pages == candidates[picked][0]
    ]
    assert walls[picked] == min(walls[name] for name in tied), (workload, walls)


@pytest.mark.parametrize("name,large,small", LEDGER_LINEUPS,
                         ids=[row[0] for row in LEDGER_LINEUPS])
def test_cpu_term_on_ledger_lineup(benchmark, name, large, small):
    dataset = syn.generate(syn.spec_by_name(name, large=large, small=small), seed=SEED)
    bench = Workbench.create(buffer_pages=DEFAULT_BUFFER_PAGES)
    a_set = materialize(bench.bufmgr, dataset.a_codes, dataset.tree_height, "A")
    d_set = materialize(bench.bufmgr, dataset.d_codes, dataset.tree_height, "D")
    chosen = plan(a_set, d_set)

    def measure():
        candidates = {}
        for estimate in chosen.estimates:
            runs = []
            for _ in range(REPEATS):
                report = run_algorithm(
                    make_algorithm(estimate.algorithm), a_set, d_set
                )
                assert report.result_count == dataset.num_results
                runs.append(
                    (report.total_pages,
                     report.false_hits + report.result_count,
                     report.wall_seconds)
                )
            candidates[estimate.algorithm] = (estimate.total, estimate.cpu, runs)
        return candidates

    candidates = benchmark.pedantic(measure, rounds=1, iterations=1)
    record_cpu_rows(name, chosen.algorithm_name, candidates)


def run_path_forcing(bench, db, doc, path, algorithm):
    """One top-down pass over ``path`` with ``algorithm`` forced on
    every step, over cold copies of the tag sets; returns the estimate
    and the measurement summed over the steps, and the name the planner
    picks for each step."""
    tags = path.strip("/").split("//")
    codes = list(db.element_set(doc, tags[0]).scan())
    est_pages = est_cpu = wall = 0.0
    pages = verified = 0
    picks = []
    for tag in tags[1:]:
        a_set = materialize(bench.bufmgr, codes, doc.tree_height, "A")
        d_set = materialize(
            bench.bufmgr, list(db.element_set(doc, tag).scan()), doc.tree_height, "D"
        )
        chosen = plan(a_set, d_set)
        picks.append(chosen.algorithm_name)
        estimate = PARTITIONING[algorithm](chosen.inputs)
        est_pages += estimate.total
        est_cpu += estimate.cpu
        sink = JoinSink("collect")
        report = run_algorithm(make_algorithm(algorithm), a_set, d_set, sink)
        pages += report.total_pages
        verified += report.false_hits + report.result_count
        wall += report.wall_seconds
        codes = sorted({d for _a, d in sink.pairs})
        a_set.destroy()
        d_set.destroy()
    return (est_pages, est_cpu, (pages, verified, wall)), picks, codes


@pytest.mark.parametrize("path", PATH_MIX)
def test_cpu_term_on_service_path(benchmark, path):
    db = ContainmentDatabase(buffer_pages=SERVICE_BUFFER_PAGES)
    doc = db.load_tree(seeded_corpus(SEED, SERVICE_NODES), name="corpus")
    bench = Workbench.create(buffer_pages=SERVICE_BUFFER_PAGES)

    def measure():
        candidates, answers, picks = {}, set(), []
        for algorithm in PARTITIONING:
            runs = []
            for _ in range(REPEATS):
                (pages, cpu, run), picks, codes = run_path_forcing(
                    bench, db, doc, path, algorithm
                )
                runs.append(run)
                answers.add(tuple(codes))
            candidates[algorithm] = (pages, cpu, runs)
        return candidates, answers, picks

    candidates, answers, picks = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert len(answers) == 1  # both plans select the same elements
    # every step of the path plans the same candidate on this corpus
    assert len(set(picks)) == 1, picks
    record_cpu_rows(path, picks[0], candidates)


@pytest.fixture(scope="module", autouse=True)
def emit_table():
    yield
    tables = []
    if ROWS:
        tables.append(
            format_table(
                ["Dataset", "cell", "chosen", "predicted io", "measured io",
                 "best in cell", "regret", "pred/meas"],
                ROWS,
                title="Planner: predicted vs measured, regret within the cell",
            )
        )
    if CPU_ROWS:
        tables.append(
            format_table(
                ["workload", "candidate", "est. pages", "est. cpu", "pages",
                 "verified", "wall ms", ""],
                CPU_ROWS,
                title="The cpu term: estimated operations vs measured work, "
                      "per in-cell candidate (ledger sizes)",
            )
        )
    if tables:
        save_result("optimizer_validation", "\n\n".join(tables))
