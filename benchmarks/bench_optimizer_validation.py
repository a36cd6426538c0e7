"""Validation of the planner's in-cell cost ranking.

Over the 16 synthetic datasets (unsorted, unindexed — the cells where
the planner has a choice to make), compare what :func:`repro.join.
planner.plan` predicted with what was measured: (a) the chosen plan
must never be far from the measured-best candidate *of its cell*
("regret"), and (b) predicted and measured totals of the chosen plan
must agree within a small factor.
"""

import pytest

from repro.experiments.harness import Workbench, materialize, run_algorithm
from repro.experiments.report import format_table
from repro.join.planner import make_algorithm, plan
from repro.workloads import synthetic as syn

from .common import DEFAULT_BUFFER_PAGES, SEED, save_result, scale

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


@pytest.fixture(scope="module", autouse=True)
def emit_table():
    yield
    if ROWS:
        save_result(
            "optimizer_validation",
            format_table(
                ["Dataset", "cell", "chosen", "predicted io", "measured io",
                 "best in cell", "regret", "pred/meas"],
                ROWS,
                title="Planner: predicted vs measured, regret within the cell",
            ),
        )
