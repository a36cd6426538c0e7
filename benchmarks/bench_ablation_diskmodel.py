"""Ablation: the disk access model (paper Section 6 future work).

"An issue is to analyze the cost of all algorithms using a more precise
disk access model."  Our I/O counters distinguish sequential from
random reads; this ablation re-ranks the measured algorithm costs under
a growing random-I/O penalty.  Expected picture: INLJN (index-probe
heavy) degrades fastest; the partitioning algorithms — sequential scans
and sequential partition writes — are nearly penalty-invariant.
"""

import pytest

from repro.experiments.harness import Workbench, make_algorithm, materialize, run_algorithm
from repro.experiments.report import format_table
from repro.workloads import synthetic as syn

from .common import DEFAULT_BUFFER_PAGES, SEED, large_size, save_result, scale, small_size

PENALTIES = [1.0, 3.0, 10.0]
ALGORITHMS = ["INLJN", "STACKTREE", "ADB+", "SHCJ", "VPJ"]
ROWS = []
_REPORTS = {}


def get_reports():
    if not _REPORTS:
        spec = syn.spec_by_name(
            "SLLH", large=large_size(scale()), small=small_size(scale())
        )
        dataset = syn.generate(spec, seed=SEED)
        bench = Workbench.create(buffer_pages=DEFAULT_BUFFER_PAGES)
        a_set = materialize(bench.bufmgr, dataset.a_codes, dataset.tree_height, "A")
        d_set = materialize(bench.bufmgr, dataset.d_codes, dataset.tree_height, "D")
        for name in ALGORITHMS:
            _REPORTS[name] = run_algorithm(make_algorithm(name), a_set, d_set)
    return _REPORTS


@pytest.mark.parametrize("name", ALGORITHMS)
def test_measure_random_fraction(benchmark, name):
    def run():
        return get_reports()[name]

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    total = report.total_io
    random_fraction = (
        total.random_reads / total.reads if total.reads else 0.0
    )
    benchmark.extra_info["random_fraction"] = round(random_fraction, 3)
    row = [name, total.reads, total.random_reads]
    for penalty in PENALTIES:
        row.append(round(report.cost(penalty)))
    ROWS.append(row)


def test_penalty_reranks_inljn_last():
    reports = get_reports()
    costs = {name: r.cost(10.0) for name, r in reports.items()}
    assert costs["INLJN"] == max(costs.values())
    # partitioning costs grow the least in relative terms
    for name in ("SHCJ", "VPJ"):
        flat = reports[name].cost(1.0)
        seeky = reports[name].cost(10.0)
        inljn_growth = costs["INLJN"] / reports["INLJN"].cost(1.0)
        assert seeky / flat <= inljn_growth


@pytest.fixture(scope="module", autouse=True)
def emit_table():
    yield
    if ROWS:
        save_result(
            "ablation_disk_model",
            format_table(
                ["algorithm", "reads", "random reads"]
                + [f"cost@{p:g}x" for p in PENALTIES],
                ROWS,
                title="Ablation: weighted cost under a random-I/O penalty (SLLH)",
            ),
        )
