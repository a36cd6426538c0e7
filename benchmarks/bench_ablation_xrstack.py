"""Ablation: XR-stack vs Anc_Des_B+ (the footnote's claim).

"XR-stack has been shown to outperform Anc_Des_B+ algorithm in [8]."
Both are skip-capable stack joins over on-the-fly-built indexes; this
ablation runs them (plus plain Stack-Tree as the no-skip baseline) over
low-selectivity datasets, where skipping matters most.
"""

import pytest

from repro.experiments.harness import Workbench, make_algorithm, materialize, run_algorithm
from repro.experiments.report import format_table
from repro.workloads import synthetic as syn

from .ablations.xrstack import XRStackJoin
from .common import DEFAULT_BUFFER_PAGES, SEED, large_size, save_result, scale, small_size

DATASETS = ["SLSL", "MLSL", "SLLL"]
CASES = [
    ("STACKTREE", lambda: make_algorithm("STACKTREE")),
    ("ADB+", lambda: make_algorithm("ADB+")),
    ("XR-STACK", XRStackJoin),
]
ROWS = []
_ENV = {}


def get_sets(name):
    if name not in _ENV:
        spec = syn.spec_by_name(
            name, large=large_size(scale()), small=small_size(scale())
        )
        dataset = syn.generate(spec, seed=SEED)
        bench = Workbench.create(buffer_pages=DEFAULT_BUFFER_PAGES)
        _ENV[name] = (
            dataset,
            materialize(bench.bufmgr, dataset.a_codes, dataset.tree_height, "A"),
            materialize(bench.bufmgr, dataset.d_codes, dataset.tree_height, "D"),
        )
    return _ENV[name]


@pytest.mark.parametrize("dataset_name", DATASETS)
@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_skip_joins(benchmark, dataset_name, case):
    name, factory = case
    dataset, a_set, d_set = get_sets(dataset_name)

    def run():
        return run_algorithm(factory(), a_set, d_set)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.result_count == dataset.num_results
    ROWS.append(
        [dataset_name, name, report.prep_io.total, report.join_io.total,
         report.total_pages]
    )
    benchmark.extra_info["total_io"] = report.total_pages


def test_xrstack_join_phase_beats_adb():
    """Skipping via stabs must make the join phase no worse than ADB+
    on every low-selectivity dataset."""
    by_key = {(row[0], row[1]): row for row in ROWS}
    if len(by_key) < len(DATASETS) * len(CASES):
        pytest.skip("sweep incomplete")
    for dataset_name in DATASETS:
        xr_join = by_key[(dataset_name, "XR-STACK")][3]
        adb_join = by_key[(dataset_name, "ADB+")][3]
        assert xr_join <= adb_join * 1.3, (dataset_name, xr_join, adb_join)


@pytest.fixture(scope="module", autouse=True)
def emit_table():
    yield
    if ROWS:
        save_result(
            "ablation_xrstack",
            format_table(
                ["Dataset", "algorithm", "prep io", "join io", "total io"],
                ROWS,
                title="Ablation: XR-stack vs Anc_Des_B+ vs Stack-Tree "
                "(low selectivity)",
            ),
        )
