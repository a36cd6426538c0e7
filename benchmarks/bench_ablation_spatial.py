"""Ablation: the spatial-join interpretation (paper Section 5).

The paper's Section 5 discusses viewing region codes as 2-D points and
processing containment joins with R-trees ([5], [16]); its evaluated
set uses B+-trees instead.  This ablation runs the two R-tree
algorithms this library adds (index-probe and synchronized traversal)
against INLJN and the partitioning winner on a mixed-size dataset, to
show where on the cost spectrum the spatial route lands.
"""

import pytest

from repro.experiments.harness import Workbench, make_algorithm, materialize, run_algorithm
from repro.experiments.report import format_table
from repro.workloads import synthetic as syn

from .ablations.spatial import RTreeProbeJoin, SynchronizedRTreeJoin
from .common import DEFAULT_BUFFER_PAGES, SEED, save_result, scale

ROWS = []
_ENV = {}


def get_env():
    if not _ENV:
        spec = syn.spec_by_name(
            "SSLH", large=max(2000, int(20_000 * scale())), small=200
        )
        dataset = syn.generate(spec, seed=SEED)
        bench = Workbench.create(buffer_pages=DEFAULT_BUFFER_PAGES)
        _ENV["dataset"] = dataset
        _ENV["a"] = materialize(
            bench.bufmgr, dataset.a_codes, dataset.tree_height, "A"
        )
        _ENV["d"] = materialize(
            bench.bufmgr, dataset.d_codes, dataset.tree_height, "D"
        )
    return _ENV


CASES = [
    ("INLJN", lambda: make_algorithm("INLJN")),
    ("RTREE-INL", RTreeProbeJoin),
    ("RTREE-SYNC", SynchronizedRTreeJoin),
    ("SHCJ", lambda: make_algorithm("SHCJ")),
]


@pytest.mark.parametrize("name,factory", CASES, ids=[c[0] for c in CASES])
def test_spatial_vs_btree(benchmark, name, factory):
    env = get_env()

    def run():
        return run_algorithm(factory(), env["a"], env["d"])

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.result_count == env["dataset"].num_results
    ROWS.append(
        [name, report.prep_io.total, report.join_io.total, report.total_pages]
    )
    benchmark.extra_info["total_io"] = report.total_pages


def test_partitioning_still_wins():
    by_name = {row[0]: row[3] for row in ROWS}
    if len(by_name) < len(CASES):
        pytest.skip("sweep incomplete")
    # the paper's point survives the spatial detour: SHCJ stays cheapest
    assert by_name["SHCJ"] <= min(
        by_name["INLJN"], by_name["RTREE-INL"], by_name["RTREE-SYNC"]
    )


@pytest.fixture(scope="module", autouse=True)
def emit_table():
    yield
    if ROWS:
        save_result(
            "ablation_spatial_join",
            format_table(
                ["algorithm", "prep io", "join io", "total io"],
                ROWS,
                title="Ablation: R-tree spatial joins vs B+-tree INLJN vs SHCJ (SSLH)",
            ),
        )
