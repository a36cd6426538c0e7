"""Table 1: the algorithm-selection matrix of the framework.

Runs :func:`repro.join.planner.plan` over the four (indexed?, sorted?)
input combinations and verifies each cell picks the algorithm the paper
prescribes; each cell's plan is also executed, must produce the same
result, and is tabulated with its predicted and measured page I/O.
"""

import pytest

from repro import (
    AncDesBPlusJoin,
    IndexNestedLoopJoin,
    SetProperties,
    SingleHeightJoin,
    StackTreeDescJoin,
    VerticalPartitionJoin,
)
from repro.experiments.harness import Workbench, materialize, run_algorithm
from repro.experiments.report import format_table
from repro.join.inljn import build_start_index
from repro.join.mhcj import MultiHeightRollupJoin
from repro.join.planner import plan
from repro.workloads import synthetic as syn

from .common import SEED, save_result

ROWS = []
_ENV = {}


def get_env():
    if not _ENV:
        spec = syn.spec_by_name("MSSL", large=4000, small=800)
        ds = syn.generate(spec, seed=SEED)
        bench = Workbench.create(buffer_pages=32, page_size=1024)
        a_set = materialize(bench.bufmgr, ds.a_codes, ds.tree_height, "A")
        d_set = materialize(bench.bufmgr, ds.d_codes, ds.tree_height, "D")
        a_index = build_start_index(a_set, bench.bufmgr)
        d_index = build_start_index(d_set, bench.bufmgr)
        _ENV.update(
            ds=ds, bench=bench, a_set=a_set, d_set=d_set,
            a_index=a_index, d_index=d_index,
        )
    return _ENV


CELLS = [
    ("indexed, unsorted", True, False, IndexNestedLoopJoin),
    ("unindexed, sorted", False, True, StackTreeDescJoin),
    ("indexed, sorted", True, True, AncDesBPlusJoin),
    ("unindexed, unsorted", False, False,
     (MultiHeightRollupJoin, VerticalPartitionJoin, SingleHeightJoin)),
]


@pytest.mark.parametrize("label,indexed,sorted_,expected", CELLS,
                         ids=[c[0] for c in CELLS])
def test_planner_cell(benchmark, label, indexed, sorted_, expected):
    env = get_env()
    a_props = SetProperties(
        sorted=sorted_, start_index=env["a_index"] if indexed else None
    )
    d_props = SetProperties(
        sorted=sorted_, start_index=env["d_index"] if indexed else None
    )

    a_input = env["a_set"]
    d_input = env["d_set"]
    if sorted_:
        a_input = a_input.sorted_copy()
        d_input = d_input.sorted_copy()
    chosen = plan(a_input, d_input, a_props, d_props)
    algorithm = chosen.instantiate()
    assert isinstance(algorithm, expected), label

    report = benchmark.pedantic(
        run_algorithm, (algorithm, a_input, d_input), rounds=1, iterations=1
    )
    assert report.result_count == env["ds"].num_results
    ROWS.append(
        [label, chosen.cell, chosen.algorithm_name,
         round(chosen.estimate.total), report.total_pages, report.result_count]
    )


@pytest.fixture(scope="module", autouse=True)
def emit_table():
    yield
    if ROWS:
        save_result(
            "table1_planner_matrix",
            format_table(
                ["inputs", "cell", "chosen", "predicted io", "measured io",
                 "#results"],
                ROWS,
                title="Table 1: containment-join algorithm selection",
            ),
        )
