"""The execution-mode matrix: one line-up, every configuration.

No fan-out mode may change what a join computes or what it reads —
only how fast.  Every cell of

    {Figure 6(b) | Figure 6(a) line-up} x {serial, shards=2}

is held field-for-field equal to its reference.  The serial cell is the
reference itself; the ``shards=2`` cell runs each algorithm through
:class:`~repro.shard.executor.ShardedJoinExecutor` and compares against
a 1-shard executor run (sharded reports are comparable only to sharded
ones — each slot runs cold on a private bench).

The reference itself is pinned by a golden table: per algorithm, the
prepare and join I/O, buffer hits and misses, false hits and result
count, as literals.  With one execution path left there is no second
path to compare against, so the table is what keeps the I/O model —
the paper's metric — from drifting under a refactor.  Further tables
pin the same row in a pool large enough for the in-memory arms, for the
registered operators no line-up runs, and each operator's emit order.
"""

import functools
import hashlib
import struct

import pytest

from repro import IndexNestedLoopJoin, JoinSink
from repro.experiments.harness import (
    Workbench,
    make_lineup,
    materialize,
    run_algorithm,
    run_lineup,
)
from repro.join.planner import ALGORITHMS
from repro.obs.metrics import MetricsRegistry
from repro.shard import ShardedCorpus, ShardedJoinExecutor
from repro.storage.faults import FaultConfig, RetryPolicy

from .differential import assert_reports_equal, lineup_inputs

#: fan-out mode -> shard count of the run (0: the serial line-up) and
#: of its reference
MODES = {"serial": (0, 0), "shards=2": (2, 1)}


def lineup(single_height, shards=0):
    """The matrix line-up: ``(name, report, pairs)`` per algorithm, run
    serially or scatter-gathered over ``shards`` shards."""
    a_codes, d_codes, tree_height = lineup_inputs(single_height)
    names = make_lineup(single_height)
    if not shards:
        result = run_lineup(
            "matrix",
            a_codes,
            d_codes,
            tree_height,
            buffer_pages=8,
            page_size=128,
            algorithms=names,
            collect=True,
        )
        return [(r.name, r.report, None) for r in result.results]
    corpus = ShardedCorpus(tree_height, shards, page_size=128)
    corpus.add_set("A", a_codes)
    corpus.add_set("D", d_codes)
    executor = ShardedJoinExecutor(corpus, workers=1)
    return [
        (name, *executor.run(
            name, "A", "D", dataset="matrix", buffer_pages=8, page_size=128,
            collect=True,
        ))
        for name in names
    ]


@functools.lru_cache(maxsize=None)
def reference(single_height, shards):
    return lineup(single_height, shards)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "single_height", [False, True], ids=["MH-plain", "SH-plain"]
)
def test_every_cell_equals_its_reference(single_height, mode):
    shards, reference_shards = MODES[mode]
    actual = lineup(single_height, shards)
    expected = reference(single_height, reference_shards)
    assert [row[0] for row in actual] == [row[0] for row in expected]
    for (_name, report, pairs), (_, e_report, e_pairs) in zip(actual, expected):
        assert_reports_equal(report, e_report, f"under {mode}")
        assert pairs == e_pairs
    assert len({report.result_count for _name, report, _ in actual}) == 1


# ----------------------------------------------------------------------
# the golden table: the reference's I/O, as literals
# ----------------------------------------------------------------------
#: per line-up algorithm: (prep_io, join_io, buffer hits, buffer misses,
#: false hits, results); each I/O as (reads, writes, random reads,
#: allocations)
GOLDEN = {
    False: [
        ("INLJN", (41, 55, 33, 62), (386, 7, 239, 0), 321, 427, 0, 710),
        ("STACKTREE", (48, 45, 38, 50), (25, 5, 22, 0), 46, 73, 0, 710),
        ("ADB+", (73, 104, 64, 111), (54, 7, 49, 0), 109, 127, 0, 710),
        ("MHCJ+Rollup", (0, 0, 0, 0), (62, 37, 28, 37), 35, 62, 31290, 710),
        ("VPJ", (0, 0, 0, 0), (75, 48, 59, 48), 36, 75, 0, 710),
    ],
    True: [
        ("INLJN", (41, 55, 33, 62), (39, 6, 30, 0), 101, 80, 0, 19),
        ("STACKTREE", (29, 25, 22, 30), (16, 5, 9, 0), 27, 45, 0, 19),
        ("ADB+", (43, 60, 38, 69), (27, 6, 20, 0), 92, 70, 0, 19),
        ("SHCJ", (0, 0, 0, 0), (16, 0, 1, 0), 0, 16, 0, 19),
        ("VPJ", (0, 0, 0, 0), (16, 0, 1, 0), 0, 16, 0, 19),
    ],
}

#: INLJN with the descendant set as outer: the interval-tree stab path,
#: which the line-up's smaller-set heuristic does not take on these inputs
GOLDEN_STAB = {
    False: ((11, 93, 1, 101), (2047, 8, 1886, 0), 637, 2058, 0, 710),
    True: ((2, 9, 1, 17), (527, 8, 463, 0), 1311, 529, 0, 19),
}


def golden_row(report):
    def io(snapshot):
        return (
            snapshot.reads,
            snapshot.writes,
            snapshot.random_reads,
            snapshot.allocations,
        )

    return (
        io(report.prep_io),
        io(report.join_io),
        report.buffer_hits,
        report.buffer_misses,
        report.false_hits,
        report.result_count,
    )


@pytest.mark.parametrize("single_height", [False, True], ids=["MH", "SH"])
def test_reference_io_matches_the_golden_table(single_height):
    actual = [
        (name, *golden_row(report))
        for name, report, _pairs in reference(single_height, 0)
    ]
    assert actual == GOLDEN[single_height]


@pytest.mark.parametrize("single_height", [False, True], ids=["MH", "SH"])
def test_stab_probe_io_matches_the_golden_row(single_height):
    a_codes, d_codes, tree_height = lineup_inputs(single_height)
    bench = Workbench.create(8, 128)
    ancestors = materialize(bench.bufmgr, a_codes, tree_height, "matrix.A")
    descendants = materialize(bench.bufmgr, d_codes, tree_height, "matrix.D")
    report = run_algorithm(
        IndexNestedLoopJoin(force_outer="D"),
        ancestors,
        descendants,
        JoinSink("collect"),
    )
    assert golden_row(report) == GOLDEN_STAB[single_height]


#: the line-ups again in a 64-page pool: every input fits, so the
#: in-memory arms of SHCJ, MHCJ+Rollup and VPJ run instead of the
#: spilling ones the 8-page table pins
GOLDEN_IN_MEMORY = {
    False: [
        ("INLJN", (14, 0, 1, 48), (11, 0, 1, 0), 697, 25, 0, 710),
        ("STACKTREE", (25, 0, 1, 25), (0, 0, 0, 0), 48, 25, 0, 710),
        ("ADB+", (25, 25, 1, 86), (24, 1, 3, 0), 141, 49, 0, 710),
        ("MHCJ+Rollup", (0, 0, 0, 0), (25, 0, 1, 0), 0, 25, 31290, 710),
        ("VPJ", (0, 0, 0, 0), (25, 0, 1, 0), 0, 25, 0, 710),
    ],
    True: [
        ("INLJN", (14, 0, 1, 48), (2, 0, 1, 0), 139, 16, 0, 19),
        ("STACKTREE", (16, 0, 1, 16), (0, 0, 0, 0), 30, 16, 0, 19),
        ("ADB+", (16, 3, 1, 55), (3, 0, 1, 0), 117, 19, 0, 19),
        ("SHCJ", (0, 0, 0, 0), (16, 0, 1, 0), 0, 16, 0, 19),
        ("VPJ", (0, 0, 0, 0), (16, 0, 1, 0), 0, 16, 0, 19),
    ],
}


@pytest.mark.parametrize("single_height", [False, True], ids=["MH", "SH"])
def test_in_memory_lineup_io_matches_the_golden_table(single_height):
    a_codes, d_codes, tree_height = lineup_inputs(single_height)
    result = run_lineup(
        "matrix",
        a_codes,
        d_codes,
        tree_height,
        buffer_pages=64,
        page_size=128,
        algorithms=make_lineup(single_height),
        collect=True,
    )
    actual = [(r.name, *golden_row(r.report)) for r in result.results]
    assert actual == GOLDEN_IN_MEMORY[single_height]


def run_solo(name, single_height):
    """One registered operator, cold, on the line-up's 8-page bench."""
    a_codes, d_codes, tree_height = lineup_inputs(single_height)
    bench = Workbench.create(8, 128)
    ancestors = materialize(bench.bufmgr, a_codes, tree_height, "matrix.A")
    descendants = materialize(bench.bufmgr, d_codes, tree_height, "matrix.D")
    sink = JoinSink("collect")
    report = run_algorithm(ALGORITHMS[name](), ancestors, descendants, sink)
    assert bench.bufmgr.num_pinned == 0
    return report, sink.pairs


#: registered operators no line-up runs, on the line-up inputs
GOLDEN_OFF_LINEUP = {
    ("MH", "MPMGJN"): ((48, 45, 38, 50), (41, 5, 19, 0), 125, 89, 0, 710),
    ("MH", "MHCJ"): ((0, 0, 0, 0), (361, 91, 129, 32), 0, 361, 0, 710),
    ("MH", "BNL"): ((0, 0, 0, 0), (39, 0, 3, 0), 0, 39, 0, 710),
    ("SH", "MPMGJN"): ((29, 25, 22, 30), (15, 5, 9, 0), 29, 44, 0, 19),
    ("SH", "MHCJ"): ((0, 0, 0, 0), (16, 4, 5, 4), 7, 16, 0, 19),
    ("SH", "MHCJ+Rollup"): ((0, 0, 0, 0), (16, 0, 1, 0), 0, 16, 0, 19),
    ("SH", "BNL"): ((0, 0, 0, 0), (16, 0, 1, 0), 0, 16, 0, 19),
}


@pytest.mark.parametrize(
    "lineup_name, name", GOLDEN_OFF_LINEUP, ids="-".join
)
def test_off_lineup_io_matches_the_golden_row(lineup_name, name):
    report, _pairs = run_solo(name, lineup_name == "SH")
    assert golden_row(report) == GOLDEN_OFF_LINEUP[lineup_name, name]


def emit_digest(pairs):
    """A fingerprint of the result pairs *in emit order*."""
    digest = hashlib.blake2b(digest_size=8)
    for pair in pairs:
        digest.update(struct.pack("<QQ", *pair))
    return digest.hexdigest()


#: (result count, emit-order digest) per registered operator: not just
#: the multiset of pairs but the order each operator emits them in
GOLDEN_EMIT_ORDER = {
    ("MH", "STACKTREE"): (710, "34a04303d8da0c18"),
    ("MH", "MPMGJN"): (710, "369f111707c94832"),
    ("MH", "INLJN"): (710, "d07a1bd13e2bc2f5"),
    ("MH", "ADB+"): (710, "34a04303d8da0c18"),
    ("MH", "MHCJ"): (710, "413b1cfb8a245472"),
    ("MH", "MHCJ+Rollup"): (710, "5e415e84fa17ffb8"),
    ("MH", "VPJ"): (710, "e2ce0d5b23523d11"),
    ("MH", "BNL"): (710, "46aca11e95395990"),
    ("SH", "STACKTREE"): (19, "43428047a683e8c3"),
    ("SH", "MPMGJN"): (19, "43428047a683e8c3"),
    ("SH", "INLJN"): (19, "29f7591289159566"),
    ("SH", "ADB+"): (19, "43428047a683e8c3"),
    ("SH", "SHCJ"): (19, "ac6aa24cf144b4ee"),
    ("SH", "MHCJ"): (19, "ac6aa24cf144b4ee"),
    ("SH", "MHCJ+Rollup"): (19, "ac6aa24cf144b4ee"),
    ("SH", "VPJ"): (19, "ac6aa24cf144b4ee"),
    ("SH", "BNL"): (19, "ac6aa24cf144b4ee"),
}


@pytest.mark.parametrize("lineup_name, name", GOLDEN_EMIT_ORDER, ids="-".join)
def test_emit_order_matches_the_golden_digest(lineup_name, name):
    _report, pairs = run_solo(name, lineup_name == "SH")
    assert (len(pairs), emit_digest(pairs)) == GOLDEN_EMIT_ORDER[
        lineup_name, name
    ]


# ----------------------------------------------------------------------
# gauges
# ----------------------------------------------------------------------
def test_bench_gauges_recorded():
    """The line-up records its bench's buffer and fault gauges."""
    metrics = MetricsRegistry()
    a_codes, d_codes, tree_height = lineup_inputs()
    run_lineup(
        "gauges",
        a_codes,
        d_codes,
        tree_height,
        buffer_pages=8,
        page_size=128,
        single_height=False,
        metrics=metrics,
        faults=FaultConfig(seed=5, read_error_rate=0.02),
        retry=RetryPolicy(max_attempts=8),
    )
    names = {
        name
        for name in metrics.names()
        if name.startswith(("buffer.", "faults.", "batch.", "flat."))
    }
    assert names == {
        "buffer.hits",
        "buffer.misses",
        "buffer.hit_rate",
        "buffer.resident",
        "buffer.pinned",
        "faults.injected",
        "faults.read_errors",
        "faults.write_errors",
        "faults.torn_reads",
    }
    hits = metrics.gauge("buffer.hits").value
    misses = metrics.gauge("buffer.misses").value
    assert hits > 0 and misses > 0
    assert metrics.gauge("buffer.hit_rate").value == pytest.approx(
        hits / (hits + misses)
    )
    assert metrics.gauge("faults.injected").value > 0

