"""Tests for the paged static interval tree."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import FaultConfig, FaultInjector, JoinSink, RetryPolicy
from repro.core import pbitree as pt
from repro.experiments.harness import Workbench, materialize, run_algorithm
from repro.index import interval_tree
from repro.index.interval_tree import IntervalTree
from repro.join.inljn import IndexNestedLoopJoin
from repro.storage.buffer import BufferManager
from repro.storage.disk import DiskManager
from repro.storage.record import MAX_CODE_BITS

from .differential import lineup_inputs

MAX_CODE = (1 << MAX_CODE_BITS) - 1

#: edges of the coding space (same line-up as tests/test_batch.py)
BOUNDARY_CODES = [1, 2, 3, 1 << 62, (1 << 62) + (1 << 61), MAX_CODE]

code_arrays = st.lists(
    st.one_of(
        st.integers(min_value=1, max_value=MAX_CODE),
        st.sampled_from(BOUNDARY_CODES),
    ),
    min_size=1,
    max_size=80,
)


def make_env(frames=32, page_size=128):
    disk = DiskManager(page_size=page_size)
    return disk, BufferManager(disk, frames)


def brute_stab(intervals, point):
    return sorted(iv for iv in intervals if iv[0] <= point <= iv[1])


@st.composite
def interval_lists(draw):
    n = draw(st.integers(0, 120))
    intervals = []
    for i in range(n):
        start = draw(st.integers(0, 500))
        length = draw(st.integers(0, 100))
        intervals.append((start, start + length, i))
    return intervals


class TestStabbing:
    @given(interval_lists(), st.lists(st.integers(0, 650), max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force(self, intervals, points):
        _disk, bufmgr = make_env()
        tree = IntervalTree.build(bufmgr, intervals)
        for point in points:
            assert sorted(tree.stab(point)) == brute_stab(intervals, point)

    def test_empty_tree(self):
        _disk, bufmgr = make_env()
        tree = IntervalTree.build(bufmgr, [])
        assert list(tree.stab(5)) == []
        assert len(tree) == 0

    def test_single_interval(self):
        _disk, bufmgr = make_env()
        tree = IntervalTree.build(bufmgr, [(10, 20, 7)])
        assert list(tree.stab(10)) == [(10, 20, 7)]
        assert list(tree.stab(20)) == [(10, 20, 7)]
        assert list(tree.stab(15)) == [(10, 20, 7)]
        assert list(tree.stab(9)) == []
        assert list(tree.stab(21)) == []

    def test_point_intervals(self):
        _disk, bufmgr = make_env()
        intervals = [(i, i, i) for i in range(50)]
        tree = IntervalTree.build(bufmgr, intervals)
        for i in range(50):
            assert list(tree.stab(i)) == [(i, i, i)]

    def test_nested_intervals(self):
        """PBiTree regions nest heavily; the tree must report all layers."""
        _disk, bufmgr = make_env()
        intervals = [(50 - i, 50 + i, i) for i in range(40)]
        tree = IntervalTree.build(bufmgr, intervals)
        assert sorted(tree.stab(50)) == sorted(intervals)
        assert len(list(tree.stab(50 + 39))) == 1

    def test_identical_intervals(self):
        _disk, bufmgr = make_env()
        intervals = [(5, 9, i) for i in range(20)]
        tree = IntervalTree.build(bufmgr, intervals)
        assert len(list(tree.stab(7))) == 20


class TestScaleAndIO:
    def test_large_build_and_probe(self):
        disk, bufmgr = make_env(frames=64, page_size=1024)
        rng = random.Random(5)
        intervals = []
        for i in range(5000):
            start = rng.randrange(10**6)
            intervals.append((start, start + rng.randrange(10**4), i))
        tree = IntervalTree.build(bufmgr, intervals)
        for _ in range(50):
            point = rng.randrange(10**6)
            assert sorted(tree.stab(point)) == brute_stab(intervals, point)

    def test_probe_charges_io_when_cold(self):
        disk, bufmgr = make_env(frames=4, page_size=128)
        intervals = [(i * 3, i * 3 + 100, i) for i in range(500)]
        tree = IntervalTree.build(bufmgr, intervals)
        bufmgr.flush_all()
        bufmgr.evict_all()
        disk.stats.reset()
        list(tree.stab(600))
        assert disk.stats.reads > 0

    def test_num_pages_reported(self):
        _disk, bufmgr = make_env()
        tree = IntervalTree.build(bufmgr, [(1, 2, 0), (3, 4, 1)])
        assert tree.num_pages >= 2

    def test_destroy_frees_every_page(self):
        disk, bufmgr = make_env(frames=4)
        intervals = [(i * 3, i * 3 + 100, i) for i in range(300)]
        tree = IntervalTree.build(bufmgr, intervals)
        assert disk.num_allocated == tree.num_pages > 0
        list(tree.stab(600))
        tree.destroy()
        assert disk.num_allocated == 0
        assert list(tree.stab(600)) == [] and len(tree) == 0


# ----------------------------------------------------------------------
# the column probe over PBiTree regions
# ----------------------------------------------------------------------
class TestColumnProbe:
    """``stab`` and ``stab_codes`` cut cached per-page columns; both must
    report exactly the brute-force answer and leave nothing pinned."""

    @given(codes=code_arrays, extra=st.lists(st.integers(0, MAX_CODE),
                                             max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_stab_matches_brute_force(self, codes, extra):
        _disk, bufmgr = make_env(frames=16, page_size=256)
        intervals = [(*pt.region_of(c), c) for c in codes]
        tree = IntervalTree.build(bufmgr, intervals)
        for point in [pt.start_of(c) for c in codes[:10]] + extra:
            expected = [iv for iv in intervals if iv[0] <= point <= iv[1]]
            got = list(tree.stab(point))
            assert sorted(got) == sorted(expected)
            # the bulk probe extracts the payload column in stab order
            assert tree.stab_codes(point) == [a for _s, _e, a in got]
        assert bufmgr.num_pinned == 0

    def test_abandoned_stab_leaves_nothing_pinned(self):
        # stab materializes under the probe guard (the whole probe is
        # atomic against mark_stale), so even an abandoned, partially
        # consumed result holds no pins.
        rng = random.Random(8)
        codes = [rng.randrange(1, MAX_CODE) for _ in range(300)]
        _disk, bufmgr = make_env(frames=32, page_size=256)
        tree = IntervalTree.build(bufmgr, [(*pt.region_of(c), c) for c in codes])
        deepest = max(codes, key=pt.height_of)
        scan = tree.stab(pt.start_of(deepest))
        next(scan, None)
        del scan
        assert bufmgr.num_pinned == 0

    @pytest.mark.parametrize("force_outer", ["A", "D"])
    def test_probes_absorb_transient_faults(self, force_outer):
        """Chaos-seed transient read faults replay through cached and
        uncached column loads: retries absorbed, results unchanged."""
        a_codes, d_codes, tree_height = lineup_inputs()

        def run(faults):
            # a whole join reads far more pages than a cursor scan, so
            # give the 10% fault rate enough attempts that no page
            # degenerates to a permanent error
            wb = Workbench.create(
                16, 256, faults=faults, retry=RetryPolicy(max_attempts=12)
            )
            ancestors = materialize(wb.bufmgr, a_codes, tree_height, "A")
            descendants = materialize(wb.bufmgr, d_codes, tree_height, "D")
            sink = JoinSink("collect")
            report = run_algorithm(
                IndexNestedLoopJoin(force_outer=force_outer),
                ancestors,
                descendants,
                sink,
            )
            assert wb.bufmgr.num_pinned == 0
            return sink.pairs, report

        quiet_pairs, _ = run(None)
        chaos = FaultInjector(
            FaultConfig(seed=3, read_error_rate=0.1, torn_page_rate=0.05)
        )
        noisy_pairs, noisy_report = run(chaos)
        assert noisy_pairs == quiet_pairs
        assert noisy_report.total_io.retries > 0


def test_interval_tree_module_passes_pin_discipline():
    from pathlib import Path

    from tools.analysis import all_checkers, run_checks

    checkers = [c for c in all_checkers() if c.name == "pin-discipline"]
    assert checkers
    findings, errors = run_checks([Path(interval_tree.__file__)], checkers)
    assert not errors
    assert findings == []
