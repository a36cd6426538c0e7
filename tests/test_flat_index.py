"""Differential tests for the flat-array static indexes.

:class:`~repro.index.flat.FlatStartIndex` and
:class:`~repro.index.flat.FlatIntervalTree` rebuild the probe paths of
the pointer B+-tree and interval tree over flat per-page columns.  The
pointer classes stay alive as the differential oracle, and this suite
pins the contract from both directions:

* **results** — every probe (range scan with all bound combinations,
  point search, stabbing query) returns the same items in the same
  order as the pointer index over hypothesis-generated corpora;
* **accounting** — INLJN runs and whole Figure 6(b) line-ups produce
  field-for-field identical :class:`JoinReport` objects (I/O counters,
  buffer hits/misses, result counts) with flat indexes on or off (the
  line-up half lives in tests/test_exec_matrix.py);
* **faults** — chaos-seed transient read faults replay identically
  through flat probes (retries absorbed, results unchanged);
* **discipline** — flat probes leave nothing pinned, even when a lazy
  scan is abandoned mid-page, and the pin-discipline checker finds no
  violations in the module's source.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    BufferManager,
    DiskManager,
    FaultConfig,
    FaultInjector,
    JoinSink,
    RetryPolicy,
)
from repro.core import pbitree as pt
from repro.core.execconfig import exec_scope
from repro.experiments.harness import Workbench, materialize, run_algorithm
from repro.index import flat
from repro.index.bptree import BPlusTree
from repro.index.flat import FlatIntervalTree, FlatStartIndex
from repro.index.interval_tree import IntervalTree
from repro.join.inljn import (
    IndexNestedLoopJoin,
    build_interval_index,
    build_start_index,
)
from repro.storage.record import MAX_CODE_BITS

from .differential import assert_reports_equal, lineup_inputs

MAX_CODE = (1 << MAX_CODE_BITS) - 1

#: edges of the coding space (same lineup as tests/test_batch.py)
BOUNDARY_CODES = [1, 2, 3, 1 << 62, (1 << 62) + (1 << 61), MAX_CODE]

code_arrays = st.lists(
    st.one_of(
        st.integers(min_value=1, max_value=MAX_CODE),
        st.sampled_from(BOUNDARY_CODES),
    ),
    min_size=1,
    max_size=80,
)


def make_bufmgr(buffer_pages=16, page_size=256):
    return BufferManager(DiskManager(page_size=page_size), buffer_pages)


def build_tree_pair(codes, bufmgr, fill_factor=1.0):
    """Pointer and flat B+-trees bulk-loaded from the same entries."""
    entries = sorted((pt.start_of(c), c) for c in codes)
    pointer = BPlusTree.bulk_load(
        bufmgr, entries, name="ptr", fill_factor=fill_factor
    )
    flat_idx = FlatStartIndex.bulk_load(
        bufmgr, entries, name="flat", fill_factor=fill_factor
    )
    return pointer, flat_idx


def build_interval_pair(codes, bufmgr):
    """Pointer and flat interval trees built from the same regions."""
    intervals = [(*pt.region_of(c), c) for c in codes]
    pointer = IntervalTree.build(bufmgr, intervals, name="ptr")
    flat_idx = FlatIntervalTree.build(bufmgr, intervals, name="flat")
    return pointer, flat_idx


# ----------------------------------------------------------------------
# the oracle switch
# ----------------------------------------------------------------------
class TestSwitch:
    def test_default_off(self):
        assert flat.flat_enabled() is False

    def test_scope_nesting_restores(self):
        with exec_scope(flat_index=True):
            assert flat.flat_enabled() is True
            with exec_scope(flat_index=False):
                assert flat.flat_enabled() is False
            assert flat.flat_enabled() is True
        assert flat.flat_enabled() is False

    def test_scope_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with exec_scope(flat_index=True):
                raise RuntimeError("boom")
        assert flat.flat_enabled() is False

    def test_builders_follow_switch(self):
        bufmgr = make_bufmgr()
        wb = Workbench.create(16, 256)
        elements = materialize(wb.bufmgr, [1, 2, 3], 62, "E")
        with exec_scope(flat_index=True):
            assert isinstance(
                build_start_index(elements, wb.bufmgr, "s"), FlatStartIndex
            )
            assert isinstance(
                build_interval_index(elements, wb.bufmgr, "i"),
                FlatIntervalTree,
            )
        with exec_scope(flat_index=False):
            d_index = build_start_index(elements, wb.bufmgr, "s2")
            a_index = build_interval_index(elements, wb.bufmgr, "i2")
            assert type(d_index) is BPlusTree
            assert type(a_index) is IntervalTree
        del bufmgr


# ----------------------------------------------------------------------
# flat B+-tree vs pointer oracle
# ----------------------------------------------------------------------
class TestFlatStartIndexDifferential:
    @given(codes=code_arrays, probes=st.lists(st.integers(0, MAX_CODE),
                                              min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_search_and_first_geq(self, codes, probes):
        bufmgr = make_bufmgr()
        pointer, flat_idx = build_tree_pair(codes, bufmgr)
        for key in probes + [pt.start_of(c) for c in codes[:5]]:
            assert flat_idx.search(key) == pointer.search(key)
            assert flat_idx.first_geq(key) == pointer.first_geq(key)
        assert bufmgr.num_pinned == 0

    @given(
        codes=code_arrays,
        bounds=st.tuples(st.integers(0, MAX_CODE), st.integers(0, MAX_CODE)),
        include_lo=st.booleans(),
        include_hi=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_range_scan(self, codes, bounds, include_lo, include_hi):
        bufmgr = make_bufmgr()
        pointer, flat_idx = build_tree_pair(codes, bufmgr)
        lo, hi = min(bounds), max(bounds)
        expected = list(pointer.range_scan(lo, hi, include_lo, include_hi))
        got = list(flat_idx.range_scan(lo, hi, include_lo, include_hi))
        assert got == expected
        # the bulk probe is the same scan with slice extraction
        if include_lo and include_hi:
            assert flat_idx.range_values(lo, hi) == [v for _k, v in expected]
        assert bufmgr.num_pinned == 0

    @given(codes=code_arrays)
    @settings(max_examples=30, deadline=None)
    def test_scan_all(self, codes):
        bufmgr = make_bufmgr()
        pointer, flat_idx = build_tree_pair(codes, bufmgr)
        assert list(flat_idx.scan_all()) == list(pointer.scan_all())

    @pytest.mark.parametrize("fill_factor", [0.5, 0.7, 1.0])
    def test_fill_factor_layouts(self, fill_factor):
        rng = random.Random(5)
        codes = [rng.randrange(1, MAX_CODE) for _ in range(400)]
        bufmgr = make_bufmgr(buffer_pages=32)
        pointer, flat_idx = build_tree_pair(codes, bufmgr, fill_factor)
        assert flat_idx.height == pointer.height
        for c in rng.sample(codes, 40):
            start, end = pt.region_of(c)
            assert list(flat_idx.range_scan(start, end)) == list(
                pointer.range_scan(start, end)
            )

    def test_insert_raises(self):
        bufmgr = make_bufmgr()
        _, flat_idx = build_tree_pair([1, 2, 3], bufmgr)
        with pytest.raises(TypeError, match="static"):
            flat_idx.insert(7, 7)

    def test_abandoned_scan_leaves_nothing_pinned(self):
        rng = random.Random(6)
        codes = [rng.randrange(1, MAX_CODE) for _ in range(300)]
        bufmgr = make_bufmgr(buffer_pages=32)
        _, flat_idx = build_tree_pair(codes, bufmgr)
        scan = flat_idx.range_scan(0, MAX_CODE)
        next(scan)
        scan.close()
        assert bufmgr.num_pinned == 0


# ----------------------------------------------------------------------
# flat interval tree vs pointer oracle
# ----------------------------------------------------------------------
class TestFlatIntervalTreeDifferential:
    @given(codes=code_arrays, extra=st.lists(st.integers(0, MAX_CODE),
                                             max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_stab(self, codes, extra):
        bufmgr = make_bufmgr()
        pointer, flat_idx = build_interval_pair(codes, bufmgr)
        points = [pt.start_of(c) for c in codes[:10]] + extra
        for point in points:
            expected = list(pointer.stab(point))
            assert list(flat_idx.stab(point)) == expected
            # the bulk probe extracts the same payload column
            assert flat_idx.stab_codes(point) == [a for _s, _e, a in expected]
        assert bufmgr.num_pinned == 0

    def test_abandoned_stab_leaves_nothing_pinned(self):
        # stab materializes under the probe guard (the whole probe is
        # atomic against mark_stale), so even an abandoned, partially
        # consumed result holds no pins.
        rng = random.Random(8)
        codes = [rng.randrange(1, MAX_CODE) for _ in range(300)]
        bufmgr = make_bufmgr(buffer_pages=32)
        _, flat_idx = build_interval_pair(codes, bufmgr)
        deepest = max(codes, key=pt.height_of)
        scan = flat_idx.stab(pt.start_of(deepest))
        next(scan, None)
        del scan
        assert bufmgr.num_pinned == 0


# ----------------------------------------------------------------------
# INLJN reports are field-for-field identical
# ----------------------------------------------------------------------
class TestINLJNDifferential:
    @pytest.mark.parametrize("force_outer", ["A", "D"])
    @pytest.mark.parametrize("batch_size", [0, 1024])
    def test_reports_identical(self, force_outer, batch_size):
        a_codes, d_codes, tree_height = lineup_inputs()
        reports = {}
        pairs = {}
        for enabled in (False, True):
            wb = Workbench.create(16, 256)
            ancestors = materialize(wb.bufmgr, a_codes, tree_height, "A")
            descendants = materialize(wb.bufmgr, d_codes, tree_height, "D")
            sink = JoinSink("collect")
            with exec_scope(batch_size=batch_size, flat_index=enabled):
                reports[enabled] = run_algorithm(
                    IndexNestedLoopJoin(force_outer=force_outer),
                    ancestors,
                    descendants,
                    sink,
                )
            pairs[enabled] = sink.pairs
            assert wb.bufmgr.num_pinned == 0
        assert_reports_equal(reports[True], reports[False])
        assert pairs[True] == pairs[False]


# ----------------------------------------------------------------------
# chaos: transient faults replay identically through flat probes
# ----------------------------------------------------------------------
class TestFaultReplay:
    @pytest.mark.parametrize("force_outer", ["A", "D"])
    def test_flat_probes_absorb_transient_faults(self, force_outer):
        a_codes, d_codes, tree_height = lineup_inputs()

        def run(enabled, faults):
            # a whole join reads far more pages than the cursor-scan
            # chaos test, so give the 10% fault rate enough attempts
            # that no page degenerates to a permanent error
            wb = Workbench.create(
                16, 256, faults=faults, retry=RetryPolicy(max_attempts=12)
            )
            ancestors = materialize(wb.bufmgr, a_codes, tree_height, "A")
            descendants = materialize(wb.bufmgr, d_codes, tree_height, "D")
            sink = JoinSink("collect")
            with exec_scope(batch_size=1024, flat_index=enabled):
                report = run_algorithm(
                    IndexNestedLoopJoin(force_outer=force_outer),
                    ancestors,
                    descendants,
                    sink,
                )
            return sink.pairs, report

        quiet_pairs, _ = run(True, None)
        chaos = FaultInjector(
            FaultConfig(seed=3, read_error_rate=0.1, torn_page_rate=0.05)
        )
        noisy_pairs, noisy_report = run(True, chaos)
        oracle_pairs, _ = run(False, None)
        assert noisy_pairs == quiet_pairs == oracle_pairs
        assert noisy_report.total_io.retries > 0


# ----------------------------------------------------------------------
# pin discipline of the new module itself
# ----------------------------------------------------------------------
def test_flat_module_passes_pin_discipline():
    from pathlib import Path

    from repro.analysis import all_checkers, run_checks

    flat_path = Path(flat.__file__)
    checkers = [c for c in all_checkers() if c.name == "pin-discipline"]
    assert checkers
    findings, errors = run_checks([flat_path], checkers)
    assert not errors
    assert findings == []
