"""Tests for the disk-based B+-tree."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import pbitree as pt
from repro.index.bptree import BPlusTree
from repro.storage.buffer import BufferManager
from repro.storage.disk import DiskManager
from repro.storage.record import MAX_CODE_BITS


def make_env(frames=32, page_size=128):
    disk = DiskManager(page_size=page_size)
    return disk, BufferManager(disk, frames)


class TestBulkLoad:
    @given(st.lists(st.integers(0, 10**6), max_size=600), st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_scan_matches_input(self, keys, _seed):
        _disk, bufmgr = make_env()
        entries = sorted((k, i) for i, k in enumerate(keys))
        tree = BPlusTree.bulk_load(bufmgr, entries)
        assert list(tree.scan_all()) == entries
        assert len(tree) == len(entries)

    def test_unsorted_input_rejected(self):
        _disk, bufmgr = make_env()
        with pytest.raises(ValueError):
            BPlusTree.bulk_load(bufmgr, [(5, 0), (1, 1)])

    def test_empty(self):
        _disk, bufmgr = make_env()
        tree = BPlusTree.bulk_load(bufmgr, [])
        assert list(tree.scan_all()) == []
        assert tree.search(4) == []
        assert tree.first_geq(0) is None

    def test_height_grows_logarithmically(self):
        _disk, bufmgr = make_env(page_size=128)  # 7 leaf entries/page
        tree = BPlusTree.bulk_load(bufmgr, [(i, i) for i in range(1000)])
        assert 3 <= tree.height <= 5

    def test_fill_factor(self):
        _disk, bufmgr = make_env()
        full = BPlusTree.bulk_load(bufmgr, [(i, i) for i in range(500)])
        half = BPlusTree.bulk_load(
            bufmgr, [(i, i) for i in range(500)], fill_factor=0.5
        )
        assert half.num_nodes > full.num_nodes

    def test_bad_fill_factor(self):
        _disk, bufmgr = make_env()
        with pytest.raises(ValueError):
            BPlusTree.bulk_load(bufmgr, [], fill_factor=0.0)


class TestInsert:
    @given(
        st.lists(st.tuples(st.integers(0, 50), st.integers(0, 10**6)), max_size=400)
    )
    @settings(max_examples=20, deadline=None)
    def test_insert_matches_multiset(self, items):
        _disk, bufmgr = make_env()
        tree = BPlusTree(bufmgr)
        for key, value in items:
            tree.insert(key, value)
        assert Counter(tree.scan_all()) == Counter(items)
        assert sorted(k for k, _v in tree.scan_all()) == sorted(
            k for k, _v in items
        )

    def test_interleaved_insert_and_search(self):
        _disk, bufmgr = make_env()
        tree = BPlusTree(bufmgr)
        for i in range(300):
            tree.insert(i * 7 % 100, i)
            assert i in [v for _k, v in tree.range_scan(0, 10**9)]


class TestSearch:
    def entries(self):
        return [(k, k * 10) for k in range(0, 200, 2)]  # even keys only

    def test_point_search(self):
        _disk, bufmgr = make_env()
        tree = BPlusTree.bulk_load(bufmgr, self.entries())
        assert tree.search(40) == [400]
        assert tree.search(41) == []

    def test_range_inclusive_exclusive(self):
        _disk, bufmgr = make_env()
        tree = BPlusTree.bulk_load(bufmgr, self.entries())
        assert [k for k, _ in tree.range_scan(10, 20)] == [10, 12, 14, 16, 18, 20]
        assert [k for k, _ in tree.range_scan(10, 20, include_lo=False)] == [
            12, 14, 16, 18, 20
        ]
        assert [k for k, _ in tree.range_scan(10, 20, include_hi=False)] == [
            10, 12, 14, 16, 18
        ]

    def test_range_outside_key_space(self):
        _disk, bufmgr = make_env()
        tree = BPlusTree.bulk_load(bufmgr, self.entries())
        assert list(tree.range_scan(1000, 2000)) == []

    def test_first_geq(self):
        _disk, bufmgr = make_env()
        tree = BPlusTree.bulk_load(bufmgr, self.entries())
        assert tree.first_geq(0) == (0, 0)
        assert tree.first_geq(41) == (42, 420)
        assert tree.first_geq(199) is None

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=400))
    @settings(max_examples=20, deadline=None)
    def test_duplicates_across_leaf_boundaries(self, keys):
        """Regression: bisect_left descent must find leading duplicates."""
        _disk, bufmgr = make_env(page_size=128)
        entries = sorted((k, i) for i, k in enumerate(keys))
        tree = BPlusTree.bulk_load(bufmgr, entries)
        for key in set(keys):
            want = [(k, v) for k, v in entries if k == key]
            assert list(tree.range_scan(key, key)) == want


class TestExclusiveBoundsAcrossLeaves:
    """Every leaf a scan enters is cut at ``lo``: an exclusive ``lo``
    whose duplicates run past the first leaf used to leak them from the
    second leaf on (only the landing leaf was cut with bisect_right)."""

    def test_exclusive_lo_skips_duplicates_past_the_first_leaf(self):
        _disk, bufmgr = make_env(page_size=128)  # 7 entries per leaf
        keys = [1, 2, 3] + [5] * 12 + [6, 7]
        tree = BPlusTree.bulk_load(bufmgr, [(k, i) for i, k in enumerate(keys)])
        assert [k for k, _v in tree.range_scan(5, 7, include_lo=False)] == [6, 7]

    @given(
        runs=st.lists(
            st.tuples(st.integers(0, 12), st.integers(1, 20)), min_size=1, max_size=12
        ),
        bounds=st.tuples(st.integers(-1, 13), st.integers(-1, 13)),
        bulk=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_all_bound_combinations_match_sorted_list(self, runs, bounds, bulk):
        """Runs of up to 20 equal keys straddle 7-entry leaves; all four
        bound combinations, with the bounds on or between the keys."""
        _disk, bufmgr = make_env(page_size=128)
        keys = sorted(key for key, length in runs for _ in range(length))
        entries = [(k, i) for i, k in enumerate(keys)]
        if bulk:
            tree = BPlusTree.bulk_load(bufmgr, entries)
        else:
            tree = BPlusTree(bufmgr)
            for key, value in entries:
                tree.insert(key, value)
        lo, hi = max(0, min(bounds)), max(0, max(bounds))
        for include_lo in (True, False):
            for include_hi in (True, False):
                expected = [
                    k
                    for k, _v in entries
                    if (lo <= k if include_lo else lo < k)
                    and (k <= hi if include_hi else k < hi)
                ]
                scanned = tree.range_scan(lo, hi, include_lo, include_hi)
                assert [k for k, _v in scanned] == expected, (include_lo, include_hi)


class TestIOBehaviour:
    def test_probe_cost_is_height(self):
        disk, bufmgr = make_env(frames=4, page_size=128)
        tree = BPlusTree.bulk_load(bufmgr, [(i, i) for i in range(2000)])
        bufmgr.flush_all()
        bufmgr.evict_all()
        disk.stats.reset()
        tree.search(999)
        assert disk.stats.reads <= tree.height + 1

    def test_page_size_too_small_rejected(self):
        disk = DiskManager(page_size=64)
        bufmgr = BufferManager(disk, 4)
        # 64-byte pages hold 3 leaf entries: fine
        BPlusTree(bufmgr)

    def test_node_cache_charges_a_fresh_decode(self):
        """A decoded-node cache hit still pins the page: a repeated cold
        probe reads exactly what the first one read."""
        disk, bufmgr = make_env(frames=4, page_size=128)
        tree = BPlusTree.bulk_load(bufmgr, [(i, i) for i in range(2000)])
        reads = []
        for _ in range(2):
            bufmgr.flush_all()
            bufmgr.evict_all()
            disk.stats.reset()
            assert [k for k, _v in tree.range_scan(700, 760)] == list(
                range(700, 761)
            )
            reads.append(disk.stats.reads)
        assert reads[0] == reads[1] > tree.height

    def test_insert_invalidates_cached_nodes(self):
        _disk, bufmgr = make_env()
        tree = BPlusTree.bulk_load(bufmgr, [(k, k) for k in range(0, 400, 2)])
        assert tree.search(101) == []  # the leaf is now decoded and cached
        tree.insert(101, 7)
        assert tree.search(101) == [7]
        assert tree.first_geq(101) == (101, 7)


class TestDestroy:
    def test_bulk_loaded_tree_frees_every_page(self):
        disk, bufmgr = make_env(frames=4)
        tree = BPlusTree.bulk_load(bufmgr, [(i, i) for i in range(1000)])
        assert disk.num_allocated == tree.num_nodes > 0
        tree.search(500)
        tree.destroy()
        assert disk.num_allocated == 0
        assert list(tree.scan_all()) == [] and len(tree) == 0

    def test_tree_grown_by_splits_frees_every_page(self):
        disk, bufmgr = make_env(frames=4)
        tree = BPlusTree(bufmgr)
        for i in range(600):
            tree.insert(i * 37 % 600, i)
        assert tree.height > 1
        tree.destroy()
        assert disk.num_allocated == 0
        assert tree.search(37) == []


# ----------------------------------------------------------------------
# probes over PBiTree Start keys, against a sorted-list oracle
# ----------------------------------------------------------------------
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


def start_index(codes, fill_factor=1.0, frames=16):
    """``(tree, entries)``: the Start index INLJN probes, and its oracle."""
    _disk, bufmgr = make_env(frames=frames, page_size=256)
    entries = sorted((pt.start_of(c), c) for c in codes)
    tree = BPlusTree.bulk_load(bufmgr, entries, fill_factor=fill_factor)
    return tree, entries


class TestStartKeyProbes:
    @given(codes=code_arrays, probes=st.lists(st.integers(0, MAX_CODE),
                                              min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_search_and_first_geq(self, codes, probes):
        tree, entries = start_index(codes)
        for key in probes + [pt.start_of(c) for c in codes[:5]]:
            assert tree.search(key) == [v for k, v in entries if k == key]
            above = [(k, v) for k, v in entries if k >= key]
            assert tree.first_geq(key) == (above[0] if above else None)
        assert tree.bufmgr.num_pinned == 0

    @given(
        codes=code_arrays,
        bounds=st.tuples(st.integers(0, MAX_CODE), st.integers(0, MAX_CODE)),
        include_lo=st.booleans(),
        include_hi=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_range_scan(self, codes, bounds, include_lo, include_hi):
        tree, entries = start_index(codes)
        lo, hi = min(bounds), max(bounds)
        expected = [
            (k, v)
            for k, v in entries
            if (lo <= k if include_lo else lo < k)
            and (k <= hi if include_hi else k < hi)
        ]
        assert list(tree.range_scan(lo, hi, include_lo, include_hi)) == expected
        assert tree.bufmgr.num_pinned == 0

    @given(codes=code_arrays)
    @settings(max_examples=30, deadline=None)
    def test_scan_all(self, codes):
        tree, entries = start_index(codes)
        assert list(tree.scan_all()) == entries

    @pytest.mark.parametrize("fill_factor", [0.5, 0.7, 1.0])
    def test_fill_factor_layouts(self, fill_factor):
        """Every node layout answers a region probe — the INLJN outer-A
        step — exactly like the oracle."""
        rng = random.Random(5)
        codes = [rng.randrange(1, MAX_CODE) for _ in range(400)]
        tree, entries = start_index(codes, fill_factor, frames=32)
        assert tree.height > 1
        for c in rng.sample(codes, 40):
            start, end = pt.region_of(c)
            assert list(tree.range_scan(start, end)) == [
                (k, v) for k, v in entries if start <= k <= end
            ]

    def test_abandoned_scan_leaves_nothing_pinned(self):
        rng = random.Random(6)
        codes = [rng.randrange(1, MAX_CODE) for _ in range(300)]
        tree, _entries = start_index(codes, frames=32)
        scan = tree.range_scan(0, MAX_CODE)
        next(scan)
        scan.close()
        assert tree.bufmgr.num_pinned == 0
