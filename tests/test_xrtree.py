"""Tests for the XR-tree (footnote [8]: Jiang et al., ICDE 2003) and
INLJN probing it (ablation A6's code)."""

import random

from hypothesis import given, settings, strategies as st

from benchmarks.ablations.xrtree import XRProbeJoin, XRTree
from repro import (
    BufferManager,
    DiskManager,
    ElementSet,
    IndexNestedLoopJoin,
    JoinSink,
    binarize,
    brute_force_join,
    random_tree,
)
from repro.core import pbitree as pt


def make_env(frames=32, page_size=256):
    disk = DiskManager(page_size=page_size)
    return disk, BufferManager(disk, frames)


def brute_stab(codes, point):
    return sorted(
        code for code in codes
        if pt.start_of(code) <= point <= pt.end_of(code)
    )


class TestStabQueries:
    @given(
        st.integers(20, 1200),
        st.integers(0, 50),
        st.sampled_from([2, 4, 16]),
    )
    @settings(max_examples=15, deadline=None)
    def test_matches_brute_force(self, num_nodes, seed, fanout):
        tree = random_tree(num_nodes, max_fanout=fanout, seed=seed)
        binarize(tree)
        rng = random.Random(seed)
        codes = rng.sample(tree.codes, max(1, num_nodes // 2))
        _disk, bufmgr = make_env()
        xr = XRTree.build(bufmgr, codes)
        for _ in range(40):
            probe = rng.choice(tree.codes)
            point = pt.start_of(probe)
            got = sorted(code for _s, _e, code in xr.stab(point))
            assert got == brute_stab(codes, point)

    def test_empty(self):
        _disk, bufmgr = make_env()
        xr = XRTree.build(bufmgr, [])
        assert list(xr.stab(5)) == []
        assert len(xr) == 0

    def test_single_element(self):
        _disk, bufmgr = make_env()
        xr = XRTree.build(bufmgr, [20])  # region (17, 23)
        assert [c for _s, _e, c in xr.stab(20)] == [20]
        assert list(xr.stab(24)) == []

    def test_nested_chain(self):
        """All elements on one root path contain the leaf's start."""
        _disk, bufmgr = make_env()
        chain = [16, 8, 4, 2, 1]  # H=5 leftmost chain, all Start = 1
        xr = XRTree.build(bufmgr, chain)
        got = sorted(code for _s, _e, code in xr.stab(1))
        assert got == sorted(chain)

    def test_each_element_in_at_most_one_stab_list(self):
        tree = random_tree(800, seed=6)
        binarize(tree)
        _disk, bufmgr = make_env(page_size=128)
        xr = XRTree.build(bufmgr, tree.codes)
        total_in_lists = sum(
            len(heap) for heap in xr._stab_lists.values()
        )
        assert total_in_lists == xr.num_stabbed
        assert xr.num_stabbed <= len(tree.codes)

    def test_destroy_frees_tree_and_stab_lists(self):
        tree = random_tree(800, seed=6)
        binarize(tree)
        disk, bufmgr = make_env(page_size=128)
        xr = XRTree.build(bufmgr, tree.codes)
        assert xr._stab_lists and disk.num_allocated > 0
        xr.destroy()
        assert disk.num_allocated == 0
        assert list(xr.stab(pt.start_of(tree.codes[0]))) == []


class TestXRProbeJoin:
    def test_inljn_with_xr_probe_matches_brute_force(self):
        rng = random.Random(8)
        tree = random_tree(900, seed=8)
        encoding = binarize(tree)
        a_codes = rng.sample(tree.codes, 400)
        d_codes = rng.sample(tree.codes, 30)  # small D -> probe A side
        _disk, bufmgr = make_env()
        a_set = ElementSet.from_codes(bufmgr, a_codes, encoding.tree_height)
        d_set = ElementSet.from_codes(bufmgr, d_codes, encoding.tree_height)
        sink = JoinSink("collect")
        report = XRProbeJoin().run(a_set, d_set, sink)
        assert sorted(sink.pairs) == sorted(brute_force_join(a_codes, d_codes))
        assert report.prep_io.allocations > 0  # the XR-tree build is prep

    def test_prebuilt_xr_index(self):
        tree = random_tree(300, seed=9)
        encoding = binarize(tree)
        _disk, bufmgr = make_env()
        a_set = ElementSet.from_codes(bufmgr, tree.codes, encoding.tree_height)
        d_set = ElementSet.from_codes(bufmgr, tree.codes[:10], encoding.tree_height)
        index = XRTree.build(bufmgr, a_set.scan())
        for algorithm in (IndexNestedLoopJoin, XRProbeJoin):
            report = algorithm(a_index=index).run(a_set, d_set, JoinSink("count"))
            assert report.prep_io.total == 0


class TestIOBehaviour:
    def test_cold_stab_charges_io(self):
        tree = random_tree(2000, seed=10)
        binarize(tree)
        disk, bufmgr = make_env(frames=4, page_size=128)
        xr = XRTree.build(bufmgr, tree.codes)
        bufmgr.flush_all()
        bufmgr.evict_all()
        disk.stats.reset()
        result = list(xr.stab(pt.start_of(tree.codes[100])))
        # cost = one descent + the stab-list pages along the path; far
        # below a full scan of the index
        full_scan = xr._btree.num_nodes + sum(
            heap.num_pages for heap in xr._stab_lists.values()
        )
        assert 0 < disk.stats.reads < full_scan / 4
        assert result  # the probe point has ancestors in a random tree
