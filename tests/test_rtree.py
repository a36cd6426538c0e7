"""Tests for the disk-based R-tree and the spatial containment joins
(ablation A3's code)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from benchmarks.ablations.rtree import Rect, RTree
from benchmarks.ablations.spatial import (
    RTreeProbeJoin,
    SynchronizedRTreeJoin,
    build_point_rtree,
    point_of,
    probe_window,
)
from repro import (
    BufferManager,
    DiskManager,
    ElementSet,
    FaultInjector,
    JoinSink,
    PermanentIOError,
    binarize,
    brute_force_join,
    random_tree,
)


def make_env(frames=32, page_size=512):
    disk = DiskManager(page_size=page_size)
    return disk, BufferManager(disk, frames)


@st.composite
def rect_lists(draw):
    n = draw(st.integers(0, 150))
    out = []
    for i in range(n):
        x = draw(st.integers(0, 1000))
        y = draw(st.integers(0, 1000))
        out.append((Rect(x, y, x + draw(st.integers(0, 80)),
                         y + draw(st.integers(0, 80))), i))
    return out


class TestRect:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Rect(5, 0, 4, 10)

    def test_point(self):
        point = Rect.point(3, 7)
        assert point.as_tuple() == (3, 7, 3, 7)

    def test_intersects(self):
        a = Rect(0, 0, 10, 10)
        assert a.intersects(Rect(5, 5, 15, 15))
        assert a.intersects(Rect(10, 10, 20, 20))  # touching counts
        assert not a.intersects(Rect(11, 0, 20, 10))

    def test_enlarged(self):
        a = Rect(0, 0, 4, 4)
        assert a.enlarged(Rect(6, 6, 8, 8)).as_tuple() == (0, 0, 8, 8)
        assert a.enlarged(Rect(1, 1, 2, 2)).as_tuple() == a.as_tuple()


class TestRTreeQueries:
    @given(rect_lists(), st.lists(st.tuples(
        st.integers(0, 1100), st.integers(0, 1100),
        st.integers(0, 200), st.integers(0, 200)), max_size=15))
    @settings(max_examples=20, deadline=None)
    def test_bulk_load_matches_brute_force(self, entries, windows):
        _disk, bufmgr = make_env()
        tree = RTree.bulk_load(bufmgr, entries)
        assert len(tree) == len(entries)
        for x, y, w, h in windows:
            window = Rect(x, y, x + w, y + h)
            want = sorted(
                (rect.as_tuple(), payload)
                for rect, payload in entries
                if window.intersects(rect)
            )
            got = sorted(
                (rect.as_tuple(), payload)
                for rect, payload in tree.search(window)
            )
            assert got == want

    def test_empty_tree(self):
        _disk, bufmgr = make_env()
        tree = RTree.bulk_load(bufmgr, [])
        assert list(tree.search(Rect(0, 0, 10, 10))) == []
        assert len(tree) == 0

    def test_height_grows(self):
        _disk, bufmgr = make_env(page_size=512)
        entries = [(Rect.point(i, i), i) for i in range(3000)]
        tree = RTree.bulk_load(bufmgr, entries)
        assert tree.height >= 2
        probe = list(tree.search(Rect(100, 100, 110, 110)))
        assert len(probe) == 11

    def test_cold_probe_charges_io(self):
        disk, bufmgr = make_env(frames=4)
        entries = [(Rect.point(i, i), i) for i in range(2000)]
        tree = RTree.bulk_load(bufmgr, entries)
        bufmgr.flush_all()
        bufmgr.evict_all()
        disk.stats.reset()
        list(tree.search(Rect(500, 500, 510, 510)))
        assert disk.stats.reads > 0

    def test_destroy_frees_every_node(self):
        disk, bufmgr = make_env(frames=4)
        entries = [(Rect.point(i, i), i) for i in range(2000)]
        tree = RTree.bulk_load(bufmgr, entries)
        assert tree.height >= 2 and disk.num_allocated > 1
        tree.destroy()
        assert disk.num_allocated == 0
        assert len(tree) == 0 and list(tree.search(Rect(0, 0, 9, 9))) == []

    @pytest.mark.parametrize("at", [1, 7, 30])
    def test_failed_load_frees_its_nodes(self, at):
        injector = FaultInjector(seed=0)
        disk = DiskManager(page_size=512, faults=injector)
        bufmgr = BufferManager(disk, 4)
        injector.schedule("write-error", at=at, permanent=True)
        entries = [(Rect.point(i, i), i) for i in range(2000)]
        with pytest.raises(PermanentIOError):
            RTree.bulk_load(bufmgr, entries)
        assert disk.num_allocated == 0
        assert bufmgr.num_pinned == 0

    def test_small_page_rejected(self):
        disk = DiskManager(page_size=64)
        bufmgr = BufferManager(disk, 4)
        with pytest.raises(ValueError):
            RTree(bufmgr)


class TestSpatialMapping:
    def test_point_of_uses_region(self):
        # node 20 in the H=5 example tree: region (17, 23)
        assert point_of(20).as_tuple() == (17, 23, 17, 23)

    def test_probe_window_covers_descendants(self):
        window = probe_window(20)
        for code in (17, 18, 19, 21, 22, 23):
            assert window.intersects(point_of(code)), code
        assert not window.intersects(point_of(25))


class TestSpatialJoins:
    @pytest.mark.parametrize(
        "algorithm_cls", [RTreeProbeJoin, SynchronizedRTreeJoin],
        ids=lambda c: c.__name__,
    )
    def test_matches_brute_force(self, algorithm_cls):
        rng = random.Random(17)
        for trial in range(4):
            tree = random_tree(
                rng.randrange(50, 800), max_fanout=rng.choice([3, 12]), seed=trial
            )
            encoding = binarize(tree)
            a_codes = rng.sample(tree.codes, rng.randrange(1, len(tree) // 2 + 1))
            d_codes = rng.sample(tree.codes, rng.randrange(1, len(tree) // 2 + 1))
            _disk, bufmgr = make_env()
            a_set = ElementSet.from_codes(bufmgr, a_codes, encoding.tree_height)
            d_set = ElementSet.from_codes(bufmgr, d_codes, encoding.tree_height)
            sink = JoinSink("collect")
            algorithm_cls().run(a_set, d_set, sink)
            assert sorted(sink.pairs) == sorted(
                brute_force_join(a_codes, d_codes)
            ), trial

    def test_prebuilt_index_skips_prep(self):
        tree = random_tree(300, seed=4)
        encoding = binarize(tree)
        _disk, bufmgr = make_env()
        a_set = ElementSet.from_codes(bufmgr, tree.codes[:100], encoding.tree_height)
        d_set = ElementSet.from_codes(bufmgr, tree.codes[100:], encoding.tree_height)
        index = build_point_rtree(d_set, bufmgr)
        report = RTreeProbeJoin(d_index=index).run(a_set, d_set, JoinSink("count"))
        assert report.prep_io.total == 0

    @pytest.mark.parametrize(
        "algorithm_cls", [RTreeProbeJoin, SynchronizedRTreeJoin],
        ids=lambda c: c.__name__,
    )
    def test_empty_inputs(self, algorithm_cls):
        tree = random_tree(50, seed=5)
        encoding = binarize(tree)
        _disk, bufmgr = make_env()
        empty = ElementSet.from_codes(bufmgr, [], encoding.tree_height)
        full = ElementSet.from_codes(bufmgr, tree.codes, encoding.tree_height)
        sink = JoinSink("collect")
        algorithm_cls().run(empty, full, sink)
        assert sink.pairs == []
        sink = JoinSink("collect")
        algorithm_cls().run(full, empty, sink)
        assert sink.pairs == []
