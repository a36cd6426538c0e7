"""INLJN's descendant-outer probe: ``F(d, h)`` point lookups on a Start
B+-tree over A must find exactly what the paper's interval-tree stab
finds (``IntervalProbeJoin``, ablation A6) and what a nested loop over
Lemma 1 finds, in every sink mode."""

import random

from hypothesis import given, settings, strategies as st

from benchmarks.ablations.stabprobe import IntervalProbeJoin
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
from repro.core import batch
from repro.core import pbitree as pt
from repro.join.inljn import build_start_index

SINK_MODES = ("collect", "count", "semi-a", "semi-d")


def make_sets(a_codes, d_codes, tree_height, frames=6, page_size=128):
    bufmgr = BufferManager(DiskManager(page_size=page_size), frames)
    a_set = ElementSet.from_codes(bufmgr, a_codes, tree_height, "A")
    d_set = ElementSet.from_codes(bufmgr, d_codes, tree_height, "D")
    return bufmgr, a_set, d_set


def expected(pairs, mode):
    """What a sink in ``mode`` holds after the oracle's pairs."""
    if mode == "collect":
        return sorted(pairs)
    if mode == "count":
        return len(pairs)
    side = 0 if mode == "semi-a" else 1
    return {pair[side] for pair in pairs}


def held(sink):
    if sink.mode == "collect":
        return sorted(sink.pairs)
    if sink.mode == "count":
        return sink.count
    return sink.survivors


def left_spine(code):
    """``code`` and its leftmost descendant at every height below it:
    all of them share ``code``'s region Start."""
    spine = [code]
    while code & 1 == 0:
        code -= (code & -code) >> 1
        spine.append(code)
    return spine


@st.composite
def code_sets(draw):
    """A and D over a PBiTree code space, A spanning several heights
    and both sides salted with left spines (codes sharing a Start)."""
    tree_height = draw(st.integers(3, 12))
    top = (1 << tree_height) - 1
    code = st.integers(1, top)
    a_codes = set(draw(st.lists(code, max_size=40)))
    d_codes = set(draw(st.lists(code, max_size=40)))
    for spine_top in draw(st.lists(code, max_size=3)):
        spine = left_spine(spine_top)
        a_codes.update(spine)
        d_codes.update(draw(st.lists(st.sampled_from(spine), max_size=3)))
    return sorted(a_codes), sorted(d_codes), tree_height


class TestThreeWayDifferential:
    @given(code_sets(), st.sampled_from(SINK_MODES), st.randoms())
    @settings(max_examples=150, deadline=None)
    def test_fprobe_matches_interval_stab_and_nested_loop(
        self, sets, mode, rnd
    ):
        a_codes, d_codes, tree_height = sets
        rnd.shuffle(a_codes)
        rnd.shuffle(d_codes)
        oracle = expected(brute_force_join(a_codes, d_codes), mode)
        for join in (IndexNestedLoopJoin, IntervalProbeJoin):
            bufmgr, a_set, d_set = make_sets(a_codes, d_codes, tree_height)
            sink = JoinSink(mode)
            report = join(force_outer="D").run(a_set, d_set, sink)
            assert held(sink) == oracle, join.__name__
            assert report.result_count == sink.count
            assert bufmgr.num_pinned == 0

    @given(st.integers(0, 10_000), st.sampled_from(SINK_MODES))
    @settings(max_examples=25, deadline=None)
    def test_random_tree_tags(self, seed, mode):
        """Element sets of a real document: one tag's elements as A
        (nested, so multi-height), another's as D."""
        tree = random_tree(150, max_fanout=4, seed=seed, tags=("a", "b"))
        encoding = binarize(tree)
        a_codes = [tree.codes[n] for n in tree.iter_by_tag("a")]
        d_codes = [tree.codes[n] for n in tree.iter_by_tag("b")]
        oracle = expected(brute_force_join(a_codes, d_codes), mode)
        for join in (IndexNestedLoopJoin, IntervalProbeJoin):
            _bufmgr, a_set, d_set = make_sets(
                a_codes, d_codes, encoding.tree_height
            )
            sink = JoinSink(mode)
            join(force_outer="D").run(a_set, d_set, sink)
            assert held(sink) == oracle, join.__name__


class TestFProbe:
    def test_shared_start_keeps_only_the_exact_height(self):
        """A left spine puts 16, 8, 2 and 1 under one Start (4 is left
        out); every lookup of that Start returns all four, and only the
        F(d, h) asked for is kept -- none for F(d, 2) = 4."""
        a_codes = [16, 8, 2, 1]
        d_codes = [3, 5]  # F(3, h) for h = 1..4: 2, 4, 8, 16; F(5, h): 6, 4, 8, 16
        _bufmgr, a_set, d_set = make_sets(a_codes, d_codes, 5)
        sink = JoinSink("collect")
        IndexNestedLoopJoin(force_outer="D").run(a_set, d_set, sink)
        assert sorted(sink.pairs) == [(2, 3), (8, 3), (8, 5), (16, 3), (16, 5)]

    def test_kernel_probes_only_ancestor_heights_above_d(self):
        candidates, points = batch.ancestor_points([5, 4, 16], [1, 2, 4])
        # 5 (height 0) probes heights 1, 2, 4; 4 (height 2) only 4;
        # 16 (height 4) nothing
        assert candidates == [(6, 5), (4, 5), (16, 5), (16, 4)]
        assert points == [(5, 5), (1, 1), (1, 1), (1, 1)]
        for (a_code, d_code), (start, _) in zip(candidates, points):
            assert pt.start_of(a_code) == start
            assert a_code == pt.f_ancestor(d_code, pt.height_of(a_code))

    def test_prebuilt_a_start_index_costs_no_prep(self):
        rng = random.Random(4)
        tree = random_tree(300, seed=4)
        encoding = binarize(tree)
        a_codes = rng.sample(tree.codes, 120)
        d_codes = rng.sample(tree.codes, 40)
        bufmgr, a_set, d_set = make_sets(
            a_codes, d_codes, encoding.tree_height, frames=16
        )
        index = build_start_index(a_set, bufmgr)
        sink = JoinSink("collect")
        report = IndexNestedLoopJoin(a_index=index, force_outer="D").run(
            a_set, d_set, sink
        )
        assert report.prep_io.total == 0
        assert sorted(sink.pairs) == sorted(brute_force_join(a_codes, d_codes))
        assert len(index) == len(a_codes)  # supplied, so not torn down

    def test_a_supplied_empty_index_is_probed_not_skipped(self):
        """An empty B+-tree has ``len`` 0; picking the supplied index
        with ``or`` skipped it for the (absent) on-the-fly one."""
        bufmgr, a_set, d_set = make_sets([], [], 3)
        for outer, side in (("A", d_set), ("D", a_set)):
            index = build_start_index(side, bufmgr)
            join = IndexNestedLoopJoin(
                **{f"{side.name.lower()}_index": index}, force_outer=outer
            )
            assert join.run(a_set, d_set, JoinSink("count")).result_count == 0

    def test_empty_ancestor_set_probes_nothing(self):
        _bufmgr, a_set, d_set = make_sets([], [1, 3, 5], 3)
        report = IndexNestedLoopJoin(force_outer="D").run(
            a_set, d_set, JoinSink("count")
        )
        assert report.result_count == 0
