"""Semijoin sinks: what every operator keeps in ``semi-d`` / ``semi-a`` mode.

``JoinSink("semi-d")`` / ``JoinSink("semi-a")`` keep the distinct
descendants / ancestors of a join's pairs.  The contract: for every
operator, the survivors are exactly the projection of the same
operator's ``collect`` pairs and the report counts them.  VPJ and INLJN
take survivors through fast paths of their own (``batch.region_semi``,
``height_probe(first_only=True)``, one ``set.update`` per probed
ancestor); every other operator through the sink's ``emit``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    BufferManager,
    DiskManager,
    ElementSet,
    JoinSink,
    binarize,
    random_tree,
)
from repro.core import batch
from repro.core import pbitree as pt
from repro.join.inljn import IndexNestedLoopJoin
from repro.join.planner import ALGORITHMS, make_algorithm
from repro.join.shcj import SingleHeightJoin
from repro.join.vpj import VerticalPartitionJoin, memory_containment_join
from repro.storage.heapfile import HeapFile
from repro.storage.record import CODE

SEMI_MODES = ("semi-d", "semi-a")


def project(pairs, mode):
    side = 1 if mode == "semi-d" else 0
    return {pair[side] for pair in pairs}


def make_sets(a_codes, d_codes, tree_height, frames=8, page_size=128):
    bufmgr = BufferManager(DiskManager(page_size=page_size), frames)
    return (
        bufmgr,
        ElementSet.from_codes(bufmgr, a_codes, tree_height, "A"),
        ElementSet.from_codes(bufmgr, d_codes, tree_height, "D"),
    )


def run_mode(make, a_codes, d_codes, tree_height, mode, frames=8):
    """One fresh pool per run, so every mode sees the same I/O."""
    _bufmgr, a_set, d_set = make_sets(a_codes, d_codes, tree_height, frames)
    sink = JoinSink(mode)
    report = make().run(a_set, d_set, sink)
    return sink, report


def assert_semi_contract(make, a_codes, d_codes, tree_height, frames=8):
    collect, collect_report = run_mode(
        make, a_codes, d_codes, tree_height, "collect", frames
    )
    for mode in SEMI_MODES:
        sink, report = run_mode(make, a_codes, d_codes, tree_height, mode, frames)
        assert sink.survivors == project(collect.pairs, mode), mode
        assert sink.pairs == []
        assert report.result_count == sink.count == len(sink.survivors), mode
        # the kept side changes what is stored, never what is read
        assert report.total_io == collect_report.total_io, mode
    return collect


def document(num_nodes=600, seed=5, fanout=4):
    tree = random_tree(num_nodes, max_fanout=fanout, seed=seed)
    return tree, binarize(tree).tree_height


def tag_codes(tree, tag):
    return [tree.codes[node] for node in tree.iter_by_tag(tag)]


def single_height(codes):
    """The codes of the most common height (SHCJ's input contract)."""
    by_height: dict[int, list[int]] = {}
    for code in codes:
        by_height.setdefault(pt.height_of(code), []).append(code)
    return max(by_height.values(), key=len)


OPERATORS = sorted(ALGORITHMS)


def operator_inputs(name, a_codes):
    return single_height(a_codes) if name == "SHCJ" else a_codes


class TestOperatorContract:
    @pytest.mark.parametrize("name", OPERATORS)
    def test_self_join_of_one_tag(self, name):
        # //a//a: every code is on both sides, so each ancestor's region
        # holds itself and the self-match must never survive
        tree, height = document()
        codes = operator_inputs(name, tag_codes(tree, "a"))
        d_codes = tag_codes(tree, "a")
        collect = assert_semi_contract(
            lambda: make_algorithm(name), codes, d_codes, height
        )
        assert collect.pairs, "the case must produce pairs"

    @pytest.mark.parametrize("name", OPERATORS)
    def test_two_tags(self, name):
        tree, height = document(seed=11)
        a_codes = operator_inputs(name, tag_codes(tree, "b"))
        assert_semi_contract(
            lambda: make_algorithm(name), a_codes, tag_codes(tree, "c"), height
        )

    @pytest.mark.parametrize("name", OPERATORS)
    @pytest.mark.parametrize("empty", ["A", "D"])
    def test_empty_side(self, name, empty):
        tree, height = document(num_nodes=200)
        codes = operator_inputs(name, tag_codes(tree, "a"))
        a_codes, d_codes = ([], codes) if empty == "A" else (codes, [])

        def make():
            # an empty ancestor set has no height for SHCJ to discover
            if name == "SHCJ" and not a_codes:
                return SingleHeightJoin(height=pt.height_of(codes[0]))
            return make_algorithm(name)

        for mode in SEMI_MODES:
            sink, report = run_mode(make, a_codes, d_codes, height, mode)
            assert sink.survivors == set() and report.result_count == 0

    @pytest.mark.parametrize("outer", ["A", "D"])
    def test_inljn_both_probe_directions(self, outer):
        tree, height = document(seed=3)
        assert_semi_contract(
            lambda: IndexNestedLoopJoin(force_outer=outer),
            tag_codes(tree, "a"),
            tag_codes(tree, "d"),
            height,
        )

    def test_vpj_recursion_in_a_tiny_pool(self):
        # 4 frames of 128 bytes against ~50 pages a side: VPJ partitions,
        # replicates high ancestors, memory-joins merged partitions with
        # dedup_above_height and falls back to rollup where it cannot split
        tree, height = document(num_nodes=3000, seed=8, fanout=8)
        a_codes, d_codes = tag_codes(tree, "a"), tag_codes(tree, "b")
        _bufmgr, a_set, d_set = make_sets(a_codes, d_codes, height, frames=4)
        report = VerticalPartitionJoin().run(a_set, d_set, JoinSink("count"))
        assert report.partitions > 0 and report.false_hits > 0
        assert_semi_contract(VerticalPartitionJoin, a_codes, d_codes, height, 4)


class TestMemoryJoinBranches:
    """Algorithm 6 directly: both branches, replicas across merged files."""

    def files(self, bufmgr, groups):
        out = []
        for index, codes in enumerate(groups):
            heap = HeapFile(bufmgr, CODE, name=f"part.{index}")
            writer = heap.open_writer()
            for code in codes:
                writer.append((code,))
            writer.close()
            out.append(heap)
        return out

    def survivors(self, a_groups, d_groups, mode, dedup_above_height=None):
        bufmgr = BufferManager(DiskManager(page_size=128), 16)
        a_files = self.files(bufmgr, a_groups)
        d_files = self.files(bufmgr, d_groups)
        sink = JoinSink(mode)
        memory_containment_join(a_files, d_files, sink, dedup_above_height)
        d_fits = sum(f.num_pages for f in d_files) <= sum(
            f.num_pages for f in a_files
        )
        return sink, d_fits

    @pytest.mark.parametrize("branch", ["d-fits", "a-fits"])
    def test_branch(self, branch):
        tree, _height = document(num_nodes=800, seed=21)
        few = tag_codes(tree, "a")[:40]
        many = list(tree.codes)
        a_codes, d_codes = (many, few) if branch == "d-fits" else (few, many)
        collect, d_fits = self.survivors([a_codes], [d_codes], "collect")
        assert collect.pairs and d_fits == (branch == "d-fits")
        for mode in SEMI_MODES:
            sink, _ = self.survivors([a_codes], [d_codes], mode)
            assert sink.survivors == project(collect.pairs, mode), mode

    def test_replicated_ancestors_across_merged_files(self):
        # a merged VPJ partition: the high ancestors are in every file
        tree, _height = document(num_nodes=800, seed=4)
        anchor_height = 3
        high = [c for c in tree.codes if pt.height_of(c) > anchor_height]
        low = [c for c in tree.codes if pt.height_of(c) <= anchor_height]
        a_groups = [high + low[0::2], high + low[1::2]]
        d_groups = [list(tree.codes)]
        collect, d_fits = self.survivors(a_groups, d_groups, "collect", anchor_height)
        assert d_fits and collect.pairs
        assert len(collect.pairs) == len(set(collect.pairs)), "replicas deduped"
        for mode in SEMI_MODES:
            sink, _ = self.survivors(a_groups, d_groups, mode, anchor_height)
            assert sink.survivors == project(collect.pairs, mode), mode


@st.composite
def probe_inputs(draw):
    height = draw(st.integers(2, 9))
    top = (1 << height) - 1
    codes = st.integers(1, top)
    a_codes = draw(st.lists(codes, max_size=40))
    # D may repeat codes and share codes with A
    d_codes = draw(st.lists(codes, max_size=60)) + draw(
        st.lists(st.sampled_from(a_codes), max_size=10) if a_codes else st.just([])
    )
    dedup = draw(st.one_of(st.none(), st.integers(0, height)))
    return a_codes, sorted(d_codes), dedup


class TestRegionSemiKernel:
    @given(inputs=probe_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_region_probe_projection(self, inputs):
        a_codes, d_sorted, dedup = inputs
        pairs: list[tuple[int, int]] = []
        batch.region_probe(
            a_codes, d_sorted, lambda a, d: pairs.append((a, d)), dedup, set()
        )
        for keep_ancestors, mode in ((False, "semi-d"), (True, "semi-a")):
            survivors: set[int] = set()
            # two batches share the dedup window, as VPJ's pages do
            seen: set[int] = set()
            half = len(a_codes) // 2
            for part in (a_codes[:half], a_codes[half:]):
                batch.region_semi(
                    part, d_sorted, survivors, keep_ancestors, dedup, seen
                )
            assert survivors == project(pairs, mode), mode

    def test_duplicate_self_matches_never_survive(self):
        # a node's region holds only itself, however often D repeats it
        a = pt.PBiCode(6)  # height 1: region [5, 7]
        for keep_ancestors in (False, True):
            survivors: set[int] = set()
            batch.region_semi([a], [a, a, a], survivors, keep_ancestors)
            assert survivors == set()
        survivors = set()
        batch.region_semi([a], [5, a, a, 7], survivors, False)
        assert survivors == {5, 7}
