"""Tests for path-query pipelines and proximity operators."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    BufferManager,
    DiskManager,
    ElementSet,
    binarize,
    random_tree,
)
from repro.core import pbitree as pt
from repro.datatree.builder import tree_from_spec
from repro.datatree.node import DataTree
from repro.datatree.xpath import XPath
from repro.join import pipeline as pipeline_module
from repro.join.pipeline import (
    PathPipeline,
    estimate_join_cardinality,
    plan_direction,
)
from repro.join.proximity import common_ancestor_join, sibling_pairs, window_join
from repro.storage.histogram import PositionHistogram

from .oracles.path_walk import path_matches
from .oracles.positional_estimate import positional_estimate


def build_sets(tree, encoding, tags, frames=32):
    disk = DiskManager()
    bufmgr = BufferManager(disk, frames)
    return bufmgr, [
        ElementSet.from_tree_tag(bufmgr, tree, tag, encoding.tree_height)
        for tag in tags
    ]


def rare_tail_tree():
    """200 a/b chains; only one b has the rare descendant."""
    return tree_from_spec(
        ("root", [
            ("a", [("b", [("rare", [])])]),
        ] + [("a", [("b", [])]) for _ in range(200)])
    )


def selective_head_tree(n):
    """One a over the full a/b/c chain beside ``n`` b/c decoys (the
    selective-head shape of bench_pipeline_direction.py)."""
    tree = DataTree()
    root = tree.add_root("root")
    b = tree.add_child(tree.add_child(root, "a"), "b")
    tree.add_child(b, "c")
    for _ in range(n):
        tree.add_child(tree.add_child(root, "b"), "c")
    return tree


def selective_tail_tree(n):
    """``n`` a/b chains, only the first with a c (the selective-tail
    shape of bench_pipeline_direction.py)."""
    tree = DataTree()
    root = tree.add_root("root")
    for index in range(n):
        b = tree.add_child(tree.add_child(root, "a"), "b")
        if index == 0:
            tree.add_child(b, "c")
    return tree


#: (case id, tree builder, step tags, the planner's (direction,
#: top-down, bottom-up)) as literals: a refactor of the planner must
#: not move them; a change to the estimator edits them on purpose
GOLDEN_DIRECTIONS = [
    ("//a//b", "random", ("a", "b"), ("top-down", 1018.0, 1541.0)),
    ("//a//b//c", "random", ("a", "b", "c"), ("top-down", 2059.0, 2291.0)),
    ("//b//d", "random", ("b", "d"), ("top-down", 987.0, 1451.0)),
    ("//c//d", "random", ("c", "d"), ("top-down", 982.0, 1446.0)),
    ("//a//c//d", "random", ("a", "c", "d"), ("top-down", 1995.0, 2459.0)),
    ("//d//a//b//c", "random", ("d", "a", "b", "c"), ("top-down", 2985.0, 3158.0)),
    ("rare-tail", "rare-tail", ("a", "b", "rare"), ("bottom-up", 603.0, 404.0)),
    ("selective-head", "head", ("a", "b", "c"), ("top-down", 4003.0, 7996.0)),
    ("selective-tail", "tail", ("a", "b", "c"), ("bottom-up", 5993.0, 4002.0)),
]

GOLDEN_TREES = {
    # the ledger corpus's shape, unlabelled: 2,000 nodes, fanout <= 5
    "random": lambda: random_tree(
        2000, max_fanout=5, seed=2003, tags=("a", "b", "c", "d")
    ),
    "rare-tail": rare_tail_tree,
    "head": lambda: selective_head_tree(2000),
    "tail": lambda: selective_tail_tree(2000),
}


class TestPathPipeline:
    @pytest.mark.parametrize("direction", [None, "top-down", "bottom-up"])
    @pytest.mark.parametrize("path", ["//a//b", "//a//b//c", "//c//b//a//d"])
    def test_matches_navigational(self, direction, path):
        rng = random.Random(1)
        for trial in range(3):
            tree = random_tree(
                rng.randrange(100, 900), seed=trial, tags=("a", "b", "c", "d")
            )
            encoding = binarize(tree)
            tags = XPath(path).tags
            expected = path_matches(tree, tags)
            bufmgr, sets = build_sets(tree, encoding, tags)
            pipeline = PathPipeline(bufmgr, direction=direction)
            result = pipeline.execute(sets)
            assert result.codes == expected, (trial, path, direction)
            assert len(result.reports) >= len(tags) - 1

    def test_single_step(self):
        tree = random_tree(50, seed=2)
        encoding = binarize(tree)
        bufmgr, sets = build_sets(tree, encoding, ["a"])
        result = PathPipeline(bufmgr).execute(sets)
        assert result.codes == sorted(sets[0].scan())
        assert result.reports == []

    def test_empty_path_rejected(self):
        disk = DiskManager()
        bufmgr = BufferManager(disk, 8)
        with pytest.raises(ValueError):
            PathPipeline(bufmgr).execute([])

    def test_bad_direction_rejected(self):
        disk = DiskManager()
        bufmgr = BufferManager(disk, 8)
        with pytest.raises(ValueError):
            PathPipeline(bufmgr, direction="sideways")

    def test_direction_planning_prefers_selective_end(self):
        """A tiny final set should pull the plan bottom-up."""
        tree = rare_tail_tree()
        encoding = binarize(tree)
        histograms = [
            PositionHistogram.of_codes(
                [tree.codes[n] for n in tree.iter_by_tag(tag)],
                encoding.tree_height,
            )
            for tag in ("a", "b", "rare")
        ]
        direction, top_down, bottom_up = plan_direction(histograms)
        assert bottom_up < top_down
        assert direction == "bottom-up"

    def test_direction_planning_single_step(self):
        assert plan_direction([PositionHistogram.of_codes([4], 3)]) == (
            "top-down", 0.0, 0.0
        )

    def test_direction_planning_rejects_mixed_trees(self):
        """Histograms of different PBiTree heights do not line up."""
        histograms = [
            PositionHistogram.of_codes([4], 3),
            PositionHistogram.of_codes([2], 3),
            PositionHistogram.of_codes([1, 3], 4),
        ]
        with pytest.raises(ValueError, match="different PBiTrees"):
            plan_direction(histograms)

    def test_shrunk_step_keeps_its_cells_at_count_zero(self):
        """A step shrunk below half a survivor keeps one code per cell,
        and the next estimate tests the count, not the cells."""
        ancestor, descendant = (1, {(2, 4): 1}), (1, {(0, 1): 1})  # codes 4, 1; H=3
        shrunk = pipeline_module._shrunk(ancestor, 0.4)
        assert shrunk == (0, {(2, 4): 1})
        assert pipeline_module._positional_estimate(shrunk, descendant, 3) == 0.0
        assert pipeline_module._positional_estimate(ancestor, descendant, 3) == 1.0
        assert pipeline_module._shrunk((0, {}), 5.0) == (0, {})

    def test_step_props_steer_the_planner(self):
        """What the caller knows about a base set (here: an index)
        reaches every join that set takes part in; the parallel list
        must match the steps."""
        from repro import SetProperties
        from repro.join.inljn import build_start_index

        tree = random_tree(300, seed=3, tags=("a", "b"))
        encoding = binarize(tree)
        bufmgr, sets = build_sets(tree, encoding, ["a", "b"])
        assert PathPipeline(bufmgr).execute(sets).reports[0].algorithm != "INLJN"
        props = [
            SetProperties.of(sets[0]),
            SetProperties.of(sets[1], start_index=build_start_index(sets[1], bufmgr)),
        ]
        result = PathPipeline(bufmgr, props).execute(sets)
        assert {report.algorithm for report in result.reports} == {"INLJN"}
        assert result.codes == path_matches(tree, ["a", "b"])
        with pytest.raises(ValueError):
            PathPipeline(bufmgr, props[:1]).execute(sets)


class TestEstimateSummationOrder:
    """The estimator reads D's cells once per estimate, but its float
    sum must add its terms in the per-height scan's order
    (``tests/oracles/positional_estimate.py``): at tree heights past
    ~35 a different order can move the last bit."""

    @staticmethod
    def random_cells(rng, tree_height):
        cells = {}
        for _ in range(rng.randrange(1, 40)):
            height = rng.randrange(tree_height)
            count = rng.randrange(1, 10**6)
            cells[(height, rng.randrange(64))] = count
        return cells

    def test_bit_identical_to_the_per_height_scan(self):
        # seed 4340's sum changes if the top heights add D's slices in
        # reverse order; the rest are random cell orders and heights
        for seed in (4340, *range(200)):
            rng = random.Random(seed)
            height = rng.randrange(30, 63)
            a_cells = self.random_cells(rng, height)
            d_cells = self.random_cells(rng, height)
            estimate = estimate_join_cardinality(
                PositionHistogram(height, a_cells), PositionHistogram(height, d_cells)
            )
            assert estimate == positional_estimate(a_cells, d_cells, height), seed


class TestGoldenDirections:
    """The direction and both estimates the planner gives each query,
    read through the pipeline's own call of :func:`plan_direction`."""

    @pytest.mark.parametrize(
        "builder, tags, expected",
        [case[1:] for case in GOLDEN_DIRECTIONS],
        ids=[case[0] for case in GOLDEN_DIRECTIONS],
    )
    def test_planned_direction_and_estimates(
        self, monkeypatch, builder, tags, expected
    ):
        tree = GOLDEN_TREES[builder]()
        bufmgr, sets = build_sets(tree, binarize(tree), tags)
        planned = []
        plan = pipeline_module.plan_direction

        def recorded(inputs):
            planned.append(plan(inputs))
            return planned[-1]

        monkeypatch.setattr(pipeline_module, "plan_direction", recorded)
        result = PathPipeline(bufmgr).execute(sets)
        assert planned == [expected]
        assert result.direction == expected[0]
        assert result.codes == path_matches(tree, tags)


class TestCommonAncestorJoin:
    def test_equals_brute_force(self):
        rng = random.Random(4)
        tree = random_tree(500, seed=4)
        encoding = binarize(tree)
        codes = tree.codes
        left = rng.sample(codes, 200)
        right = rng.sample(codes, 200)
        for height in (3, 6, 10):
            got = sorted(common_ancestor_join(left, right, height))
            want = sorted(
                (x, y)
                for x in left
                for y in right
                if x != y
                and pt.height_of(x) < height
                and pt.height_of(y) < height
                and pt.f_ancestor(x, height) == pt.f_ancestor(y, height)
            )
            assert got == want, height

    def test_self_pairs_controlled(self):
        codes = [4, 6]
        with_self = list(
            common_ancestor_join(codes, codes, 3, exclude_self=False)
        )
        without = list(common_ancestor_join(codes, codes, 3))
        assert len(with_self) == len(without) + 2

    def test_elements_at_height_ignored(self):
        # an element AT the common height has no ancestor there
        assert list(common_ancestor_join([8], [1], 3)) == []


class TestWindowJoin:
    def test_equals_brute_force(self):
        rng = random.Random(5)
        tree = random_tree(400, seed=5)
        binarize(tree)
        left = rng.sample(tree.codes, 150)
        right = rng.sample(tree.codes, 150)
        for window in (0, 5, 50):
            got = sorted(window_join(left, right, window))
            want = sorted(
                (x, y)
                for x in left
                for y in right
                if x != y and abs(pt.start_of(x) - pt.start_of(y)) <= window
            )
            assert got == want, window

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            list(window_join([1], [2], -1))

    def test_zero_window_same_start_chain(self):
        # codes 16, 8, 4, 2, 1 share Start = 1 in an H=5 tree
        chain = [16, 8, 4, 2, 1]
        got = list(window_join(chain, chain, 0))
        assert len(got) == len(chain) * (len(chain) - 1)


class TestSiblingPairs:
    def test_true_siblings_found(self):
        tree = tree_from_spec(
            ("root", [("x", []), ("y", []), ("z", [("u", []), ("v", [])])])
        )
        encoding = binarize(tree)
        pairs = set(sibling_pairs(tree.codes, encoding.tree_height))
        # x–y, x–z, y–z and u–v must all be covered
        def code(tag):
            return tree.codes[next(tree.iter_by_tag(tag))]

        for a, b in (("x", "y"), ("x", "z"), ("y", "z"), ("u", "v")):
            pair = tuple(sorted((code(a), code(b))))
            assert pair in pairs, (a, b)

    def test_no_cross_parent_pairs_at_k1(self):
        """Nodes under different parents never pair when the parents
        are further apart than max_placement levels allow."""
        tree = tree_from_spec(
            ("root", [("p", [("c1", [])]), ("q", [("c2", [])])])
        )
        encoding = binarize(tree, min_height=12)
        c1 = tree.codes[2]
        c2 = tree.codes[4]
        pairs = set(sibling_pairs([c1, c2], encoding.tree_height, max_placement=1))
        assert tuple(sorted((c1, c2))) not in pairs


#: the parent-walk oracle's alphabet: three tags, so paths repeat tags
ORACLE_TAGS = ("a", "b", "c")


def pipeline_codes(tree, tags, direction, frames):
    height = binarize(tree).tree_height
    bufmgr = BufferManager(DiskManager(page_size=128), frames)
    sets = [
        ElementSet.from_tree_tag(bufmgr, tree, tag, height) for tag in tags
    ]
    before = bufmgr.disk.num_allocated
    result = PathPipeline(bufmgr, direction=direction).execute(sets)
    # every intermediate is gone, and the answer was never written
    assert bufmgr.disk.num_allocated == before
    return result


class TestPipelineOracle:
    @given(
        num_nodes=st.integers(1, 300),
        seed=st.integers(0, 10_000),
        fanout=st.sampled_from([2, 3, 6]),
        tags=st.lists(st.sampled_from(ORACLE_TAGS), min_size=2, max_size=4),
        direction=st.sampled_from([None, "top-down", "bottom-up"]),
        frames=st.sampled_from([8, 64]),
    )
    @settings(max_examples=60, deadline=None)
    def test_codes_match_parent_walk(
        self, num_nodes, seed, fanout, tags, direction, frames
    ):
        tree = random_tree(
            num_nodes, max_fanout=fanout, seed=seed, tags=ORACLE_TAGS
        )
        result = pipeline_codes(tree, tags, direction, frames)
        assert result.codes == path_matches(tree, tags)
        assert len(result.reports) >= len(tags) - 1

    def test_step_counts_are_survivors(self):
        # one a over a chain of b's: //a//b has one survivor per b, and
        # //b//b keeps every b that has a b above it
        tree = DataTree()
        node = tree.add_child(tree.add_root("r"), "a")
        for _ in range(5):
            node = tree.add_child(node, "b")
        for tags, expected in ((("a", "b"), 5), (("b", "b"), 4)):
            result = pipeline_codes(tree, tags, "top-down", 8)
            assert result.reports[-1].result_count == len(result.codes) == expected

    def test_bottom_up_phase_one_counts_ancestors(self):
        tree = random_tree(400, max_fanout=4, seed=9, tags=ORACLE_TAGS)
        result = pipeline_codes(tree, ("a", "b", "c"), "bottom-up", 8)
        # phase 1 starts by keeping the b's with a c below them
        b_above_c = set()
        for node in tree.iter_by_tag("c"):
            parent = tree.parents[node]
            while parent >= 0:
                if tree.tags[parent] == "b":
                    b_above_c.add(parent)
                parent = tree.parents[parent]
        assert b_above_c
        assert result.reports[0].result_count == len(b_above_c)
        assert result.codes == path_matches(tree, ("a", "b", "c"))

