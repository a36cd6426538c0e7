"""Tests for path-query pipelines and proximity operators."""

import random

import pytest

from repro import (
    BufferManager,
    DiskManager,
    ElementSet,
    binarize,
    random_tree,
)
from repro.core import pbitree as pt
from repro.datatree.builder import tree_from_spec
from repro.datatree.paths import PathQuery
from repro.join.pipeline import PathPipeline, plan_direction
from repro.join.proximity import common_ancestor_join, sibling_pairs, window_join
from repro.join.statistics import SetStatistics


def build_sets(tree, encoding, tags, frames=32):
    disk = DiskManager()
    bufmgr = BufferManager(disk, frames)
    return bufmgr, [
        ElementSet.from_tree_tag(bufmgr, tree, tag, encoding.tree_height)
        for tag in tags
    ]


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
            query = PathQuery(path)
            expected = sorted(query.evaluate_navigational(tree))
            bufmgr, sets = build_sets(tree, encoding, query.steps)
            pipeline = PathPipeline(bufmgr, direction=direction)
            result = pipeline.execute(sets)
            assert result.codes == expected, (trial, path, direction)
            assert len(result.reports) >= len(query.steps) - 1

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
        tree = tree_from_spec(
            ("root", [
                ("a", [("b", [("rare", [])])]),
            ] + [("a", [("b", [])]) for _ in range(200)])
        )
        encoding = binarize(tree)
        stats = [
            SetStatistics.from_codes(
                [tree.codes[n] for n in tree.iter_by_tag(tag)],
                encoding.tree_height,
            )
            for tag in ("a", "b", "rare")
        ]
        direction, top_down, bottom_up = plan_direction(stats)
        assert bottom_up < top_down
        assert direction == "bottom-up"

    def test_direction_planning_single_step(self):
        stats = [SetStatistics.from_codes([4])]
        assert plan_direction(stats)[0] == "top-down"

    def test_step_props_steer_the_planner(self):
        """What the caller knows about a base set (here: an index)
        reaches every join that set takes part in; the parallel list
        must match the steps."""
        from repro import SetProperties
        from repro.join.inljn import build_start_index

        tree = random_tree(300, seed=3, tags=("a", "b"))
        encoding = binarize(tree)
        query = PathQuery("//a//b")
        bufmgr, sets = build_sets(tree, encoding, query.steps)
        assert PathPipeline(bufmgr).execute(sets).reports[0].algorithm != "INLJN"
        props = [
            SetProperties.of(sets[0]),
            SetProperties.of(sets[1], start_index=build_start_index(sets[1], bufmgr)),
        ]
        result = PathPipeline(bufmgr, props).execute(sets)
        assert {report.algorithm for report in result.reports} == {"INLJN"}
        assert result.codes == sorted(query.evaluate_navigational(tree))
        with pytest.raises(ValueError):
            PathPipeline(bufmgr, props[:1]).execute(sets)


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
