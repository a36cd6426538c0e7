"""Property tests for the analytic cost model and database fuzzing.

The cost model never has to be exact, but it must be *sane*: costs grow
with data, shrink (weakly) with memory, preparation vanishes for
prepared inputs.  The database fuzz test interleaves updates and
queries and cross-checks every answer against navigation.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.join.costmodel import CostInputs, CostModel


def make_inputs(a_count, d_count, buffer_pages, a_heights=1):
    return CostInputs(
        a_pages=max(1, a_count // 127),
        d_pages=max(1, d_count // 127),
        buffer_pages=buffer_pages,
        a_count=a_count,
        d_count=d_count,
        a_pair_pages=2 * max(1, a_count // 127),
        a_heights=a_heights,
    )


ESTIMATORS = [
    "stack_tree", "mpmgjn", "inljn", "adb", "mhcj", "mhcj_rollup",
    "vpj", "block_nested_loop", "shcj",
]


class TestMonotonicity:
    @pytest.mark.parametrize("estimator", ESTIMATORS)
    @given(scale_factor=st.sampled_from([2, 4, 8]))
    @settings(max_examples=6, deadline=None)
    def test_more_data_costs_more(self, estimator, scale_factor):
        model = CostModel()
        small = make_inputs(2000, 2000, 20)
        big = make_inputs(2000 * scale_factor, 2000 * scale_factor, 20)
        small_cost = getattr(model, estimator)(small).total
        big_cost = getattr(model, estimator)(big).total
        assert big_cost >= small_cost

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_more_memory_never_hurts(self, estimator):
        model = CostModel()
        tight = make_inputs(20_000, 20_000, 8)
        roomy = make_inputs(20_000, 20_000, 400)
        assert (
            getattr(model, estimator)(roomy).total
            <= getattr(model, estimator)(tight).total * 1.01
        )

    def test_costs_are_nonnegative(self):
        model = CostModel()
        inputs = make_inputs(100, 100, 8)
        for estimate in model.all_estimates(inputs):
            assert estimate.total >= 0
            assert estimate.prep_pages >= 0
            assert estimate.join_pages >= 0


class TestPreparedInputs:
    def test_sorted_inputs_zero_prep_for_merge_joins(self):
        model = CostModel()
        base = make_inputs(10_000, 10_000, 20)
        prepared = CostInputs(
            **{**base.__dict__, "a_sorted": True, "d_sorted": True}
        )
        assert model.stack_tree(prepared).prep_pages == 0
        assert model.mpmgjn(prepared).prep_pages == 0

    def test_indexed_inputs_zero_prep_for_index_joins(self):
        model = CostModel()
        base = make_inputs(10_000, 10_000, 20)
        prepared = CostInputs(
            **{**base.__dict__, "a_indexed": True, "d_indexed": True}
        )
        assert model.adb(prepared).prep_pages == 0
        assert model.inljn(prepared).prep_pages == 0


class TestDatabaseFuzz:
    def test_interleaved_updates_and_queries(self):
        """Random inserts/deletes/queries: every query answer must match
        a fresh navigational evaluation of the live tree."""
        from repro.db import ContainmentDatabase
        from repro.datatree.builder import random_tree

        rng = random.Random(31)
        db = ContainmentDatabase(buffer_pages=16)
        tree = random_tree(300, seed=31, tags=("a", "b", "c"))
        doc = db.load_tree(tree, name="fuzz")

        def navigational(path):
            steps = path.strip("/").split("//")
            frontier = [
                n for n in tree.iter_by_tag(steps[0])
                if doc.updatable.is_alive(n)
            ]
            for tag in steps[1:]:
                found = set()
                for node in frontier:
                    stack = list(tree.children[node])
                    while stack:
                        current = stack.pop()
                        if not doc.updatable.is_alive(current):
                            continue
                        if tree.tags[current] == tag:
                            found.add(current)
                        stack.extend(tree.children[current])
                frontier = sorted(found)
            return sorted(frontier)

        paths = ["//a//b", "//b//c", "//a//b//c"]
        for step in range(60):
            action = rng.random()
            live = [
                n for n in range(len(tree)) if doc.updatable.is_alive(n)
            ]
            if action < 0.4:
                db.insert_element(doc, rng.choice(live), rng.choice("abc"))
            elif action < 0.55 and len(live) > 10:
                non_root = [n for n in live if tree.parents[n] >= 0]
                db.delete_element(doc, rng.choice(non_root))
            else:
                path = rng.choice(paths)
                got = sorted(node.id for node in db.query(doc, path))
                assert got == navigational(path), (step, path)
        doc.updatable.validate()
