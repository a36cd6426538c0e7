"""Tests for the algorithm-selection framework (Table 1)."""

import random

import pytest

from repro import (
    AncDesBPlusJoin,
    BufferManager,
    DiskManager,
    ElementSet,
    FlatIntervalTree,
    FlatStartIndex,
    IndexNestedLoopJoin,
    JoinSink,
    MultiHeightRollupJoin,
    PBiTreeJoinFramework,
    SetProperties,
    SingleHeightJoin,
    SortOrder,
    StackTreeDescJoin,
    VerticalPartitionJoin,
    binarize,
    brute_force_join,
    choose_algorithm,
    random_tree,
)
from repro.core import pbitree as pt
from repro.core.execconfig import exec_scope
from repro.join.inljn import build_interval_index, build_start_index
from repro.workloads import synthetic as syn


def make_sets(a_codes, d_codes, tree_height, frames=8, **a_kwargs):
    disk = DiskManager(page_size=128)
    bufmgr = BufferManager(disk, frames)
    a_set = ElementSet.from_codes(bufmgr, a_codes, tree_height, "A", **a_kwargs)
    d_set = ElementSet.from_codes(bufmgr, d_codes, tree_height, "D")
    return a_set, d_set


class TestTable1Matrix:
    """The planner must realise the paper's Table 1 exactly."""

    def fixtures(self):
        tree = random_tree(300, seed=20)
        encoding = binarize(tree)
        rng = random.Random(0)
        a_codes = rng.sample(tree.codes, 100)
        d_codes = rng.sample(tree.codes, 100)
        return make_sets(a_codes, d_codes, encoding.tree_height, frames=32)

    def test_indexed_unsorted_uses_inljn(self):
        a_set, d_set = self.fixtures()
        index = build_start_index(d_set, d_set.bufmgr)
        algorithm = choose_algorithm(
            a_set,
            d_set,
            SetProperties(),
            SetProperties(start_index=index),
        )
        assert isinstance(algorithm, IndexNestedLoopJoin)

    def test_sorted_unindexed_uses_stacktree(self):
        a_set, d_set = self.fixtures()
        algorithm = choose_algorithm(
            a_set,
            d_set,
            SetProperties(sorted=True),
            SetProperties(sorted=True),
        )
        assert isinstance(algorithm, StackTreeDescJoin)

    def test_sorted_and_indexed_uses_adb(self):
        a_set, d_set = self.fixtures()
        a_index = build_start_index(a_set, a_set.bufmgr)
        d_index = build_start_index(d_set, d_set.bufmgr)
        algorithm = choose_algorithm(
            a_set,
            d_set,
            SetProperties(sorted=True, start_index=a_index),
            SetProperties(sorted=True, start_index=d_index),
        )
        assert isinstance(algorithm, AncDesBPlusJoin)
        assert algorithm.a_index is a_index

    def test_neither_single_height_uses_shcj(self):
        a_set, d_set = self.fixtures()
        algorithm = choose_algorithm(
            a_set,
            d_set,
            SetProperties(single_height=4),
            SetProperties(),
        )
        assert isinstance(algorithm, SingleHeightJoin)
        assert algorithm.height == 4

    def test_neither_small_uses_rollup(self):
        a_set, d_set = self.fixtures()
        algorithm = choose_algorithm(a_set, d_set)
        # 100 elements fit the 32-page pool: rollup chosen
        assert isinstance(algorithm, (MultiHeightRollupJoin, SingleHeightJoin))

    def test_neither_large_uses_vpj(self):
        spec = syn.spec_by_name("MLLL", large=6000, small=600)
        ds = syn.generate(spec, seed=9)
        a_set, d_set = make_sets(ds.a_codes, ds.d_codes, ds.tree_height, frames=4)
        algorithm = choose_algorithm(a_set, d_set)
        assert isinstance(algorithm, VerticalPartitionJoin)


class TestIndexUsability:
    """Regression: the "indexed" column of Table 1 only counts an index
    INLJN can actually probe — a Start B+-tree on D (outer = A) or a
    stab structure on A (outer = D).  The planner used to treat any
    index on either input as qualifying, returning an
    ``IndexNestedLoopJoin(d_index=None, a_index=None)`` that silently
    rebuilt both indexes from scratch inside the operator.
    """

    def fixtures(self):
        tree = random_tree(300, seed=20)
        encoding = binarize(tree)
        rng = random.Random(3)
        a_codes = rng.sample(tree.codes, 100)
        d_codes = rng.sample(tree.codes, 100)
        return make_sets(a_codes, d_codes, encoding.tree_height, frames=32)

    def test_wrong_type_indexes_fall_through_to_unindexed_cell(self):
        """A Start index on A plus a stab index on D serve no INLJN
        probe direction: plan as if unindexed (here: rollup/SHCJ)."""
        a_set, d_set = self.fixtures()
        a_start = build_start_index(a_set, a_set.bufmgr)
        d_stab = build_interval_index(d_set, d_set.bufmgr)
        algorithm = choose_algorithm(
            a_set,
            d_set,
            SetProperties(start_index=a_start),
            SetProperties(interval_index=d_stab),
        )
        assert not isinstance(algorithm, IndexNestedLoopJoin)
        assert isinstance(algorithm, (MultiHeightRollupJoin, SingleHeightJoin))

    def test_d_start_index_pins_outer_to_a(self):
        a_set, d_set = self.fixtures()
        d_index = build_start_index(d_set, d_set.bufmgr)
        algorithm = choose_algorithm(
            a_set, d_set, SetProperties(), SetProperties(start_index=d_index)
        )
        assert isinstance(algorithm, IndexNestedLoopJoin)
        assert algorithm.d_index is d_index
        assert algorithm.force_outer == "A"

    def test_a_stab_index_pins_outer_to_d(self):
        a_set, d_set = self.fixtures()
        a_index = build_interval_index(a_set, a_set.bufmgr)
        algorithm = choose_algorithm(
            a_set, d_set, SetProperties(interval_index=a_index), SetProperties()
        )
        assert isinstance(algorithm, IndexNestedLoopJoin)
        assert algorithm.a_index is a_index
        assert algorithm.force_outer == "D"

    def test_both_usable_indexes_unpinned(self):
        a_set, d_set = self.fixtures()
        a_index = build_interval_index(a_set, a_set.bufmgr)
        d_index = build_start_index(d_set, d_set.bufmgr)
        algorithm = choose_algorithm(
            a_set,
            d_set,
            SetProperties(interval_index=a_index),
            SetProperties(start_index=d_index),
        )
        assert isinstance(algorithm, IndexNestedLoopJoin)
        assert algorithm.d_index is d_index
        assert algorithm.a_index is a_index
        assert algorithm.force_outer is None

    def test_planned_join_is_correct_with_single_usable_index(self):
        """End to end: the pinned-outer plan computes the right answer."""
        tree = random_tree(220, seed=24)
        encoding = binarize(tree)
        rng = random.Random(6)
        a_codes = rng.sample(tree.codes, 80)
        d_codes = rng.sample(tree.codes, 80)
        a_set, d_set = make_sets(a_codes, d_codes, encoding.tree_height, frames=32)
        d_index = build_start_index(d_set, d_set.bufmgr)
        framework = PBiTreeJoinFramework()
        report, pairs = framework.join(
            a_set, d_set, SetProperties(), SetProperties(start_index=d_index)
        )
        assert sorted(pairs) == sorted(brute_force_join(a_codes, d_codes))


class TestPropertyInference:
    def test_sorted_flag_inferred_from_metadata(self):
        tree = random_tree(100, seed=21)
        encoding = binarize(tree)
        codes = sorted(tree.codes, key=pt.doc_order_key)
        a_set, d_set = make_sets(
            codes, codes, encoding.tree_height, sorted_by=SortOrder.START
        )
        d_set.sorted_by = SortOrder.START
        algorithm = choose_algorithm(a_set, d_set)
        assert isinstance(algorithm, StackTreeDescJoin)

    def test_single_height_inferred_from_metadata(self):
        spec = syn.spec_by_name("SSSL", large=1000, small=200)
        ds = syn.generate(spec, seed=10)
        a_set, d_set = make_sets(ds.a_codes, ds.d_codes, ds.tree_height)
        algorithm = choose_algorithm(a_set, d_set)
        assert isinstance(algorithm, SingleHeightJoin)


class TestFrameworkFacade:
    def test_join_returns_report_and_pairs(self):
        tree = random_tree(200, seed=22)
        encoding = binarize(tree)
        rng = random.Random(1)
        a_codes = rng.sample(tree.codes, 80)
        d_codes = rng.sample(tree.codes, 80)
        a_set, d_set = make_sets(a_codes, d_codes, encoding.tree_height)
        report, pairs = PBiTreeJoinFramework().join(a_set, d_set)
        assert sorted(pairs) == sorted(brute_force_join(a_codes, d_codes))
        assert report.result_count == len(pairs)

    def test_count_only_mode(self):
        tree = random_tree(200, seed=23)
        encoding = binarize(tree)
        a_set, d_set = make_sets(
            tree.codes[:50], tree.codes, encoding.tree_height
        )
        report, pairs = PBiTreeJoinFramework().join(a_set, d_set, collect=False)
        assert pairs == []
        assert report.result_count == len(
            brute_force_join(tree.codes[:50], tree.codes)
        )


class TestFlatIndexPlanning:
    """The Table-1 index cell must honour the flat-index switch: flat
    static indexes qualify for the same INLJN plans as the pointer
    oracle (they subclass it), are only *built* while the switch is on,
    and wrong-direction flat indexes fall through exactly like
    wrong-direction pointer indexes."""

    def fixtures(self):
        tree = random_tree(300, seed=20)
        encoding = binarize(tree)
        rng = random.Random(3)
        a_codes = rng.sample(tree.codes, 100)
        d_codes = rng.sample(tree.codes, 100)
        return make_sets(a_codes, d_codes, encoding.tree_height, frames=32)

    def test_flat_config_builds_flat_and_planner_probes_it(self):
        a_set, d_set = self.fixtures()
        with exec_scope(flat_index=True):
            d_index = build_start_index(d_set, d_set.bufmgr)
        assert isinstance(d_index, FlatStartIndex)
        algorithm = choose_algorithm(
            a_set, d_set, SetProperties(), SetProperties(start_index=d_index)
        )
        assert isinstance(algorithm, IndexNestedLoopJoin)
        assert algorithm.d_index is d_index
        assert algorithm.force_outer == "A"

    def test_flat_stab_index_pins_outer_to_d(self):
        a_set, d_set = self.fixtures()
        with exec_scope(flat_index=True):
            a_index = build_interval_index(a_set, a_set.bufmgr)
        assert isinstance(a_index, FlatIntervalTree)
        algorithm = choose_algorithm(
            a_set, d_set, SetProperties(interval_index=a_index), SetProperties()
        )
        assert isinstance(algorithm, IndexNestedLoopJoin)
        assert algorithm.a_index is a_index
        assert algorithm.force_outer == "D"

    def test_switch_off_builds_the_pointer_oracle(self):
        a_set, d_set = self.fixtures()
        with exec_scope(flat_index=False):
            d_index = build_start_index(d_set, d_set.bufmgr)
            a_index = build_interval_index(a_set, a_set.bufmgr)
        assert not isinstance(d_index, FlatStartIndex)
        assert not isinstance(a_index, FlatIntervalTree)

    def test_wrong_direction_flat_indexes_fall_through(self):
        """Flat a-Start + flat d-stab serve no probe direction — the
        planner must take the unindexed cell, not an INLJN that would
        rebuild indexes inside the operator."""
        a_set, d_set = self.fixtures()
        with exec_scope(flat_index=True):
            a_start = build_start_index(a_set, a_set.bufmgr)
            d_stab = build_interval_index(d_set, d_set.bufmgr)
        algorithm = choose_algorithm(
            a_set,
            d_set,
            SetProperties(start_index=a_start),
            SetProperties(interval_index=d_stab),
        )
        assert not isinstance(algorithm, IndexNestedLoopJoin)
        assert isinstance(algorithm, (MultiHeightRollupJoin, SingleHeightJoin))

    def test_planned_flat_join_matches_brute_force(self):
        tree = random_tree(220, seed=24)
        encoding = binarize(tree)
        rng = random.Random(5)
        a_codes = rng.sample(tree.codes, 90)
        d_codes = rng.sample(tree.codes, 120)
        a_set, d_set = make_sets(a_codes, d_codes, encoding.tree_height,
                                 frames=32)
        with exec_scope(flat_index=True):
            d_index = build_start_index(d_set, d_set.bufmgr)
        algorithm = choose_algorithm(
            a_set, d_set, SetProperties(), SetProperties(start_index=d_index)
        )
        assert isinstance(algorithm, IndexNestedLoopJoin)
        sink = JoinSink("collect")
        algorithm.run(a_set, d_set, sink)
        assert sorted(sink.pairs) == sorted(brute_force_join(a_codes, d_codes))
