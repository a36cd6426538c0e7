"""Tests for join-cardinality estimation over the positional histograms
and for the cost model (the planner that ranks with it is covered in
test_planner.py)."""

import pytest

from repro.core import pbitree as pt
from repro.join.costmodel import CostInputs, CostModel
from repro.join.pipeline import estimate_join_cardinality
from repro.storage.histogram import PositionHistogram
from repro.workloads import synthetic as syn


class TestCardinalityEstimation:
    def synth(self, name, large=5000, small=200, seed=0):
        dataset = syn.generate(syn.spec_by_name(name, large=large, small=small), seed)
        return (
            PositionHistogram.of_codes(dataset.a_codes, dataset.tree_height),
            PositionHistogram.of_codes(dataset.d_codes, dataset.tree_height),
            dataset.num_results,
        )

    def test_empty_sets_estimate_zero(self):
        empty = PositionHistogram.of_codes([], 3)
        full = PositionHistogram.of_codes([4, 6], 3)
        assert estimate_join_cardinality(empty, full) == 0.0
        assert estimate_join_cardinality(full, empty) == 0.0

    def test_high_beats_low_selectivity(self):
        a_h, d_h, _n = self.synth("SLLH")
        a_l, d_l, _n = self.synth("SLLL")
        assert estimate_join_cardinality(a_h, d_h) > estimate_join_cardinality(
            a_l, d_l
        )

    def test_order_of_magnitude(self):
        """The estimator should land within ~10x of truth on the
        synthetic workloads (it assumes uniform placement)."""
        for name in ("SLLH", "SLLL", "SSSH", "MSSH"):
            a_hist, d_hist, actual = self.synth(name)
            estimate = estimate_join_cardinality(a_hist, d_hist)
            if actual:
                assert actual / 30 <= max(estimate, 1) <= actual * 30, (
                    name, estimate, actual
                )

    def test_disjoint_placement_estimates_zero(self):
        a_hist = PositionHistogram.of_codes([4], 21)        # region (1, 7)
        d_hist = PositionHistogram.of_codes([1 << 20], 21)  # far away
        assert estimate_join_cardinality(a_hist, d_hist) == 0.0

    def test_positional_histogram_captures_placement(self):
        """Descendants concentrated under the ancestors estimate much
        higher than the same counts spread elsewhere."""
        tree_height = 20
        anc = [pt.g_code(alpha, 5, tree_height) for alpha in range(8)]
        under = [
            pt.subtree_codes_at_height(a, 2)[i]
            for a in anc
            for i in range(4)
        ]
        level = tree_height - 2 - 1
        away = [
            pt.g_code((1 << (level - 1)) + i, level, tree_height)
            for i in range(len(under))
        ]
        a_hist = PositionHistogram.of_codes(anc, tree_height)
        near = estimate_join_cardinality(
            a_hist, PositionHistogram.of_codes(under, tree_height)
        )
        far = estimate_join_cardinality(
            a_hist, PositionHistogram.of_codes(away, tree_height)
        )
        assert near > far

    def test_different_trees_raise(self):
        """Slices of two PBiTree heights do not line up: no estimate,
        even when one side is empty."""
        with pytest.raises(ValueError, match="different PBiTrees"):
            estimate_join_cardinality(
                PositionHistogram.of_codes([4], 3),
                PositionHistogram.of_codes([1, 3], 4),
            )
        with pytest.raises(ValueError, match="different PBiTrees"):
            estimate_join_cardinality(
                PositionHistogram(3), PositionHistogram.of_codes([1, 3], 4)
            )


def make_inputs(a_codes, d_codes, buffer_pages=50, records_per_page=127):
    return CostInputs(
        a_pages=-(-len(a_codes) // records_per_page),
        d_pages=-(-len(d_codes) // records_per_page),
        buffer_pages=buffer_pages,
        a_count=len(a_codes),
        d_count=len(d_codes),
        a_pair_pages=2 * -(-len(a_codes) // records_per_page),
        a_heights=len({pt.height_of(code) for code in a_codes}),
    )


class TestCostModel:
    def dataset(self, name="SLLL", large=20000, small=200):
        return syn.generate(syn.spec_by_name(name, large=large, small=small), 1)

    def test_sorted_inputs_remove_prep(self):
        ds = self.dataset()
        model = CostModel()
        unsorted_inputs = make_inputs(ds.a_codes, ds.d_codes)
        sorted_inputs = CostInputs(
            **{**unsorted_inputs.__dict__, "a_sorted": True, "d_sorted": True}
        )
        assert model.stack_tree(sorted_inputs).prep_pages == 0
        assert model.stack_tree(unsorted_inputs).prep_pages > 0

    def test_partitioning_beats_sorting_when_large(self):
        ds = self.dataset("SLSL")
        model = CostModel()
        inputs = make_inputs(ds.a_codes, ds.d_codes, buffer_pages=20)
        assert model.mhcj_rollup(inputs).total < model.stack_tree(inputs).total
        assert model.vpj(inputs).total < model.stack_tree(inputs).total

    def test_memory_shortcut(self):
        ds = self.dataset("SSSL", large=1000, small=100)
        model = CostModel()
        inputs = make_inputs(ds.a_codes, ds.d_codes, buffer_pages=50)
        estimate = model.vpj(inputs)
        assert estimate.total == inputs.a_pages + inputs.d_pages

    def test_shcj_only_for_single_height(self):
        ds = self.dataset("MLLL")
        model = CostModel()
        names = [e.algorithm for e in model.all_estimates(
            make_inputs(ds.a_codes, ds.d_codes))]
        assert "SHCJ" not in names
        ds2 = self.dataset("SLLL")
        names2 = [e.algorithm for e in model.all_estimates(
            make_inputs(ds2.a_codes, ds2.d_codes))]
        assert "SHCJ" in names2
