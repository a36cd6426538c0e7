"""Tests for set statistics and the cost model (the planner that ranks
with it is covered in test_planner.py)."""

from hypothesis import given, settings, strategies as st

from repro.join.costmodel import CostInputs, CostModel
from repro.join.statistics import SetStatistics, estimate_join_cardinality
from repro.workloads import synthetic as syn


class TestSetStatistics:
    def test_from_codes(self):
        stats = SetStatistics.from_codes([4, 12, 20, 6])
        assert stats.count == 4
        assert stats.height_counts == {2: 3, 1: 1}
        assert stats.min_code == 4 and stats.max_code == 20
        assert stats.heights == [1, 2]
        assert stats.num_heights == 2

    def test_empty(self):
        stats = SetStatistics.from_codes([])
        assert stats.count == 0
        assert stats.span == (0, 0)

    def test_span_covers_regions(self):
        stats = SetStatistics.from_codes([20])  # region (17, 23)
        assert stats.span == (17, 23)

    def test_count_at_or_below(self):
        stats = SetStatistics.from_codes([1, 2, 4, 8])
        assert stats.count_at_or_below(0) == 1
        assert stats.count_at_or_below(2) == 3
        assert stats.count_at_or_below(99) == 4

    def test_merge(self):
        left = SetStatistics.from_codes([4, 6])
        right = SetStatistics.from_codes([20])
        merged = left.merge(right)
        assert merged.count == 3
        assert merged.max_code == 20
        assert merged.height_counts[2] == 2

    @given(st.lists(st.integers(1, 2**30), min_size=1, max_size=200))
    @settings(max_examples=25)
    def test_consistency(self, codes):
        stats = SetStatistics.from_codes(codes)
        assert stats.count == len(codes)
        assert sum(stats.height_counts.values()) == len(codes)
        assert stats.min_code == min(codes)
        assert stats.max_code == max(codes)


class TestCardinalityEstimation:
    def synth(self, name, large=5000, small=200, seed=0):
        dataset = syn.generate(syn.spec_by_name(name, large=large, small=small), seed)
        return (
            SetStatistics.from_codes(dataset.a_codes, dataset.tree_height),
            SetStatistics.from_codes(dataset.d_codes, dataset.tree_height),
            dataset.num_results,
        )

    def test_empty_sets_estimate_zero(self):
        empty = SetStatistics.from_codes([])
        full = SetStatistics.from_codes([4, 6])
        assert estimate_join_cardinality(empty, full) == 0.0
        assert estimate_join_cardinality(full, empty) == 0.0

    def test_high_beats_low_selectivity(self):
        _a_h, _d_h, high = self.synth("SLLH")
        a_h, d_h, _n = self.synth("SLLH")
        a_l, d_l, _n = self.synth("SLLL")
        assert estimate_join_cardinality(a_h, d_h) > estimate_join_cardinality(
            a_l, d_l
        )

    def test_order_of_magnitude(self):
        """The estimator should land within ~10x of truth on the
        synthetic workloads (it assumes uniform placement)."""
        for name in ("SLLH", "SLLL", "SSSH", "MSSH"):
            a_stats, d_stats, actual = self.synth(name)
            estimate = estimate_join_cardinality(a_stats, d_stats)
            if actual:
                assert actual / 30 <= max(estimate, 1) <= actual * 30, (
                    name, estimate, actual
                )

    def test_disjoint_spans_estimate_zero(self):
        a_stats = SetStatistics.from_codes([4])       # region (1, 7)
        d_stats = SetStatistics.from_codes([1 << 20])  # far away
        assert estimate_join_cardinality(a_stats, d_stats) == 0.0

    def test_span_fallback_without_tree_height(self):
        """Stats built blind still produce a positive estimate."""
        ds = syn.generate(syn.spec_by_name("SLLH", large=2000, small=200), 0)
        a_stats = SetStatistics.from_codes(ds.a_codes)
        d_stats = SetStatistics.from_codes(ds.d_codes)
        assert not a_stats.position_counts
        assert estimate_join_cardinality(a_stats, d_stats) > 0

    def test_positional_histogram_captures_placement(self):
        """Descendants concentrated under the ancestors estimate much
        higher than the same counts spread elsewhere."""
        from repro.core import pbitree as pt

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
        a_stats = SetStatistics.from_codes(anc, tree_height)
        near = estimate_join_cardinality(
            a_stats, SetStatistics.from_codes(under, tree_height)
        )
        far = estimate_join_cardinality(
            a_stats, SetStatistics.from_codes(away, tree_height)
        )
        assert near > far


def make_inputs(a_codes, d_codes, buffer_pages=50, records_per_page=127):
    return CostInputs(
        a_pages=-(-len(a_codes) // records_per_page),
        d_pages=-(-len(d_codes) // records_per_page),
        buffer_pages=buffer_pages,
        a_count=len(a_codes),
        d_count=len(d_codes),
        a_pair_pages=2 * -(-len(a_codes) // records_per_page),
        a_heights=len(SetStatistics.from_codes(a_codes).height_counts),
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
