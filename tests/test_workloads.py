"""Tests for the workload generators (synthetic, DBLP-like, XMark-like)."""

import pytest

from repro.core import pbitree as pt
from repro.core.binarize import binarize
from repro.datatree.paths import brute_force_join, select_by_tag
from repro.workloads import dblp, synthetic as syn, xmark


class TestSyntheticSpecs:
    def test_sixteen_datasets(self):
        names = {s.name for s in syn.single_height_specs()} | {
            s.name for s in syn.multi_height_specs()
        }
        assert len(names) == 16

    def test_naming_convention(self):
        spec = syn.spec_by_name("SLSH")
        assert spec.a_size > spec.d_size
        assert not spec.multi_height
        assert spec.match_fraction == syn.HIGH_MATCH_FRACTION

        spec = syn.spec_by_name("MSLL")
        assert spec.a_size < spec.d_size
        assert spec.multi_height
        assert spec.match_fraction == syn.LOW_MATCH_FRACTION

    def test_table_2b_height_counts(self):
        for spec in syn.multi_height_specs():
            want_ha, want_hd = syn._TABLE_2B_HEIGHTS[spec.name]
            assert len(spec.a_heights) == want_ha
            assert len(spec.d_heights) == want_hd

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            syn.spec_by_name("XXXX")

    def test_scaling(self):
        spec = syn.spec_by_name("SLLH", large=1234, small=56)
        assert spec.a_size == 1234 and spec.d_size == 1234
        spec = syn.spec_by_name("SSLH", large=1234, small=56)
        assert spec.a_size == 56 and spec.d_size == 1234


class TestSyntheticGeneration:
    def test_sizes_and_heights(self):
        spec = syn.spec_by_name("MLSH", large=3000, small=300)
        ds = syn.generate(spec, seed=0)
        assert len(ds.a_codes) == 3000 and len(ds.d_codes) == 300
        assert {pt.height_of(c) for c in ds.a_codes} <= set(spec.a_heights)
        assert {pt.height_of(c) for c in ds.d_codes} <= set(spec.d_heights)

    def test_codes_distinct_within_sets(self):
        ds = syn.generate(syn.spec_by_name("SLLH", large=3000, small=300), seed=1)
        assert len(set(ds.a_codes)) == len(ds.a_codes)
        assert len(set(ds.d_codes)) == len(ds.d_codes)

    def test_result_count_is_ground_truth(self):
        spec = syn.spec_by_name("MSSH", large=2000, small=300)
        ds = syn.generate(spec, seed=2)
        assert ds.num_results == len(brute_force_join(ds.a_codes, ds.d_codes))

    def test_high_vs_low_selectivity(self):
        high = syn.generate(syn.spec_by_name("SLLH", large=2000, small=200), seed=3)
        low = syn.generate(syn.spec_by_name("SLLL", large=2000, small=200), seed=3)
        assert high.num_results > 5 * low.num_results

    def test_deterministic_for_seed(self):
        spec = syn.spec_by_name("SSSH", large=1000, small=200)
        first = syn.generate(spec, seed=7)
        second = syn.generate(spec, seed=7)
        assert first.a_codes == second.a_codes
        assert first.d_codes == second.d_codes

    def test_seeds_differ(self):
        spec = syn.spec_by_name("SSSH", large=1000, small=200)
        assert syn.generate(spec, seed=1).a_codes != syn.generate(spec, seed=2).a_codes

    def test_codes_fit_storage(self):
        for spec in syn.single_height_specs(2000, 200) + syn.multi_height_specs(2000, 200):
            ds = syn.generate(spec, seed=0)
            assert ds.tree_height <= 63
            top = (1 << ds.tree_height) - 1
            assert all(1 <= c <= top for c in ds.a_codes + ds.d_codes)

    def test_count_results_helper(self):
        assert syn.count_results([], [1, 2]) == 0
        assert syn.count_results([2], [1, 3]) == 2


class TestDBLPWorkload:
    @pytest.fixture(scope="class")
    def tree(self):
        return dblp.generate_tree(num_publications=2000, seed=1)

    def test_tree_shape(self, tree):
        counts = tree.tag_counts()
        assert counts["dblp"] == 1
        assert counts["article"] > counts["proceedings"]
        assert counts["author"] > 1000
        assert tree.height() >= 2  # cite/label nesting

    def test_all_join_tags_present(self, tree):
        counts = tree.tag_counts()
        for join in dblp.DBLP_JOINS:
            assert counts.get(join.anc_tag, 0) > 0, join.name
            assert counts.get(join.desc_tag, 0) > 0, join.name

    def test_join_cardinality_shapes(self, tree):
        binarize(tree)
        counts = {}
        for join in dblp.DBLP_JOINS:
            a = select_by_tag(tree, join.anc_tag)
            d = select_by_tag(tree, join.desc_tag)
            counts[join.name] = (len(a), len(d), len(brute_force_join(a, d)))
        # D2/D3-style: tiny descendant sets under a huge ancestor set
        assert counts["D2"][1] < counts["D4"][1]
        assert counts["D3"][1] <= counts["D2"][1]
        # every inproceedings has exactly one booktitle (1:1 per ancestor)
        assert counts["D7"][2] == counts["D7"][0]
        # every phdthesis school belongs to exactly one phdthesis
        assert counts["D8"][2] == counts["D8"][1]
        # partial joins: some descendants match no ancestor (like the
        # paper's D5/D6/D10 where #results < |D|)
        assert counts["D5"][2] < counts["D5"][1]
        assert counts["D6"][2] < counts["D6"][1]

    def test_deterministic(self):
        a = dblp.generate_tree(500, seed=9)
        b = dblp.generate_tree(500, seed=9)
        assert a.tags == b.tags and a.parents == b.parents


class TestXMarkWorkload:
    @pytest.fixture(scope="class")
    def tree(self):
        return xmark.generate_tree(scale=0.2, seed=1)

    def test_tree_shape(self, tree):
        counts = tree.tag_counts()
        assert counts["site"] == 1
        assert counts["people"] == 1
        assert counts["item"] > 100
        assert counts["person"] > 100
        assert counts.get("parlist", 0) > 0  # recursive structure exists
        assert tree.height() >= 6

    def test_b1_has_single_result(self, tree):
        binarize(tree)
        items = select_by_tag(tree, "item")
        sponsors = select_by_tag(tree, "sponsor")
        assert len(sponsors) == 1
        assert len(brute_force_join(items, sponsors)) == 1

    def test_b3_single_ancestor(self, tree):
        binarize(tree)
        people = select_by_tag(tree, "people")
        interests = select_by_tag(tree, "interest")
        assert len(people) == 1
        assert len(brute_force_join(people, interests)) == len(interests)

    def test_deep_descendants_multi_height(self, tree):
        binarize(tree)
        texts = select_by_tag(tree, "text")
        heights = {pt.height_of(c) for c in texts}
        assert len(heights) >= 3  # recursion spreads text over many heights

    def test_all_join_tags_present(self, tree):
        counts = tree.tag_counts()
        for join in xmark.XMARK_JOINS:
            assert counts.get(join.anc_tag, 0) > 0, join.name
            assert counts.get(join.desc_tag, 0) > 0, join.name

    def test_nested_ancestor_join_b9(self, tree):
        """parlist can contain parlist: the B9 ancestor set is nested."""
        binarize(tree)
        parlists = select_by_tag(tree, "parlist")
        nested = brute_force_join(parlists, parlists)
        assert nested  # at least one parlist inside another
