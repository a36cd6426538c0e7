"""Unit and property tests for the PBiTree code algebra (Section 2)."""

import pytest
from hypothesis import given, strategies as st

from repro.core import pbitree as pt

# strategies: valid codes in PBiTrees up to height 40
TREE_HEIGHTS = st.integers(min_value=2, max_value=40)


@st.composite
def code_in_tree(draw, min_height=2, max_height=40):
    tree_height = draw(st.integers(min_value=min_height, max_value=max_height))
    code = draw(st.integers(min_value=1, max_value=(1 << tree_height) - 1))
    return code, tree_height


class TestPaperExamples:
    """Every worked example printed in the paper must hold."""

    def test_f_function_examples(self):
        # "for the node with code 18 ... ancestor at height 2 is 20"
        assert pt.f_ancestor(18, 2) == 20
        assert pt.f_ancestor(18, 3) == 24
        assert pt.f_ancestor(18, 4) == 16

    def test_height_of_18(self):
        # "code 18 is for a node at height 1 (binary 10010)"
        assert pt.height_of(18) == 1

    def test_level_of_18(self):
        # "its level is 5 - 1 - 1 = 3"
        assert pt.level_of(18, 5) == 3

    def test_g_function_example(self):
        # "G(4, 3) = (1 + 2*4) * 2^(5-3-1) = 18"
        assert pt.g_code(4, 3, 5) == 18

    def test_root_of_height_5_tree_is_16(self):
        assert pt.root_code(5) == 16

    def test_coding_space(self):
        assert pt.max_code(5) == 31


class TestHeightLevel:
    def test_height_of_powers_of_two(self):
        for bit in range(40):
            assert pt.height_of(1 << bit) == bit

    def test_height_of_odd_codes_is_zero(self):
        for code in (1, 3, 5, 7, 9, 101, 2**20 + 1):
            assert pt.height_of(code) == 0

    @given(code_in_tree())
    def test_level_plus_height_is_tree_height_minus_one(self, ct):
        code, tree_height = ct
        assert pt.level_of(code, tree_height) + pt.height_of(code) == tree_height - 1

    @given(code_in_tree())
    def test_level_in_range(self, ct):
        code, tree_height = ct
        assert 0 <= pt.level_of(code, tree_height) <= tree_height - 1


class TestFG:
    @given(code_in_tree())
    def test_f_at_own_height_is_identity(self, ct):
        code, _h = ct
        assert pt.f_ancestor(code, pt.height_of(code)) == code

    @given(code_in_tree())
    def test_g_inverts_top_down(self, ct):
        code, tree_height = ct
        level, alpha = pt.top_down_of(code, tree_height)
        assert pt.g_code(alpha, level, tree_height) == code

    @given(code_in_tree())
    def test_alpha_of_matches_top_down(self, ct):
        code, tree_height = ct
        assert pt.alpha_of(code) == pt.top_down_of(code, tree_height).alpha

    @given(code_in_tree())
    def test_f_produces_node_at_requested_height(self, ct):
        code, tree_height = ct
        own = pt.height_of(code)
        for height in range(own, tree_height):
            assert pt.height_of(pt.f_ancestor(code, height)) == height

    @given(code_in_tree())
    def test_f_chain_is_monotone_in_region(self, ct):
        """Each higher ancestor's region contains the lower one's."""
        code, tree_height = ct
        region = pt.region_of(code)
        for height in range(pt.height_of(code) + 1, tree_height):
            anc_region = pt.region_of(pt.f_ancestor(code, height))
            assert anc_region.start <= region.start
            assert region.end <= anc_region.end
            region = anc_region


class TestAncestorPredicate:
    @given(code_in_tree())
    def test_not_ancestor_of_self(self, ct):
        code, _h = ct
        assert not pt.is_ancestor(code, code)
        assert pt.is_ancestor_or_self(code, code)

    @given(code_in_tree())
    def test_f_ancestors_are_ancestors(self, ct):
        code, tree_height = ct
        for height in range(pt.height_of(code) + 1, tree_height):
            assert pt.is_ancestor(pt.f_ancestor(code, height), code)

    @given(code_in_tree(), st.integers(min_value=1))
    def test_agrees_with_region_containment(self, ct, other_raw):
        code, tree_height = ct
        other = other_raw % ((1 << tree_height) - 1) + 1
        by_lemma = pt.is_ancestor(code, other)
        by_region = pt.region_of(code).contains(pt.region_of(other))
        assert by_lemma == by_region

    @given(code_in_tree(), st.integers(min_value=1))
    def test_antisymmetric(self, ct, other_raw):
        code, tree_height = ct
        other = other_raw % ((1 << tree_height) - 1) + 1
        if code != other:
            assert not (pt.is_ancestor(code, other) and pt.is_ancestor(other, code))

    def test_paper_figure2_relations(self):
        # Figure 2 (H = 5): 16 is the root, 20 covers 17..23
        assert pt.is_ancestor(16, 18)
        assert pt.is_ancestor(20, 18)
        assert pt.is_ancestor(24, 20)
        assert not pt.is_ancestor(20, 24)
        assert not pt.is_ancestor(8, 18)


class TestRegionAndPrefix:
    def test_region_example(self):
        # node 20 (height 2) spans leaves 17..23
        assert pt.region_of(20) == (17, 23)

    @given(code_in_tree())
    def test_region_width(self, ct):
        """A height-h subtree spans 2^(h+1) - 1 in-order positions."""
        code, _th = ct
        start, end = pt.region_of(code)
        assert end - start == (1 << (pt.height_of(code) + 1)) - 2
        assert start <= code <= end

    @given(code_in_tree())
    def test_start_end_accessors_match_region(self, ct):
        code, _th = ct
        assert (pt.start_of(code), pt.end_of(code)) == tuple(pt.region_of(code))

    @given(code_in_tree())
    def test_code_from_region_start_roundtrip(self, ct):
        code, _th = ct
        start = pt.start_of(code)
        assert pt.code_from_region_start(start, pt.height_of(code)) == code

    @given(code_in_tree(), st.integers(min_value=1))
    def test_prefix_code_equivalence(self, ct, other_raw):
        """Lemma 4: ancestor-or-self iff the path bits are a prefix.

        The path of a node is its prefix code without the trailing '1'
        marker bit (see :func:`prefix_of`).
        """
        code, tree_height = ct
        other = other_raw % ((1 << tree_height) - 1) + 1
        height_diff = pt.height_of(code) - pt.height_of(other)
        if height_diff >= 0:
            by_prefix = (
                pt.prefix_of(other) >> (height_diff + 1)
            ) == pt.prefix_of(code) >> 1
        else:
            by_prefix = False
        assert by_prefix == pt.is_ancestor_or_self(code, other)

    def test_region_contains_point(self):
        region = pt.region_of(20)
        assert region.contains_point(17)
        assert region.contains_point(23)
        assert not region.contains_point(24)


class TestNavigation:
    @given(code_in_tree())
    def test_parent_child_inverse(self, ct):
        code, tree_height = ct
        if pt.height_of(code) > 0:
            assert pt.parent_of(pt.left_child_of(code)) == code
            assert pt.parent_of(pt.right_child_of(code)) == code

    def test_parent_of_root_raises(self):
        with pytest.raises(ValueError):
            pt.parent_of(16, tree_height=5)

    def test_children_of_leaf_raise(self):
        with pytest.raises(ValueError):
            pt.left_child_of(1)
        with pytest.raises(ValueError):
            pt.right_child_of(3)

    @given(code_in_tree())
    def test_children_are_descendants(self, ct):
        code, _th = ct
        if pt.height_of(code) > 0:
            assert pt.is_ancestor(code, pt.left_child_of(code))
            assert pt.is_ancestor(code, pt.right_child_of(code))

    def test_root_code_requires_positive_height(self):
        with pytest.raises(ValueError):
            pt.root_code(0)


class TestSubtreeEnumeration:
    # every code under the drawn node is checked, ~2**(height+1) of
    # them: a 12-level tree keeps the worst draw (its root) at ~8k
    # checks, far inside hypothesis' deadline
    @given(code_in_tree(min_height=3, max_height=12))
    def test_subtree_codes_at_height(self, ct):
        code, _th = ct
        own = pt.height_of(code)
        if own == 0:
            return
        for height in range(own):
            codes = list(pt.subtree_codes_at_height(code, height))
            assert len(codes) == 1 << (own - height)
            for child in codes:
                assert pt.height_of(child) == height
                assert pt.is_ancestor(code, child)

    def test_tall_root_by_arithmetic(self):
        """A height-20 tree's root without enumerating 2**20 codes per
        level: count, first and last code of every level."""
        root = pt.root_code(20)
        own = pt.height_of(root)
        assert (root, own) == (524288, 19)
        start, end = pt.region_of(root)
        for height in range(own):
            codes = pt.subtree_codes_at_height(root, height)
            assert len(codes) == 1 << (own - height)
            # the level's outermost nodes hug the region's two ends
            assert codes[0] == start + (1 << height) - 1
            assert codes[-1] == end - (1 << height) + 1
            for child in (codes[0], codes[-1]):
                assert pt.height_of(child) == height
                assert pt.is_ancestor(root, child)

    def test_subtree_codes_rejects_own_height(self):
        with pytest.raises(ValueError):
            pt.subtree_codes_at_height(20, 2)

    def test_figure2_leaves_of_20(self):
        assert list(pt.subtree_codes_at_height(20, 0)) == [17, 19, 21, 23]


class TestDocOrderKey:
    def test_ancestor_sorts_before_descendant(self):
        # 16 (root) and 1 share Start = 1; the root must come first
        assert pt.doc_order_key(16) < pt.doc_order_key(1)

    @given(code_in_tree(), st.integers(min_value=1))
    def test_matches_preorder(self, ct, other_raw):
        """doc_order_key realises pre-order: ancestors first, then by start."""
        code, tree_height = ct
        other = other_raw % ((1 << tree_height) - 1) + 1
        if code == other:
            return
        if pt.is_ancestor(code, other):
            assert pt.doc_order_key(code) < pt.doc_order_key(other)
        elif pt.is_ancestor(other, code):
            assert pt.doc_order_key(other) < pt.doc_order_key(code)
        else:
            # disjoint subtrees: order by region start, which cannot tie
            assert (pt.doc_order_key(code) < pt.doc_order_key(other)) == (
                pt.start_of(code) < pt.start_of(other)
            )


class TestValidate:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            pt.validate_code(0)
        with pytest.raises(ValueError):
            pt.validate_code(-5)

    def test_rejects_out_of_space(self):
        with pytest.raises(ValueError):
            pt.validate_code(32, tree_height=5)
        pt.validate_code(31, tree_height=5)  # boundary ok


@st.composite
def two_codes_in_tree(draw, max_height=24):
    """Two (possibly equal) codes from the same PBiTree."""
    tree_height = draw(st.integers(min_value=2, max_value=max_height))
    space = (1 << tree_height) - 1
    first = draw(st.integers(min_value=1, max_value=space))
    second = draw(st.integers(min_value=1, max_value=space))
    return first, second, tree_height


class TestLemma34Conversions:
    """Roundtrip properties for the Lemma 3 (region) and Lemma 4
    (prefix) conversions: PBiTree <-> region <-> prefix compose to the
    identity and preserve the ancestor relation."""

    @given(code_in_tree())
    def test_region_roundtrip(self, ct):
        code, _tree_height = ct
        height = pt.height_of(code)
        region = pt.region_of(code)
        assert pt.code_from_region_start(region.start, height) == code
        # the region is centred on the code and spans the whole subtree
        assert region.end - region.start == 2 * ((1 << height) - 1)
        assert region.start + region.end == 2 * code

    @given(code_in_tree())
    def test_prefix_roundtrip(self, ct):
        code, _tree_height = ct
        assert pt.prefix_of(code) << pt.height_of(code) == code
        # prefix codes always end in the node's own '1' marker bit
        assert pt.prefix_of(code) & 1 == 1

    @given(code_in_tree())
    def test_region_then_prefix_composition_is_identity(self, ct):
        code, _tree_height = ct
        height = pt.height_of(code)
        via_region = pt.code_from_region_start(pt.region_of(code).start, height)
        via_prefix = pt.prefix_of(via_region) << pt.height_of(via_region)
        assert via_prefix == code

    @given(two_codes_in_tree())
    def test_region_containment_iff_ancestor(self, codes):
        """Lemma 3: proper region containment == proper ancestorship."""
        first, second, _tree_height = codes
        assert pt.region_of(first).contains(pt.region_of(second)) == (
            pt.is_ancestor(first, second)
        )

    @given(two_codes_in_tree())
    def test_prefix_bit_prefix_iff_ancestor_or_self(self, codes):
        """Lemma 4: 'a's path is a bit-prefix of d's' == ancestor-or-self."""
        first, second, _tree_height = codes
        height_a = pt.height_of(first)
        height_d = pt.height_of(second)
        prefix_matches = height_a >= height_d and (
            pt.prefix_of(second) >> (height_a - height_d + 1)
            == pt.prefix_of(first) >> 1
        )
        assert prefix_matches == pt.is_ancestor_or_self(first, second)

    @given(two_codes_in_tree())
    def test_conversions_preserve_ancestor_relation(self, codes):
        """Converting both codes to regions and back must not change
        which of the two relations (ancestor / not) holds."""
        first, second, _tree_height = codes
        back_first = pt.code_from_region_start(
            pt.region_of(first).start, pt.height_of(first)
        )
        back_second = pt.code_from_region_start(
            pt.region_of(second).start, pt.height_of(second)
        )
        assert pt.is_ancestor(back_first, back_second) == pt.is_ancestor(
            first, second
        )
