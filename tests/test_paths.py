"""Tests for path-query decomposition into containment joins."""

import pytest

from repro.core.binarize import binarize
from repro.datatree.builder import random_tree, tree_from_spec
from repro.datatree.paths import PathQuery, brute_force_join, select_by_tag
from repro.datatree.xml_parser import parse_xml


def encoded_doc():
    tree = parse_xml(
        """
        <doc>
          <section><title>Introduction</title>
            <figure/><para><figure/></para>
          </section>
          <section><title>Related</title><para/></section>
          <appendix><figure/></appendix>
        </doc>
        """,
        keep_text=False,
    )
    binarize(tree)
    return tree


class TestSelectByTag:
    def test_selects_codes_in_document_order(self):
        tree = encoded_doc()
        sections = select_by_tag(tree, "section")
        assert len(sections) == 2
        figures = select_by_tag(tree, "figure")
        assert len(figures) == 3

    def test_missing_tag_is_empty(self):
        assert select_by_tag(encoded_doc(), "nope") == []


class TestPathQueryParsing:
    def test_steps(self):
        assert PathQuery("//a//b//c").steps == ["a", "b", "c"]

    def test_rejects_child_axis(self):
        with pytest.raises(ValueError):
            PathQuery("//a/b")

    @pytest.mark.parametrize("path, step", [
        ("//a[b]", "a[b]"), ("//a[.//b]", "a[."), ("//a//*", "*"),
        ("//a[b]//c", "a[b]"), ("//a/b", "a/b"),
    ])
    def test_non_name_step_raises_the_xpath_error_naming_it(self, path, step):
        from repro.datatree.xpath import XPathSyntaxError

        with pytest.raises(XPathSyntaxError) as raised:
            PathQuery(path)
        assert f"step {step!r}" in str(raised.value)
        assert isinstance(raised.value, ValueError)

    def test_every_name_the_xml_parser_reads_is_a_step(self):
        # one tag rule: digit-, dash- and dot-leading names parse as
        # elements, so they are steps too
        assert PathQuery("//ns:a//b-c//d.e//_f//1a//-x//.y").steps == [
            "ns:a", "b-c", "d.e", "_f", "1a", "-x", ".y"
        ]

    def test_rejects_relative(self):
        with pytest.raises(ValueError):
            PathQuery("a//b")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PathQuery("//")


class TestEvaluation:
    def test_paper_motivating_query_shape(self):
        """//section//figure finds figures inside sections only."""
        tree = encoded_doc()
        result = PathQuery("//section//figure").evaluate_navigational(tree)
        assert len(result) == 2  # the appendix figure is excluded

    def test_join_evaluation_matches_navigational(self):
        tree = encoded_doc()
        query = PathQuery("//section//figure")
        nav = sorted(query.evaluate_navigational(tree))
        joined = sorted(query.evaluate_with_joins(tree, brute_force_join))
        assert nav == joined

    def test_three_step_chain(self):
        tree = encoded_doc()
        query = PathQuery("//doc//section//figure")
        nav = sorted(query.evaluate_navigational(tree))
        joined = sorted(query.evaluate_with_joins(tree, brute_force_join))
        assert nav == joined and len(nav) == 2

    def test_random_trees_agree(self):
        for seed in range(5):
            tree = random_tree(400, seed=seed, tags=("a", "b", "c"))
            binarize(tree)
            for path in ("//a//b", "//b//c//a", "//c//c"):
                query = PathQuery(path)
                assert sorted(query.evaluate_navigational(tree)) == sorted(
                    query.evaluate_with_joins(tree, brute_force_join)
                ), (seed, path)

    def test_containment_join_pairs(self):
        tree = encoded_doc()
        pairs = PathQuery("//doc//section//figure").containment_join_pairs(tree)
        assert len(pairs) == 2
        (a1, d1), (a2, d2) = pairs
        assert len(a1) == 1 and len(d1) == 2
        assert len(a2) == 2 and len(d2) == 3


class TestBruteForce:
    def test_excludes_self(self):
        tree = tree_from_spec(("a", [("a", [])]))
        binarize(tree)
        codes = select_by_tag(tree, "a")
        pairs = brute_force_join(codes, codes)
        assert pairs == [(tree.codes[0], tree.codes[1])]

    def test_empty_inputs(self):
        assert brute_force_join([], [1, 2]) == []
        assert brute_force_join([4], []) == []
