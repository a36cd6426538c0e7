"""Tests for path-query decomposition into containment joins: the
tag-set helpers, the grammar, and ``db.query`` against navigation."""

import pytest

from repro.core.binarize import binarize
from repro.datatree.builder import random_tree, tree_from_spec
from repro.datatree.paths import brute_force_join, select_by_tag
from repro.datatree.xml_parser import parse_xml
from repro.datatree.xpath import Predicate, Step, XPath, XPathSyntaxError
from repro.db import ContainmentDatabase

from .oracles.navigate import navigate


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


class TestPathParsing:
    """Every path is parsed by the one grammar (:class:`XPath`); what
    the descendant-only parser refused, it now reads or rejects with
    the one typed error."""

    def test_steps(self):
        assert XPath("//a//b//c").tags == ["a", "b", "c"]

    @pytest.mark.parametrize("path, steps", [
        ("//a[b]", [Step("descendant", "a", (Predicate("b"),))]),
        ("//a[.//b]", [Step("descendant", "a", (Predicate("b", "descendant"),))]),
        ("//a//*", [Step("descendant", "a"), Step("descendant", "*")]),
        ("//a[b]//c", [
            Step("descendant", "a", (Predicate("b"),)), Step("descendant", "c"),
        ]),
        ("//a/b", [Step("descendant", "a"), Step("child", "b")]),
    ])
    def test_non_name_steps_parse(self, path, steps):
        assert XPath(path).steps == steps

    @pytest.mark.parametrize("path", ["a//b", "//"])
    def test_rejects_relative_and_empty_with_the_typed_error(self, path):
        with pytest.raises(XPathSyntaxError) as raised:
            XPath(path)
        assert isinstance(raised.value, ValueError)


class TestEvaluation:
    def query(self, path):
        db = ContainmentDatabase()
        document = db.load_tree(encoded_doc())
        return sorted(node.id for node in db.query(document, path)), document

    def test_paper_motivating_query_shape(self):
        """//section//figure finds figures inside sections only."""
        assert len(navigate(encoded_doc(), "//section//figure")) == 2
        got, document = self.query("//section//figure")
        assert len(got) == 2  # the appendix figure is excluded

    def test_join_evaluation_matches_navigational(self):
        got, document = self.query("//section//figure")
        assert got == navigate(document.tree, "//section//figure")

    def test_three_step_chain(self):
        got, document = self.query("//doc//section//figure")
        nav = navigate(document.tree, "//doc//section//figure")
        assert got == nav and len(nav) == 2

    def test_random_trees_agree(self):
        for seed in range(5):
            tree = random_tree(400, seed=seed, tags=("a", "b", "c"))
            db = ContainmentDatabase()
            document = db.load_tree(tree)
            for path in ("//a//b", "//b//c//a", "//c//c"):
                assert sorted(n.id for n in db.query(document, path)) == (
                    navigate(tree, path)
                ), (seed, path)

    def test_step_inputs(self):
        """The (ancestor set, descendant set) inputs of each join step
        are the stored sets of the path's tags."""
        db = ContainmentDatabase()
        document = db.load_tree(encoded_doc())
        steps, _props, filters = db.path_inputs(
            document, XPath("//doc//section//figure")
        )
        assert [len(step) for step in steps] == [1, 2, 3]
        assert filters == [[], [], []]
        (a1, d1), (a2, d2) = zip(steps, steps[1:])
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
