"""Tests for the path grammar and for child steps and predicates run by
``db.query`` (parent-code equijoins and semi-a filters), against the
live-aware navigational oracle."""

import random

import pytest

from repro.core.binarize import binarize
from repro.db import ContainmentDatabase
from repro.datatree.builder import random_tree, tree_from_spec
from repro.datatree.xpath import (
    Predicate,
    Step,
    XPath,
    XPathSyntaxError,
)
from repro.datatree.xml_parser import parse_xml
from repro.join.base import JoinSink
from repro.join.shcj import SingleHeightJoin
from repro.storage.buffer import BufferManager
from repro.storage.disk import DiskManager
from repro.storage.elementset import ElementSet

from .oracles import pbitree_encoding
from .oracles.navigate import navigate

LIBRARY = """
<lib>
  <shelf><book><title/><author/></book><book><title/></book></shelf>
  <shelf><box><book><title/></book></box></shelf>
  <title/>
</lib>
"""


def doc():
    tree = parse_xml(LIBRARY)
    binarize(tree)
    return tree


def query_ids(db, document, path):
    return sorted(node.id for node in db.query(document, path))


class TestParsing:
    def test_descendant_chain(self):
        xpath = XPath("//a//b//c")
        assert [s.axis for s in xpath.steps] == ["descendant"] * 3
        assert xpath.tags == ["a", "b", "c"]

    def test_mixed_axes(self):
        xpath = XPath("//a/b//c/d")
        assert [s.axis for s in xpath.steps] == [
            "descendant", "child", "descendant", "child"
        ]
        assert xpath.axes == [s.axis for s in xpath.steps]

    def test_predicates(self):
        xpath = XPath("//book[title][.//author]/chapter")
        assert xpath.steps[0].predicates == (
            Predicate("title", "child"),
            Predicate("author", "descendant"),
        )
        assert xpath.steps[1] == Step("child", "chapter")

    def test_wildcard(self):
        assert XPath("//*//b").steps[0].tag == "*"

    @pytest.mark.parametrize(
        "bad", ["", "a//b", "/a", "//a[", "//a]b", "//a[b=c]", "//"]
    )
    def test_rejects_bad_syntax(self, bad):
        with pytest.raises(XPathSyntaxError):
            XPath(bad)

    def test_every_name_the_xml_parser_reads_is_a_step(self):
        # one tag rule: digit-, dash- and dot-leading names parse as
        # elements, so they are steps too
        assert XPath("//ns:a//b-c//d.e//_f//1a//-x//.y").tags == [
            "ns:a", "b-c", "d.e", "_f", "1a", "-x", ".y"
        ]


class TestChildStep:
    """A child step is the equijoin A.code = parent(D.code): exactly the
    parent relation, never a grandparent or the reverse."""

    def test_direct_parent(self):
        db = ContainmentDatabase()
        document = db.load_tree(tree_from_spec(("a", [("b", [("c", [])])])))
        assert query_ids(db, document, "//a/b") == [1]
        assert query_ids(db, document, "//b/c") == [2]
        assert query_ids(db, document, "//a/c") == []  # grandparent
        assert query_ids(db, document, "//b/a") == []
        assert query_ids(db, document, "//a//c") == [2]

    def test_random_node_pairs(self):
        """SHCJ keyed on parent codes pairs u with v iff u is v's parent."""
        for seed in range(4):
            tree = random_tree(250, seed=seed)
            encoding = pbitree_encoding(tree)
            bufmgr = BufferManager(DiskManager(page_size=128), 8)
            rng = random.Random(seed)
            for _ in range(300):
                u = rng.randrange(len(tree))
                v = rng.randrange(len(tree))
                a_set = ElementSet.from_codes(
                    bufmgr, [tree.codes[u]], encoding.tree_height
                )
                d_set = ElementSet.from_codes(
                    bufmgr, [tree.codes[v]], encoding.tree_height
                )
                sink = JoinSink("collect")
                SingleHeightJoin(parent_codes=encoding.parent_codes).run(
                    a_set, d_set, sink
                )
                a_set.destroy()
                d_set.destroy()
                want = tree.parents[v] == u
                assert sink.pairs == ([(tree.codes[u], tree.codes[v])] if want else [])

    def test_random_trees_every_tag_pair(self):
        tags = ("a", "b", "c", "d")
        for seed in range(4):
            tree = random_tree(250, seed=seed, tags=tags)
            db = ContainmentDatabase()
            document = db.load_tree(tree)
            for parent_tag in tags + ("*",):
                for child_tag in tags + ("*",):
                    path = f"//{parent_tag}/{child_tag}"
                    assert query_ids(db, document, path) == navigate(tree, path), (
                        seed, path
                    )


class TestNavigationalOracle:
    """The oracle's own answers on a hand-checked document, and db.query
    agreeing with each."""

    @pytest.mark.parametrize(
        "path, count",
        [
            ("//shelf/book", 2),  # excludes the boxed book
            ("//shelf//book", 3),  # includes it
            ("//book[author]", 1),  # books with an author child
            ("//shelf[.//author]", 1),  # shelves with any author below
        ],
    )
    def test_counts(self, path, count):
        tree = doc()
        assert len(navigate(tree, path)) == count
        db = ContainmentDatabase()
        document = db.load_xml(LIBRARY)
        assert query_ids(db, document, path) == navigate(document.tree, path)

    def test_wildcard_step(self):
        tree = doc()
        # any element directly containing a title
        result = navigate(tree, "//*[title]")
        tags = sorted(tree.tags[n] for n in result)
        assert tags == ["book", "book", "book", "lib"]
        db = ContainmentDatabase()
        document = db.load_xml(LIBRARY)
        assert sorted(n.tag for n in db.query(document, "//*[title]")) == tags


class TestQueryEvaluation:
    @pytest.mark.parametrize(
        "path",
        [
            "//a//b",
            "//a/b",
            "//a/b//c",
            "//a[b]",
            "//a[.//c]/b",
            "//*[c]",
            "//a//b[c]",
        ],
    )
    def test_matches_navigational_on_random_trees(self, path):
        for seed in range(4):
            tree = random_tree(400, seed=seed, tags=("a", "b", "c"))
            db = ContainmentDatabase()
            document = db.load_tree(tree)
            assert query_ids(db, document, path) == navigate(tree, path), (
                seed, path
            )

    def test_realistic_document(self):
        db = ContainmentDatabase()
        document = db.load_xml(LIBRARY)
        for path in ("//shelf/book", "//shelf//book", "//lib/shelf/box/book",
                     "//shelf[box]//title"):
            assert query_ids(db, document, path) == navigate(document.tree, path)

    @pytest.mark.parametrize("direction", ["top-down", "bottom-up"])
    def test_small_pool_spills_every_step(self, direction):
        """A 4-page pool of 128-byte pages puts the child steps and the
        predicate on disk (hash joins past the pool); both directions
        still answer like navigation."""
        tree = random_tree(300, seed=9, tags=("a", "b", "c"))
        db = ContainmentDatabase(buffer_pages=4, page_size=128)
        document = db.load_tree(tree)
        for path in ("//a/b[c]", "//a/b/c", "//a[b]//c"):
            result = db.query(document, path, direction=direction)
            assert sorted(n.id for n in result) == navigate(tree, path), path
            assert all(report.false_hits == 0 for report in result.reports)
