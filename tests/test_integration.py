"""End-to-end integration: XML text -> data tree -> PBiTree codes ->
on-disk element sets -> containment joins -> decoded nodes.

Exercises the full pipeline a user of the library walks through,
including the paper's motivating query //Section//Figure.
"""

import random

import pytest

from repro import (
    BufferManager,
    DiskManager,
    ElementSet,
    JoinSink,
    PBiTreeJoinFramework,
    StackTreeDescJoin,
    binarize,
    parse_xml,
)
from repro.core import pbitree as pt
from repro.datatree.paths import brute_force_join, select_by_tag
from repro.datatree.serialize import to_xml
from repro.join.planner import choose_algorithm
from repro.workloads import dblp, xmark
from .oracles.navigate import navigate


DOCUMENT = """
<book>
  <section id="1">
    <title>Introduction</title>
    <figure name="f1"/>
    <section id="1.1">
      <para>text<figure name="f2"/></para>
    </section>
  </section>
  <section id="2">
    <title>Background</title>
    <para/>
  </section>
  <appendix>
    <figure name="f9"/>
  </appendix>
</book>
"""


class TestMotivatingQuery:
    def pipeline(self, frames=16):
        tree = parse_xml(DOCUMENT)
        encoding = binarize(tree)
        disk = DiskManager(page_size=128)
        bufmgr = BufferManager(disk, frames)
        sections = ElementSet.from_tree_tag(
            bufmgr, tree, "section", encoding.tree_height
        )
        figures = ElementSet.from_tree_tag(
            bufmgr, tree, "figure", encoding.tree_height
        )
        return tree, encoding, sections, figures

    def test_section_figure_join(self):
        tree, encoding, sections, figures = self.pipeline()
        report, pairs = PBiTreeJoinFramework().join(sections, figures)
        # figures f1 and f2 are inside sections; f2 under two sections
        assert report.result_count == 3
        names = set()
        for _a, d_code in pairs:
            node = encoding.node_of(d_code)
            for child in tree.children[node]:
                if tree.tags[child] == "@name":
                    names.add(tree.texts[child])
        assert names == {"f1", "f2"}

    def test_decode_ancestors(self):
        tree, encoding, sections, figures = self.pipeline()
        _report, pairs = PBiTreeJoinFramework().join(sections, figures)
        section_ids = set()
        for a_code, _d in pairs:
            node = encoding.node_of(a_code)
            for child in tree.children[node]:
                if tree.tags[child] == "@id":
                    section_ids.add(tree.texts[child])
        assert section_ids == {"1", "1.1"}

    def test_path_query_chain_through_framework(self):
        """//book//section//figure as two framework joins over code
        lists, each keeping its matched descendants, equals navigation."""
        tree, encoding, _sections, _figures = self.pipeline()
        bufmgr = _sections.bufmgr
        current = select_by_tag(tree, "book")
        for tag in ("section", "figure"):
            a_set = ElementSet.from_codes(
                bufmgr, current, encoding.tree_height, "qa"
            )
            d_set = ElementSet.from_codes(
                bufmgr, select_by_tag(tree, tag), encoding.tree_height, "qd"
            )
            _report, pairs = PBiTreeJoinFramework().join(a_set, d_set)
            a_set.destroy()
            d_set.destroy()
            current = sorted({d for _a, d in pairs})
        navigational = sorted(
            tree.codes[node] for node in navigate(tree, "//book//section//figure")
        )
        assert current == navigational


class TestWorkloadRoundTrips:
    def test_dblp_tree_serializes_and_reparses(self):
        tree = dblp.generate_tree(num_publications=50, seed=2)
        reparsed = parse_xml(to_xml(tree))
        assert reparsed.tag_counts() == tree.tag_counts()

    def test_xmark_join_through_storage(self):
        tree = xmark.generate_tree(scale=0.05, seed=3)
        encoding = binarize(tree)
        disk = DiskManager()
        bufmgr = BufferManager(disk, 32)
        for join in xmark.XMARK_JOINS[:4]:
            a_codes = select_by_tag(tree, join.anc_tag)
            d_codes = select_by_tag(tree, join.desc_tag)
            a_set = ElementSet.from_codes(
                bufmgr, a_codes, encoding.tree_height, join.anc_tag
            )
            d_set = ElementSet.from_codes(
                bufmgr, d_codes, encoding.tree_height, join.desc_tag
            )
            sink = JoinSink("collect")
            StackTreeDescJoin().run(a_set, d_set, sink)
            assert sorted(sink.pairs) == sorted(
                brute_force_join(a_codes, d_codes)
            ), join.name


class TestPlannerEndToEnd:
    def test_every_cell_of_table1_executes(self):
        tree = dblp.generate_tree(num_publications=300, seed=4)
        encoding = binarize(tree)
        disk = DiskManager(page_size=256)
        bufmgr = BufferManager(disk, 32)
        a_codes = select_by_tag(tree, "article")
        d_codes = select_by_tag(tree, "author")
        expected = sorted(brute_force_join(a_codes, d_codes))

        from repro.join.inljn import build_start_index
        from repro import SetProperties

        a_set = ElementSet.from_codes(bufmgr, a_codes, encoding.tree_height, "A")
        d_set = ElementSet.from_codes(bufmgr, d_codes, encoding.tree_height, "D")
        d_index = build_start_index(d_set, bufmgr)
        a_index = build_start_index(a_set, bufmgr)

        cases = [
            (SetProperties(), SetProperties(start_index=d_index)),
            (SetProperties(sorted=True), SetProperties(sorted=True)),
            (
                SetProperties(sorted=True, start_index=a_index),
                SetProperties(sorted=True, start_index=d_index),
            ),
            (SetProperties(), SetProperties()),
        ]
        for a_props, d_props in cases:
            algorithm = choose_algorithm(a_set, d_set, a_props, d_props)
            sink = JoinSink("collect")
            if a_props.sorted:
                sorted_a = a_set.sorted_copy()
                sorted_d = d_set.sorted_copy()
                algorithm.run(sorted_a, sorted_d, sink)
            else:
                algorithm.run(a_set, d_set, sink)
            assert sorted(sink.pairs) == expected, type(algorithm).__name__


class TestCrossDatasetConsistency:
    def test_random_subsets_of_dblp(self):
        tree = dblp.generate_tree(num_publications=400, seed=5)
        encoding = binarize(tree)
        rng = random.Random(6)
        disk = DiskManager(page_size=128)
        bufmgr = BufferManager(disk, 8)
        codes = tree.codes
        for _ in range(3):
            a_codes = rng.sample(codes, 200)
            d_codes = rng.sample(codes, 200)
            a_set = ElementSet.from_codes(bufmgr, a_codes, encoding.tree_height)
            d_set = ElementSet.from_codes(bufmgr, d_codes, encoding.tree_height)
            _report, pairs = PBiTreeJoinFramework().join(a_set, d_set)
            assert sorted(pairs) == sorted(brute_force_join(a_codes, d_codes))
