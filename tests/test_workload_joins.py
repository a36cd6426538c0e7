"""Cross-algorithm agreement on the *workload* trees.

The synthetic correctness suite uses random trees; this one drives
every algorithm (including ablation A3's spatial pair) over joins
extracted from the DBLP-like, XMark-like and text workloads — the
shapes the paper's Section 4.2 runs — and checks pairwise agreement
plus oracle equality.
"""

import pytest

from benchmarks.ablations.spatial import RTreeProbeJoin, SynchronizedRTreeJoin
from repro import (
    AncDesBPlusJoin,
    BlockNestedLoopJoin,
    BufferManager,
    DiskManager,
    ElementSet,
    IndexNestedLoopJoin,
    JoinSink,
    MPMGJoin,
    MultiHeightJoin,
    MultiHeightRollupJoin,
    StackTreeAncJoin,
    StackTreeDescJoin,
    VerticalPartitionJoin,
    binarize,
    brute_force_join,
)
from repro.datatree.paths import select_by_tag
from repro.workloads import dblp, textdoc, xmark

ALGORITHMS = [
    BlockNestedLoopJoin,
    IndexNestedLoopJoin,
    MPMGJoin,
    StackTreeDescJoin,
    StackTreeAncJoin,
    AncDesBPlusJoin,
    MultiHeightJoin,
    MultiHeightRollupJoin,
    VerticalPartitionJoin,
    RTreeProbeJoin,
    SynchronizedRTreeJoin,
]


def run_all(tree, encoding, anc_tag, desc_tag, frames=16):
    a_codes = select_by_tag(tree, anc_tag)
    d_codes = select_by_tag(tree, desc_tag)
    expected = sorted(brute_force_join(a_codes, d_codes))
    disk = DiskManager()
    bufmgr = BufferManager(disk, frames)
    a_set = ElementSet.from_codes(bufmgr, a_codes, encoding.tree_height)
    d_set = ElementSet.from_codes(bufmgr, d_codes, encoding.tree_height)
    for algorithm_cls in ALGORITHMS:
        sink = JoinSink("collect")
        algorithm_cls().run(a_set, d_set, sink)
        assert sorted(sink.pairs) == expected, algorithm_cls.__name__
    return len(expected)


@pytest.fixture(scope="module")
def dblp_doc():
    tree = dblp.generate_tree(num_publications=400, seed=17)
    return tree, binarize(tree)


@pytest.fixture(scope="module")
def xmark_doc():
    tree = xmark.generate_tree(scale=0.03, seed=17)
    return tree, binarize(tree)


@pytest.fixture(scope="module")
def text_doc():
    tree = textdoc.generate_tree(num_parts=1, chapters_per_part=3, seed=17)
    return tree, binarize(tree)


class TestDBLPJoins:
    @pytest.mark.parametrize("join", dblp.DBLP_JOINS[:6], ids=lambda j: j.name)
    def test_all_algorithms_agree(self, dblp_doc, join):
        tree, encoding = dblp_doc
        run_all(tree, encoding, join.anc_tag, join.desc_tag)


class TestXMarkJoins:
    @pytest.mark.parametrize("join", xmark.XMARK_JOINS[:6], ids=lambda j: j.name)
    def test_all_algorithms_agree(self, xmark_doc, join):
        tree, encoding = xmark_doc
        run_all(tree, encoding, join.anc_tag, join.desc_tag)

    def test_nested_self_join(self, xmark_doc):
        """parlist <| parlist: nested same-tag ancestors (B9 shape)."""
        tree, encoding = xmark_doc
        count = run_all(tree, encoding, "parlist", "parlist")
        assert count > 0


class TestTextJoins:
    @pytest.mark.parametrize("join", textdoc.TEXT_JOINS, ids=lambda j: j.name)
    def test_all_algorithms_agree(self, text_doc, join):
        tree, encoding = text_doc
        run_all(tree, encoding, join.anc_tag, join.desc_tag)
