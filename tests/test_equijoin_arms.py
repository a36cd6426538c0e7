"""The horizontal-partitioning joins' three equijoin arms agree.

SHCJ, a child step (SHCJ keyed on ``UpdatableEncoding.parent_codes``),
MHCJ and MHCJ+Rollup each run the equijoin ``A.code = key(D.code)`` in
memory when a side fits the pool and as a Grace join otherwise.  One
input runs through every algorithm at three pool sizes, chosen so each
arm is taken: the arm is read off ``report.notes`` (SHCJ) or the
``mode`` of the height-class spans (MHCJ).  Sorted pairs and false hits
must be the same in every arm and equal brute force.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import pbitree
from repro.datatree.builder import random_tree
from repro.join.base import JoinSink
from repro.join.mhcj import MultiHeightJoin, MultiHeightRollupJoin
from repro.join.shcj import SingleHeightJoin
from repro.obs.tracer import Tracer
from repro.storage.buffer import BufferManager
from repro.storage.disk import DiskManager
from repro.storage.elementset import ElementSet

from .oracles import pbitree_encoding

PAGE_SIZE = 128
#: pool sizes selecting each arm for the inputs below: everything fits;
#: only D (5 or 6 pages) fits; nothing fits (Grace)
POOLS = {"in-memory (A fits)": 400, "in-memory (D fits)": 10, "grace": 6}


@pytest.fixture(scope="module", params=[7, 2003], ids=lambda seed: f"seed{seed}")
def document(request):
    tree = random_tree(3000, seed=request.param)
    encoding = pbitree_encoding(tree)
    d_nodes = [node for node in tree.iter_by_tag("d")][::10]
    a_nodes = [node for tag in "abc" for node in tree.iter_by_tag(tag)]
    a_codes = [tree.codes[node] for node in a_nodes]
    heights = Counter(pbitree.height_of(code) for code in a_codes)
    top = heights.most_common(1)[0][0]
    return {
        "encoding": encoding,
        "tree": tree,
        "multi": a_codes,
        "single": [code for code in a_codes if pbitree.height_of(code) == top],
        "d": [tree.codes[node] for node in d_nodes],
    }


def run(algorithm, a_codes, d_codes, tree_height, pool):
    bufmgr = BufferManager(DiskManager(page_size=PAGE_SIZE), pool)
    a_set = ElementSet.from_codes(bufmgr, a_codes, tree_height, "A")
    d_set = ElementSet.from_codes(bufmgr, d_codes, tree_height, "D")
    sink = JoinSink("collect")
    report = algorithm.run(a_set, d_set, sink, tracer=Tracer())
    modes = [
        span.attributes["mode"]
        for _depth, span in report.trace.walk()
        if span.name in ("mhcj.join_height", "mhcj.rollup")
    ]
    sizes = (a_set.num_pages, d_set.num_pages)
    a_set.destroy()
    d_set.destroy()
    assert bufmgr.num_pinned == 0
    return sorted(sink.pairs), report, modes, sizes


def containment_pairs(a_codes, d_codes):
    return sorted(
        (a, d) for a in a_codes for d in d_codes if pbitree.is_ancestor(a, d)
    )


def child_pairs(tree, a_codes, d_codes):
    node_of = {code: node for node, code in enumerate(tree.codes)}
    a_set = set(a_codes)
    return sorted(
        (tree.codes[tree.parents[node_of[d]]], d)
        for d in d_codes
        if tree.parents[node_of[d]] >= 0
        and tree.codes[tree.parents[node_of[d]]] in a_set
    )


ALGORITHMS = {
    "SHCJ": lambda encoding: SingleHeightJoin(),
    "child": lambda encoding: SingleHeightJoin(parent_codes=encoding.parent_codes),
    "MHCJ": lambda encoding: MultiHeightJoin(),
    "MHCJ+Rollup": lambda encoding: MultiHeightRollupJoin(),
}


@pytest.mark.parametrize(
    "name, side",
    [
        ("SHCJ", "single"),
        ("child", "single"),
        ("child", "multi"),
        ("MHCJ", "single"),
        ("MHCJ", "multi"),
        ("MHCJ+Rollup", "single"),
        ("MHCJ+Rollup", "multi"),
    ],
)
def test_every_arm_matches_brute_force(document, name, side):
    encoding, tree = document["encoding"], document["tree"]
    a_codes, d_codes = document[side], document["d"]
    if name == "child":
        expected = child_pairs(tree, a_codes, d_codes)
    else:
        expected = containment_pairs(a_codes, d_codes)
    assert expected  # a join with no result would compare nothing
    outcomes = {}
    for arm, pool in POOLS.items():
        pairs, report, modes, (a_pages, d_pages) = run(
            ALGORITHMS[name](encoding), a_codes, d_codes, encoding.tree_height, pool
        )
        # D is too big for the Grace pool and fits the D-fits one; A does not
        assert POOLS["grace"] - 2 < d_pages <= POOLS["in-memory (D fits)"] - 2
        assert a_pages > POOLS["in-memory (D fits)"] - 2
        if name in ("SHCJ", "child"):
            assert report.notes == arm
        elif name == "MHCJ" and side == "multi":
            # one class per height: the largest takes the pool's arm,
            # a small class may still fit
            assert arm in modes
        else:
            assert modes == [arm]
        assert pairs == expected, arm
        outcomes[arm] = report.false_hits
    # false hits do not depend on the arm; only rolled records have any
    assert len(set(outcomes.values())) == 1
    rolled = name == "MHCJ+Rollup" and side == "multi"
    assert (outcomes["grace"] > 0) == rolled


def test_containment_algorithms_agree(document):
    """SHCJ, MHCJ and MHCJ+Rollup give one answer on one input."""
    encoding = document["encoding"]
    results = {
        name: run(
            ALGORITHMS[name](encoding),
            document["single"],
            document["d"],
            encoding.tree_height,
            POOLS["grace"],
        )[0]
        for name in ("SHCJ", "MHCJ", "MHCJ+Rollup")
    }
    assert results["SHCJ"] == results["MHCJ"] == results["MHCJ+Rollup"]
