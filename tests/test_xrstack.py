"""Tests for the XR-stack join (footnote [8]; ablation A9's code)."""

import random

from hypothesis import given, settings, strategies as st

from benchmarks.ablations.xrstack import XRStackJoin
from benchmarks.ablations.xrtree import XRTree
from repro import (
    BufferManager,
    DiskManager,
    ElementSet,
    JoinSink,
    binarize,
    brute_force_join,
    random_tree,
)
from repro.core import pbitree as pt
from repro.join.ancdes_b import AncDesBPlusJoin
from repro.join.inljn import build_start_index
from repro.workloads import synthetic as syn


def run_join(algorithm, a_codes, d_codes, tree_height, frames=16, page_size=128):
    disk = DiskManager(page_size=page_size)
    bufmgr = BufferManager(disk, frames)
    a_set = ElementSet.from_codes(bufmgr, a_codes, tree_height, "A")
    d_set = ElementSet.from_codes(bufmgr, d_codes, tree_height, "D")
    sink = JoinSink("collect")
    report = algorithm.run(a_set, d_set, sink)
    return sorted(sink.pairs), report, sink


class TestCorrectness:
    @given(
        st.integers(5, 500),
        st.integers(0, 2000),
        st.sampled_from([2, 3, 12]),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force(self, num_nodes, seed, fanout):
        tree = random_tree(num_nodes, max_fanout=fanout, seed=seed)
        encoding = binarize(tree)
        rng = random.Random(seed)
        a_codes = rng.sample(tree.codes, max(1, num_nodes // 2))
        d_codes = rng.sample(tree.codes, max(1, num_nodes // 2))
        got, _report, _sink = run_join(
            XRStackJoin(), a_codes, d_codes, encoding.tree_height
        )
        assert got == sorted(brute_force_join(a_codes, d_codes))

    def test_output_in_descendant_order(self):
        tree = random_tree(600, seed=7)
        encoding = binarize(tree)
        rng = random.Random(7)
        _got, _report, sink = run_join(
            XRStackJoin(),
            rng.sample(tree.codes, 250),
            rng.sample(tree.codes, 250),
            encoding.tree_height,
        )
        keys = [pt.doc_order_key(d) for _a, d in sink.pairs]
        assert keys == sorted(keys)

    def test_empty_inputs(self):
        tree = random_tree(50, seed=8)
        encoding = binarize(tree)
        for a_codes, d_codes in (([], tree.codes), (tree.codes, []), ([], [])):
            got, _r, _s = run_join(
                XRStackJoin(), a_codes, d_codes, encoding.tree_height
            )
            assert got == []

    def test_leftmost_chain_ties(self):
        """The regression that uncovered the XR-tree tie-ordering bug:
        ancestors sharing their Start with descendants."""
        chain = [512, 608, 580, 578, 584]
        a_codes = [512, 608, 580, 578]
        d_codes = [608, 584, 512]
        got, _r, _s = run_join(XRStackJoin(), a_codes, d_codes, 12)
        assert got == sorted(brute_force_join(a_codes, d_codes))
        assert (608, 584) in got


class TestSkipping:
    def test_stab_count_reported(self):
        spec = syn.spec_by_name("SLLL", large=4000, small=400)
        dataset = syn.generate(spec, seed=4)
        _got, report, _sink = run_join(
            XRStackJoin(),
            dataset.a_codes,
            dataset.d_codes,
            dataset.tree_height,
            frames=24,
            page_size=1024,
        )
        assert report.notes.startswith("stabs:")
        assert report.result_count == dataset.num_results

    def test_prebuilt_indexes_skip_prep(self):
        tree = random_tree(300, seed=9)
        encoding = binarize(tree)
        disk = DiskManager()
        bufmgr = BufferManager(disk, 32)
        a_set = ElementSet.from_codes(bufmgr, tree.codes[:150], encoding.tree_height)
        d_set = ElementSet.from_codes(bufmgr, tree.codes[150:], encoding.tree_height)
        a_index = XRTree.build(bufmgr, a_set.scan())
        d_index = build_start_index(d_set, bufmgr)
        report = XRStackJoin(a_index=a_index, d_index=d_index).run(
            a_set, d_set, JoinSink("count")
        )
        assert report.prep_io.total == 0

    def test_agrees_with_adb_on_low_selectivity(self):
        """The footnote's rivals must return identical results."""
        spec = syn.spec_by_name("MLSL", large=3000, small=300)
        dataset = syn.generate(spec, seed=5)
        xr_got, _r1, _s1 = run_join(
            XRStackJoin(), dataset.a_codes, dataset.d_codes,
            dataset.tree_height, frames=24, page_size=1024,
        )
        adb_got, _r2, _s2 = run_join(
            AncDesBPlusJoin(), dataset.a_codes, dataset.d_codes,
            dataset.tree_height, frames=24, page_size=1024,
        )
        assert xr_got == adb_got
        assert len(xr_got) == dataset.num_results
