"""Algorithm-specific behaviour: ordering, false hits, skipping,
partitioning mechanics — the properties the paper attributes to each
algorithm beyond bare correctness."""

import random

import pytest

from repro import (
    AncDesBPlusJoin,
    BufferManager,
    DiskManager,
    ElementSet,
    IndexNestedLoopJoin,
    JoinSink,
    MPMGJoin,
    MultiHeightJoin,
    MultiHeightRollupJoin,
    SingleHeightJoin,
    StackTreeAncJoin,
    StackTreeDescJoin,
    VerticalPartitionJoin,
    binarize,
    brute_force_join,
    random_tree,
)
from repro.core import pbitree as pt
from repro.join.mhcj import choose_rollup_height
from repro.workloads import synthetic as syn


def make_sets(a_codes, d_codes, tree_height, frames=8, page_size=128):
    disk = DiskManager(page_size=page_size)
    bufmgr = BufferManager(disk, frames)
    a_set = ElementSet.from_codes(bufmgr, a_codes, tree_height, "A")
    d_set = ElementSet.from_codes(bufmgr, d_codes, tree_height, "D")
    return disk, a_set, d_set


def encoded_random(n=400, seed=3, fanout=8):
    tree = random_tree(n, max_fanout=fanout, seed=seed)
    encoding = binarize(tree)
    return tree, encoding


class TestStackTreeOrdering:
    def inputs(self):
        tree, encoding = encoded_random(500, seed=9)
        rng = random.Random(1)
        a_codes = rng.sample(tree.codes, 200)
        d_codes = rng.sample(tree.codes, 200)
        return a_codes, d_codes, encoding.tree_height

    def test_desc_variant_outputs_descendant_order(self):
        a_codes, d_codes, tree_height = self.inputs()
        _disk, a_set, d_set = make_sets(a_codes, d_codes, tree_height)
        sink = JoinSink("collect")
        StackTreeDescJoin().run(a_set, d_set, sink)
        d_keys = [pt.doc_order_key(d) for _a, d in sink.pairs]
        assert d_keys == sorted(d_keys)

    def test_anc_variant_outputs_ancestor_order(self):
        a_codes, d_codes, tree_height = self.inputs()
        _disk, a_set, d_set = make_sets(a_codes, d_codes, tree_height)
        sink = JoinSink("collect")
        StackTreeAncJoin().run(a_set, d_set, sink)
        a_keys = [pt.doc_order_key(a) for a, _d in sink.pairs]
        assert a_keys == sorted(a_keys)

    def test_variants_agree(self):
        a_codes, d_codes, tree_height = self.inputs()
        _disk, a_set, d_set = make_sets(a_codes, d_codes, tree_height)
        desc_sink, anc_sink = JoinSink("collect"), JoinSink("collect")
        StackTreeDescJoin().run(a_set, d_set, desc_sink)
        StackTreeAncJoin().run(a_set, d_set, anc_sink)
        assert sorted(desc_sink.pairs) == sorted(anc_sink.pairs)

    def test_optimal_io_on_sorted_inputs(self):
        """Pre-sorted inputs: stack-tree reads each input page once."""
        a_codes, d_codes, tree_height = self.inputs()
        disk, a_set, d_set = make_sets(
            sorted(a_codes, key=pt.doc_order_key),
            sorted(d_codes, key=pt.doc_order_key),
            tree_height,
        )
        a_set.sorted_by = "start"
        d_set.sorted_by = "start"
        a_set.bufmgr.flush_all()
        a_set.bufmgr.evict_all()
        disk.stats.reset()
        report = StackTreeDescJoin().run(a_set, d_set, JoinSink("count"))
        assert report.prep_io.total == 0  # no on-the-fly sort
        assert report.join_io.reads == a_set.num_pages + d_set.num_pages


class TestSHCJ:
    def test_rejects_multi_height_set(self):
        tree, encoding = encoded_random()
        _disk, a_set, d_set = make_sets(
            tree.codes, tree.codes, encoding.tree_height
        )
        if len(a_set.known_heights) > 1:
            with pytest.raises(ValueError):
                SingleHeightJoin().run(a_set, d_set, JoinSink("count"))

    def test_explicit_height_skips_discovery(self):
        spec = syn.spec_by_name("SSSH", large=2000, small=300)
        ds = syn.generate(spec, seed=4)
        _disk, a_set, d_set = make_sets(ds.a_codes, ds.d_codes, ds.tree_height)
        height = spec.a_heights[0]
        sink = JoinSink("collect")
        report = SingleHeightJoin(height=height).run(a_set, d_set, sink)
        assert report.result_count == ds.num_results
        assert report.false_hits == 0

    def test_height_discovered_from_known_heights(self):
        """Without ``height=`` SHCJ takes the one height the set's
        histogram knows."""
        spec = syn.spec_by_name("SSSL", large=2000, small=200)
        ds = syn.generate(spec, seed=4)
        _disk, a_set, d_set = make_sets(ds.a_codes, ds.d_codes, ds.tree_height)
        assert a_set.known_heights == {spec.a_heights[0]}
        assert d_set.known_heights == {spec.d_heights[0]}
        report = SingleHeightJoin().run(a_set, d_set, JoinSink("count"))
        assert report.result_count == ds.num_results
        assert report.false_hits == 0

    def test_descendants_at_or_above_height_filtered(self):
        """F(d, h) for height(d) >= h is not an ancestor: must not match."""
        tree_height = 8
        anc = pt.g_code(0, 3, tree_height)     # height 4
        high = pt.f_ancestor(anc, 5)           # above the set's height
        sibling = pt.g_code(1, 3, tree_height)
        _disk, a_set, d_set = make_sets(
            [anc], [high, sibling, anc], tree_height
        )
        sink = JoinSink("collect")
        SingleHeightJoin(height=4).run(a_set, d_set, sink)
        assert sink.pairs == []


class TestMHCJ:
    def test_partition_count_equals_heights(self):
        tree, encoding = encoded_random(600, seed=5)
        rng = random.Random(0)
        a_codes = rng.sample(tree.codes, 300)
        _disk, a_set, d_set = make_sets(a_codes, tree.codes, encoding.tree_height)
        report = MultiHeightJoin().run(a_set, d_set, JoinSink("count"))
        assert report.partitions == len(a_set.known_heights)

    def test_more_partitions_costs_more_descendant_scans(self):
        """MHCJ re-reads D once per height class: cost grows with k."""
        spec = syn.spec_by_name("MLSL", large=4000, small=400)
        ds = syn.generate(spec, seed=2)
        disk, a_set, d_set = make_sets(
            ds.a_codes, ds.d_codes, ds.tree_height, frames=4
        )
        a_set.bufmgr.flush_all(); a_set.bufmgr.evict_all(); disk.stats.reset()
        plain = MultiHeightJoin().run(a_set, d_set, JoinSink("count"))
        a_set.bufmgr.flush_all(); a_set.bufmgr.evict_all(); disk.stats.reset()
        rolled = MultiHeightRollupJoin().run(a_set, d_set, JoinSink("count"))
        assert plain.partitions > rolled.partitions
        assert plain.total_pages > rolled.total_pages


class TestRollup:
    def test_false_hits_counted_and_filtered(self):
        spec = syn.spec_by_name("MSSH", large=3000, small=500)
        ds = syn.generate(spec, seed=3)
        _disk, a_set, d_set = make_sets(ds.a_codes, ds.d_codes, ds.tree_height)
        sink = JoinSink("collect")
        report = MultiHeightRollupJoin().run(a_set, d_set, sink)
        assert report.result_count == ds.num_results
        assert report.false_hits > 0  # rollup over 7 heights must misfire
        expected = sorted(brute_force_join(ds.a_codes, ds.d_codes))
        assert sorted(sink.pairs) == expected

    def test_single_height_input_has_no_false_hits(self):
        spec = syn.spec_by_name("SSSH", large=3000, small=400)
        ds = syn.generate(spec, seed=3)
        _disk, a_set, d_set = make_sets(ds.a_codes, ds.d_codes, ds.tree_height)
        report = MultiHeightRollupJoin().run(a_set, d_set, JoinSink("count"))
        assert report.false_hits == 0
        assert report.partitions == 1

    def test_strategy_choices(self):
        assert choose_rollup_height([1, 3, 7], "max") == 7
        assert choose_rollup_height([1, 3, 7], "min") == 1
        assert choose_rollup_height([1, 3, 7], "median") == 3
        with pytest.raises(ValueError):
            choose_rollup_height([], "max")
        with pytest.raises(ValueError):
            choose_rollup_height([1], "nope")

    def test_explicit_target_height(self):
        tree, encoding = encoded_random(300, seed=6)
        rng = random.Random(2)
        a_codes = rng.sample(tree.codes, 150)
        d_codes = rng.sample(tree.codes, 150)
        target = max(pt.height_of(c) for c in a_codes) + 1
        _disk, a_set, d_set = make_sets(a_codes, d_codes, encoding.tree_height)
        sink = JoinSink("collect")
        MultiHeightRollupJoin(target_height=target).run(a_set, d_set, sink)
        assert sorted(sink.pairs) == sorted(brute_force_join(a_codes, d_codes))


class TestADBPlus:
    def test_skips_on_low_selectivity(self):
        """Sparse matches leave the stack empty often: skips must fire."""
        spec = syn.spec_by_name("SLLL", large=6000, small=600)
        ds = syn.generate(spec, seed=5)
        _disk, a_set, d_set = make_sets(
            ds.a_codes, ds.d_codes, ds.tree_height, frames=16
        )
        report = AncDesBPlusJoin().run(a_set, d_set, JoinSink("count"))
        assert "probes" in report.notes
        probes = sum(
            int(part.split("=")[1]) for part in report.notes.split()[2:]
        )
        assert probes > 0

    def test_prebuilt_indexes_skip_prep(self):
        from repro.join.inljn import build_start_index

        tree, encoding = encoded_random(300, seed=8)
        disk, a_set, d_set = make_sets(
            tree.codes[:150], tree.codes[150:], encoding.tree_height, frames=32
        )
        a_index = build_start_index(a_set, a_set.bufmgr)
        d_index = build_start_index(d_set, d_set.bufmgr)
        report = AncDesBPlusJoin(a_index=a_index, d_index=d_index).run(
            a_set, d_set, JoinSink("count")
        )
        assert report.prep_io.total == 0


class TestINLJN:
    def test_outer_side_heuristic(self):
        tree, encoding = encoded_random(400, seed=10)
        _disk, small, large = make_sets(
            tree.codes[:20], tree.codes, encoding.tree_height, frames=32
        )
        join = IndexNestedLoopJoin()
        assert join._outer_side(small, large) == "A"
        assert join._outer_side(large, small) == "D"

    @pytest.mark.parametrize("outer", ["A", "D"])
    def test_forced_outer_sides_agree(self, outer):
        tree, encoding = encoded_random(400, seed=12)
        rng = random.Random(4)
        a_codes = rng.sample(tree.codes, 150)
        d_codes = rng.sample(tree.codes, 150)
        _disk, a_set, d_set = make_sets(
            a_codes, d_codes, encoding.tree_height, frames=32
        )
        sink = JoinSink("collect")
        IndexNestedLoopJoin(force_outer=outer).run(a_set, d_set, sink)
        assert sorted(sink.pairs) == sorted(brute_force_join(a_codes, d_codes))

    @pytest.mark.parametrize("outer", ["a", "d", "", "both"])
    def test_bad_forced_outer_rejected(self, outer):
        # "d" once fell through to the size heuristic without an error
        with pytest.raises(ValueError, match="force_outer"):
            IndexNestedLoopJoin(force_outer=outer)

    def test_random_probe_reads_counted(self):
        spec = syn.spec_by_name("SSLH", large=5000, small=100)
        ds = syn.generate(spec, seed=6)
        disk, a_set, d_set = make_sets(
            ds.a_codes, ds.d_codes, ds.tree_height, frames=8
        )
        a_set.bufmgr.flush_all(); a_set.bufmgr.evict_all(); disk.stats.reset()
        report = IndexNestedLoopJoin().run(a_set, d_set, JoinSink("count"))
        assert report.join_io.random_reads > 0


class TestVPJ:
    def test_partitions_created_when_large(self):
        spec = syn.spec_by_name("SLLL", large=8000, small=800)
        ds = syn.generate(spec, seed=7)
        _disk, a_set, d_set = make_sets(
            ds.a_codes, ds.d_codes, ds.tree_height, frames=8
        )
        report = VerticalPartitionJoin().run(a_set, d_set, JoinSink("count"))
        assert report.partitions > 0
        assert report.result_count == ds.num_results

    def test_memory_join_when_one_side_fits(self):
        tree, encoding = encoded_random(300, seed=13)
        _disk, a_set, d_set = make_sets(
            tree.codes[:10], tree.codes, encoding.tree_height, frames=16
        )
        report = VerticalPartitionJoin().run(a_set, d_set, JoinSink("count"))
        assert report.partitions == 0  # straight to memory join

    def test_replicated_ancestors_not_duplicated(self):
        """High ancestors replicate across partitions; results must not."""
        tree_height = 16
        root = pt.root_code(tree_height)
        descendants = [pt.g_code(alpha, 10, tree_height) for alpha in range(800)]
        _disk, a_set, d_set = make_sets(
            [root], descendants, tree_height, frames=4
        )
        sink = JoinSink("collect")
        VerticalPartitionJoin().run(a_set, d_set, sink)
        assert sorted(sink.pairs) == sorted((root, d) for d in descendants)

    def test_io_stays_near_three_passes(self):
        """Without recursion VPJ costs about 3(||A|| + ||D||)."""
        spec = syn.spec_by_name("SLLL", large=10_000, small=1000)
        ds = syn.generate(spec, seed=8)
        disk, a_set, d_set = make_sets(
            ds.a_codes, ds.d_codes, ds.tree_height, frames=24
        )
        a_set.bufmgr.flush_all(); a_set.bufmgr.evict_all(); disk.stats.reset()
        report = VerticalPartitionJoin().run(a_set, d_set, JoinSink("count"))
        pages = a_set.num_pages + d_set.num_pages
        assert report.total_pages <= 4.5 * pages


class TestMPMGJN:
    def test_rescans_cost_more_than_stacktree_on_nested_data(self):
        """Deep nesting makes MPMGJN re-scan descendant segments."""
        from repro.datatree.node import DataTree

        # a chain of nested ancestors, each with a block of leaves: the
        # nested regions force MPMGJN to re-read descendant segments.
        # (3 leaves + 1 chain child = 4 children -> k=2 levels per link,
        # keeping the PBiTree within the 63-bit storage code space)
        tree = DataTree()
        node = tree.add_root("r")
        chain = [node]
        for _ in range(24):
            node = tree.add_child(node, "c")
            chain.append(node)
        leaves = []
        for anchor in chain:
            for _ in range(3):
                leaves.append(tree.add_child(anchor, "x"))
        encoding = binarize(tree)
        a_codes = [tree.codes[n] for n in chain]
        d_codes = [tree.codes[n] for n in leaves]
        disk, a_set, d_set = make_sets(
            a_codes, d_codes, encoding.tree_height, frames=4
        )
        a_set.bufmgr.flush_all(); a_set.bufmgr.evict_all(); disk.stats.reset()
        merge = MPMGJoin().run(a_set, d_set, JoinSink("count"))
        a_set.bufmgr.flush_all(); a_set.bufmgr.evict_all(); disk.stats.reset()
        stack = StackTreeDescJoin().run(a_set, d_set, JoinSink("count"))
        assert merge.result_count == stack.result_count
        assert merge.join_io.reads > stack.join_io.reads


class TestInputValidation:
    def test_mismatched_tree_heights_rejected(self):
        disk = DiskManager()
        bufmgr = BufferManager(disk, 8)
        a_set = ElementSet.from_codes(bufmgr, [4], 5, "A")
        d_set = ElementSet.from_codes(bufmgr, [4], 6, "D")
        with pytest.raises(ValueError):
            StackTreeDescJoin().run(a_set, d_set, JoinSink("count"))
