"""Tests for the one planner: Table 1 picks the cell, the cost model
picks inside it, and every caller plans through it."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    AncDesBPlusJoin,
    BufferManager,
    DiskManager,
    ElementSet,
    IndexNestedLoopJoin,
    MultiHeightRollupJoin,
    PBiTreeJoinFramework,
    SetProperties,
    SingleHeightJoin,
    SortOrder,
    StackTreeDescJoin,
    VerticalPartitionJoin,
    binarize,
    brute_force_join,
    choose_algorithm,
    random_tree,
)
from repro import ContainmentDatabase, QueryService
from repro.core import pbitree as pt
from repro.experiments.harness import Workbench, materialize, run_algorithm
from repro.join.costmodel import CostModel
from repro.join.inljn import build_interval_index, build_start_index
from repro.join.mhcj import rolled_pair_pages
from repro.join.planner import explain, make_algorithm, plan
from repro.workloads import synthetic as syn


def make_sets(a_codes, d_codes, tree_height, frames=8, **a_kwargs):
    disk = DiskManager(page_size=128)
    bufmgr = BufferManager(disk, frames)
    a_set = ElementSet.from_codes(bufmgr, a_codes, tree_height, "A", **a_kwargs)
    d_set = ElementSet.from_codes(bufmgr, d_codes, tree_height, "D")
    return a_set, d_set


def assert_cell_argmin(chosen, cell, candidates):
    """The rule every pick obeys: Table 1 names the cell, and inside it
    the plan is the arg-min of ``(total pages, cpu)`` — ``candidates``
    in Table-1 order, which ``list.index`` keeps on a full tie."""
    assert chosen.cell == cell
    priced = {e.algorithm: e for e in CostModel().all_estimates(chosen.inputs)}
    keys = [(priced[name].total, priced[name].cpu) for name in candidates]
    assert chosen.algorithm_name == candidates[keys.index(min(keys))]
    assert [(e.total, e.cpu) for e in chosen.estimates] == sorted(keys)
    assert sorted(e.algorithm for e in chosen.estimates) == sorted(candidates)


PARTITIONING = ["MHCJ+Rollup", "VPJ"]


class TestTable1Matrix:
    """The planner must realise the paper's Table 1 exactly."""

    def fixtures(self):
        tree = random_tree(300, seed=20)
        encoding = binarize(tree)
        rng = random.Random(0)
        a_codes = rng.sample(tree.codes, 100)
        d_codes = rng.sample(tree.codes, 100)
        return make_sets(a_codes, d_codes, encoding.tree_height, frames=32)

    def test_indexed_unsorted_uses_inljn(self):
        a_set, d_set = self.fixtures()
        index = build_start_index(d_set, d_set.bufmgr)
        algorithm = choose_algorithm(
            a_set,
            d_set,
            SetProperties(),
            SetProperties(start_index=index),
        )
        assert isinstance(algorithm, IndexNestedLoopJoin)

    def test_sorted_unindexed_uses_stacktree(self):
        a_set, d_set = self.fixtures()
        algorithm = choose_algorithm(
            a_set,
            d_set,
            SetProperties(sorted=True),
            SetProperties(sorted=True),
        )
        assert isinstance(algorithm, StackTreeDescJoin)

    def test_sorted_and_indexed_uses_adb(self):
        a_set, d_set = self.fixtures()
        a_index = build_start_index(a_set, a_set.bufmgr)
        d_index = build_start_index(d_set, d_set.bufmgr)
        algorithm = choose_algorithm(
            a_set,
            d_set,
            SetProperties(sorted=True, start_index=a_index),
            SetProperties(sorted=True, start_index=d_index),
        )
        assert isinstance(algorithm, AncDesBPlusJoin)
        assert algorithm.a_index is a_index

    def test_neither_single_height_uses_shcj(self):
        a_set, d_set = self.fixtures()
        algorithm = choose_algorithm(
            a_set,
            d_set,
            SetProperties(single_height=4),
            SetProperties(),
        )
        assert isinstance(algorithm, SingleHeightJoin)
        assert algorithm.height == 4

    def test_neither_small_reads_each_input_once(self):
        """100 x 100 multi-height elements in a 32-page pool: the
        partitioning cell, both candidates one pass, so the estimated
        operations pick between them."""
        a_set, d_set = self.fixtures()
        chosen = plan(a_set, d_set)
        assert_cell_argmin(chosen, "unsorted-unindexed", PARTITIONING)
        one_pass = a_set.num_pages + d_set.num_pages
        assert [e.total for e in chosen.estimates] == [one_pass, one_pass]
        assert chosen.estimates[0].cpu < chosen.estimates[1].cpu
        assert type(choose_algorithm(a_set, d_set)) is type(chosen.instantiate())

    def test_neither_large_uses_vpj(self):
        spec = syn.spec_by_name("MLLL", large=6000, small=600)
        ds = syn.generate(spec, seed=9)
        a_set, d_set = make_sets(ds.a_codes, ds.d_codes, ds.tree_height, frames=4)
        algorithm = choose_algorithm(a_set, d_set)
        assert isinstance(algorithm, VerticalPartitionJoin)


class TestIndexUsability:
    """Regression: the "indexed" column of Table 1 only counts an index
    INLJN can actually probe — a Start B+-tree on D (outer = A) or a
    stab structure on A (outer = D).  The planner used to treat any
    index on either input as qualifying, returning an
    ``IndexNestedLoopJoin(d_index=None, a_index=None)`` that silently
    rebuilt both indexes from scratch inside the operator.
    """

    def fixtures(self):
        tree = random_tree(300, seed=20)
        encoding = binarize(tree)
        rng = random.Random(3)
        a_codes = rng.sample(tree.codes, 100)
        d_codes = rng.sample(tree.codes, 100)
        return make_sets(a_codes, d_codes, encoding.tree_height, frames=32)

    def test_wrong_type_indexes_fall_through_to_unindexed_cell(self):
        """A Start index on A plus a stab index on D serve no INLJN
        probe direction: plan exactly as if unindexed."""
        a_set, d_set = self.fixtures()
        a_start = build_start_index(a_set, a_set.bufmgr)
        d_stab = build_interval_index(d_set, d_set.bufmgr)
        chosen = plan(
            a_set,
            d_set,
            SetProperties(start_index=a_start),
            SetProperties(interval_index=d_stab),
        )
        assert_cell_argmin(chosen, "unsorted-unindexed", PARTITIONING)
        assert chosen.estimates == plan(a_set, d_set).estimates
        assert not isinstance(chosen.instantiate(), IndexNestedLoopJoin)

    def test_d_start_index_pins_outer_to_a(self):
        a_set, d_set = self.fixtures()
        d_index = build_start_index(d_set, d_set.bufmgr)
        algorithm = choose_algorithm(
            a_set, d_set, SetProperties(), SetProperties(start_index=d_index)
        )
        assert isinstance(algorithm, IndexNestedLoopJoin)
        assert algorithm.d_index is d_index
        assert algorithm.force_outer == "A"

    def test_a_stab_index_pins_outer_to_d(self):
        a_set, d_set = self.fixtures()
        a_index = build_interval_index(a_set, a_set.bufmgr)
        algorithm = choose_algorithm(
            a_set, d_set, SetProperties(interval_index=a_index), SetProperties()
        )
        assert isinstance(algorithm, IndexNestedLoopJoin)
        assert algorithm.a_index is a_index
        assert algorithm.force_outer == "D"

    def test_both_usable_indexes_unpinned(self):
        a_set, d_set = self.fixtures()
        a_index = build_interval_index(a_set, a_set.bufmgr)
        d_index = build_start_index(d_set, d_set.bufmgr)
        algorithm = choose_algorithm(
            a_set,
            d_set,
            SetProperties(interval_index=a_index),
            SetProperties(start_index=d_index),
        )
        assert isinstance(algorithm, IndexNestedLoopJoin)
        assert algorithm.d_index is d_index
        assert algorithm.a_index is a_index
        assert algorithm.force_outer is None

    def test_planned_join_is_correct_with_single_usable_index(self):
        """End to end: the pinned-outer plan computes the right answer."""
        tree = random_tree(220, seed=24)
        encoding = binarize(tree)
        rng = random.Random(6)
        a_codes = rng.sample(tree.codes, 80)
        d_codes = rng.sample(tree.codes, 80)
        a_set, d_set = make_sets(a_codes, d_codes, encoding.tree_height, frames=32)
        d_index = build_start_index(d_set, d_set.bufmgr)
        framework = PBiTreeJoinFramework()
        report, pairs = framework.join(
            a_set, d_set, SetProperties(), SetProperties(start_index=d_index)
        )
        assert sorted(pairs) == sorted(brute_force_join(a_codes, d_codes))

    def test_planned_join_is_correct_with_a_stab_index(self):
        """The other direction: outer D stabs the interval tree on A."""
        tree = random_tree(220, seed=24)
        encoding = binarize(tree)
        rng = random.Random(5)
        a_codes = rng.sample(tree.codes, 90)
        d_codes = rng.sample(tree.codes, 120)
        a_set, d_set = make_sets(a_codes, d_codes, encoding.tree_height, frames=32)
        a_index = build_interval_index(a_set, a_set.bufmgr)
        algorithm = choose_algorithm(
            a_set, d_set, SetProperties(interval_index=a_index), SetProperties()
        )
        assert isinstance(algorithm, IndexNestedLoopJoin)
        assert algorithm.force_outer == "D"
        report, pairs = PBiTreeJoinFramework().join(
            a_set, d_set, SetProperties(interval_index=a_index), SetProperties()
        )
        assert sorted(pairs) == sorted(brute_force_join(a_codes, d_codes))
        assert report.result_count == len(pairs)
        assert a_set.bufmgr.num_pinned == 0


class TestPropertyInference:
    def test_sorted_flag_inferred_from_metadata(self):
        tree = random_tree(100, seed=21)
        encoding = binarize(tree)
        codes = sorted(tree.codes, key=pt.doc_order_key)
        a_set, d_set = make_sets(
            codes, codes, encoding.tree_height, sorted_by=SortOrder.START
        )
        d_set.sorted_by = SortOrder.START
        algorithm = choose_algorithm(a_set, d_set)
        assert isinstance(algorithm, StackTreeDescJoin)

    def test_single_height_inferred_from_metadata(self):
        spec = syn.spec_by_name("SSSL", large=1000, small=200)
        ds = syn.generate(spec, seed=10)
        a_set, d_set = make_sets(ds.a_codes, ds.d_codes, ds.tree_height)
        algorithm = choose_algorithm(a_set, d_set)
        assert isinstance(algorithm, SingleHeightJoin)


class TestFrameworkFacade:
    def test_join_returns_report_and_pairs(self):
        tree = random_tree(200, seed=22)
        encoding = binarize(tree)
        rng = random.Random(1)
        a_codes = rng.sample(tree.codes, 80)
        d_codes = rng.sample(tree.codes, 80)
        a_set, d_set = make_sets(a_codes, d_codes, encoding.tree_height)
        report, pairs = PBiTreeJoinFramework().join(a_set, d_set)
        assert sorted(pairs) == sorted(brute_force_join(a_codes, d_codes))
        assert report.result_count == len(pairs)

    def test_count_only_mode(self):
        tree = random_tree(200, seed=23)
        encoding = binarize(tree)
        a_set, d_set = make_sets(
            tree.codes[:50], tree.codes, encoding.tree_height
        )
        report, pairs = PBiTreeJoinFramework().join(a_set, d_set, collect=False)
        assert pairs == []
        assert report.result_count == len(
            brute_force_join(tree.codes[:50], tree.codes)
        )


class TestCells:
    """``Plan.cell`` is the Table-1 row; the service's plan-cache key
    carries it."""

    def cell(self, a_props, d_props):
        a_set, d_set = make_sets([4, 12], [1, 3], 4)
        return plan(a_set, d_set, a_props, d_props).cell

    def test_cells_from_properties(self):
        plain = SetProperties(sorted=False)
        sorted_ = SetProperties(sorted=True)
        single = SetProperties(sorted=False, single_height=3)
        assert self.cell(sorted_, sorted_) == "sorted"
        assert self.cell(plain, plain) == "unsorted-unindexed"
        assert self.cell(single, plain) == "single-height"
        assert self.cell(sorted_, plain) == "unsorted-unindexed"

    def test_indexed_cells_need_a_usable_index(self):
        a_set, d_set = make_sets([4, 12], [1, 3], 4)
        d_start = build_start_index(d_set, d_set.bufmgr)
        a_start = build_start_index(a_set, a_set.bufmgr)
        sorted_a = SetProperties(sorted=True, start_index=a_start)
        sorted_d = SetProperties(sorted=True, start_index=d_start)
        assert plan(a_set, d_set, sorted_a, sorted_d).cell == "sorted+indexed"
        assert plan(
            a_set, d_set, SetProperties(), SetProperties(start_index=d_start)
        ).cell == "indexed"
        assert plan(
            a_set, d_set, SetProperties(start_index=a_start), SetProperties()
        ).cell == "unsorted-unindexed"

    def test_properties_of_reads_metadata_and_keeps_indexes(self):
        a_set, _d_set = make_sets([4, 12, 20], [1], 5)
        index = build_start_index(a_set, a_set.bufmgr)
        props = SetProperties.of(a_set, start_index=index)
        assert props.single_height == 2 and not props.sorted
        assert props.start_index is index and props.interval_index is None
        a_set.sorted_by = SortOrder.START
        assert SetProperties.of(a_set).sorted


def codes_at(count, heights, tree_height):
    """Up to ``count`` distinct codes spread round-robin over
    ``heights`` (a height near the root holds only a few nodes, so the
    positions wrap and the duplicates drop out)."""
    heights = sorted(heights)
    codes = {}
    for index in range(count):
        level = tree_height - heights[index % len(heights)] - 1
        position = (index // len(heights)) % (1 << level)
        codes[pt.g_code(position, level, tree_height)] = None
    return list(codes)


class TestInCellRanking:
    """Inside a cell the pick is the model's arg-min of ``(total
    pages, cpu)``, full ties resolved in Table-1 order — and the
    model's "fits in memory" is the operator's own test, not a second
    opinion."""

    @given(
        a_count=st.integers(1, 300),
        d_count=st.integers(1, 300),
        frames=st.integers(3, 12),
        tree_height=st.integers(8, 20),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_pick_is_model_argmin_with_table1_ties(
        self, a_count, d_count, frames, tree_height, data
    ):
        # ancestor heights anywhere from just above the leaves to the
        # root: the root end is where rollup's one bucket costs cpu
        heights = data.draw(
            st.sets(st.integers(1, tree_height - 1), min_size=1, max_size=3)
        )
        bench = Workbench.create(buffer_pages=frames, page_size=128)
        a_codes = codes_at(a_count, heights, tree_height)
        a_set = materialize(bench.bufmgr, a_codes, tree_height, "A")
        d_set = materialize(
            bench.bufmgr, codes_at(d_count, [0], tree_height), tree_height, "D"
        )
        chosen = plan(a_set, d_set)
        model = CostModel()

        if len(a_set.known_heights) == 1:
            # SHCJ is alone in its cell; the partitioning pair is still
            # priced, but only for explain()
            assert_cell_argmin(chosen, "single-height", ["SHCJ"])
            for rival in (model.mhcj_rollup, model.vpj):
                assert chosen.estimate.total <= rival(chosen.inputs).total
            text = explain(a_set, d_set)
            for name in PARTITIONING:
                assert re.search(
                    rf"^{re.escape(name)} .*Table 1 prefers the single-height cell$",
                    text,
                    re.MULTILINE,
                )
        else:
            assert_cell_argmin(chosen, "unsorted-unindexed", PARTITIONING)

        # the model says "one pass" exactly when the rollup operator's
        # in-memory branch fires, and then the operator does read each
        # input once
        one_pass = a_set.num_pages + d_set.num_pages
        fits = (
            rolled_pair_pages(a_set) <= frames - 2
            or d_set.num_pages <= frames - 2
        )
        assert (model.mhcj_rollup(chosen.inputs).total == one_pass) == fits
        measured = run_algorithm(make_algorithm("MHCJ+Rollup"), a_set, d_set)
        assert (measured.total_pages == one_pass) == fits

    def test_service_shaped_inputs_plan_the_memory_join(self):
        """A path step over document tags: both sides a few pages in a
        64-frame pool, and the ancestor tag reaches within three levels
        of the root, so rollup's equijoin has at most eight buckets and
        verifies nearly every pair.  Same pages either way; Algorithm 6
        verifies nothing."""
        tree_height = 24
        rng = random.Random(2003)
        a_codes = codes_at(8, [tree_height - 3], tree_height) + [
            pt.g_code(rng.randrange(1 << 16), 16, tree_height) for _ in range(492)
        ]
        d_codes = list({
            pt.g_code(rng.randrange(1 << 20), 20, tree_height) for _ in range(500)
        })
        bench = Workbench.create(buffer_pages=64)
        a_set = materialize(bench.bufmgr, a_codes, tree_height, "A")
        d_set = materialize(bench.bufmgr, d_codes, tree_height, "D")
        assert max(a_set.num_pages, d_set.num_pages) <= 5
        assert max(a_set.known_heights) == tree_height - 3

        chosen = plan(a_set, d_set)
        assert_cell_argmin(chosen, "unsorted-unindexed", PARTITIONING)
        assert [e.algorithm for e in chosen.estimates] == ["VPJ", "MHCJ+Rollup"]
        picked = run_algorithm(chosen.instantiate(), a_set, d_set)
        rollup = run_algorithm(make_algorithm("MHCJ+Rollup"), a_set, d_set)
        assert picked.algorithm == "VPJ" and picked.false_hits == 0
        assert picked.result_count == rollup.result_count
        assert picked.total_pages == rollup.total_pages == chosen.estimate.total
        # the estimate that decided is the right size: rollup verified
        # about |A|·|D| / 8 pairs, nearly all of them false hits
        verified = rollup.false_hits + rollup.result_count
        estimated = len(a_set) * len(d_set) / 8
        assert estimated / 4 <= verified <= estimated * 4

    @pytest.mark.parametrize("name", ["MLSH", "MSLH"])
    def test_lineup_shaped_inputs_still_plan_rollup(self, name):
        """The paper's datasets keep their ancestors far below the
        root: rollup spreads the pairs over 2^18 buckets and stays the
        cheaper one-pass plan (measured 2.6x faster than VPJ here)."""
        ds = syn.generate(syn.spec_by_name(name, large=50_000, small=500), seed=2003)
        bench = Workbench.create(buffer_pages=50)
        a_set = materialize(bench.bufmgr, ds.a_codes, ds.tree_height, "A")
        d_set = materialize(bench.bufmgr, ds.d_codes, ds.tree_height, "D")
        chosen = plan(a_set, d_set)
        assert_cell_argmin(chosen, "unsorted-unindexed", PARTITIONING)
        assert [e.algorithm for e in chosen.estimates] == ["MHCJ+Rollup", "VPJ"]
        assert chosen.estimates[0].total == chosen.estimates[1].total
        assert isinstance(chosen.instantiate(), MultiHeightRollupJoin)

    def test_grown_document_prices_rollup_from_the_histogram(self):
        """Twelve inserts under the root overflow its sibling level:
        the tree grows two levels and the relabel moves the root's
        subtrees down with it, so //b keeps its top height and rollup
        has 32 buckets instead of 8.  Spread evenly over them, |A|·|D|
        priced rollup at a few thousand verifications and kept it; the
        elements crowd into a few of those buckets, and the two
        histograms count the pairs that share one."""
        tree = random_tree(2000, max_fanout=5, seed=2003, tags=("a", "b", "c", "d"))
        db = ContainmentDatabase(buffer_pages=64)
        doc = db.load_tree(tree, name="grown")
        before = doc.tree_height
        for index in range(12):
            db.insert_element(doc, tree.root, "abcd"[index % 4])
        a_set, d_set = db.element_set(doc, "b"), db.element_set(doc, "d")
        assert doc.tree_height > before

        chosen = plan(a_set, d_set)
        assert_cell_argmin(chosen, "unsorted-unindexed", PARTITIONING)
        assert chosen.algorithm_name == "VPJ"
        rollup = run_algorithm(make_algorithm("MHCJ+Rollup"), a_set, d_set)
        verified = rollup.false_hits + rollup.result_count
        estimated = CostModel().mhcj_rollup(chosen.inputs).cpu
        assert verified / 2 <= estimated <= verified * 2
        buckets = 2 ** (doc.tree_height - 1 - max(a_set.known_heights))
        assert len(a_set) * len(d_set) / buckets * 10 < verified
        picked = run_algorithm(chosen.instantiate(), a_set, d_set)
        assert picked.false_hits == 0
        assert picked.result_count == rollup.result_count
        assert picked.total_pages == rollup.total_pages
        assert [r.algorithm for r in db.query(doc, "//b//d").reports] == ["VPJ"]

    def test_measured_disagreement_is_settled_for_the_model(self):
        """5-page multi-height A x 48-page D on 8 frames: A fits the
        pool as codes but not as rolled pair records, so the old rule's
        MHCJ+Rollup went Grace (173 pages) where VPJ reads each input
        once (53)."""
        ds = syn.generate(syn.spec_by_name("MSLL", large=6000, small=600), seed=2003)
        bench = Workbench.create(buffer_pages=8)
        a_set = materialize(bench.bufmgr, ds.a_codes, ds.tree_height, "A")
        d_set = materialize(bench.bufmgr, ds.d_codes, ds.tree_height, "D")
        assert (a_set.num_pages, d_set.num_pages) == (5, 48)
        assert a_set.num_pages <= 8 - 2 < rolled_pair_pages(a_set)

        chosen = plan(a_set, d_set)
        assert [e.algorithm for e in chosen.estimates] == ["VPJ", "MHCJ+Rollup"]
        algorithm = choose_algorithm(a_set, d_set)
        assert isinstance(algorithm, VerticalPartitionJoin)
        picked = run_algorithm(algorithm, a_set, d_set)
        rejected = run_algorithm(make_algorithm("MHCJ+Rollup"), a_set, d_set)
        assert picked.result_count == rejected.result_count == ds.num_results
        assert picked.total_pages <= 60
        assert picked.total_pages <= rejected.total_pages
        assert picked.false_hits == 0 < rejected.false_hits
        # the estimates called it
        assert chosen.estimate.total == picked.total_pages
        assert abs(chosen.estimates[1].total - rejected.total_pages) <= 10


class TestExplain:
    def fixtures(self):
        ds = syn.generate(syn.spec_by_name("MSSL", large=3000, small=300), seed=1)
        bench = Workbench.create(buffer_pages=50)
        a_set = materialize(bench.bufmgr, ds.a_codes, ds.tree_height, "A")
        d_set = materialize(bench.bufmgr, ds.d_codes, ds.tree_height, "D")
        return ds, a_set, d_set

    def test_explain_is_the_plan_plus_rejected_plans(self):
        _ds, a_set, d_set = self.fixtures()
        before = a_set.bufmgr.disk.stats.snapshot()
        chosen = plan(a_set, d_set)
        text = explain(a_set, d_set)
        assert a_set.bufmgr.disk.stats.delta(before).total == 0  # no I/O
        lines = text.splitlines()
        assert lines[0] == f"cell {chosen.cell} -> {chosen.algorithm_name}"
        verdicts = {line.split()[0]: line for line in lines[3:]}
        assert verdicts[chosen.algorithm_name].endswith("chosen")
        for estimate in chosen.estimates[1:]:
            assert verdicts[estimate.algorithm].endswith("in cell, not cheaper")
        assert verdicts["STACKTREE"].endswith("needs both inputs sorted")
        assert verdicts["BNL"].endswith("not in Table 1")
        assert len(verdicts) == len(lines) - 3  # every algorithm listed once

    def test_lower_priority_cells_are_named_as_such(self):
        _ds, a_set, d_set = self.fixtures()
        text = explain(
            a_set, d_set, SetProperties(sorted=True), SetProperties(sorted=True)
        )
        assert text.startswith("cell sorted -> STACKTREE")
        assert "ADB+" in text and "needs both inputs sorted and indexed" in text
        assert "Table 1 prefers the sorted cell" in text

    def test_planned_algorithm_runs_and_matches_count(self):
        ds, a_set, d_set = self.fixtures()
        chosen = plan(a_set, d_set)
        report = run_algorithm(chosen.instantiate(), a_set, d_set)
        assert report.result_count == ds.num_results
        assert chosen.instantiate() is not chosen.instantiate()

    def test_prediction_orders_main_rivals_correctly(self):
        """The model must rank the partitioning algorithms vs the
        sort-based ones the same way measurement does."""
        ds = syn.generate(syn.spec_by_name("SLSH", large=20000, small=200), 1)
        bench = Workbench.create(buffer_pages=50)
        a_set = materialize(bench.bufmgr, ds.a_codes, ds.tree_height, "A")
        d_set = materialize(bench.bufmgr, ds.d_codes, ds.tree_height, "D")
        inputs = plan(a_set, d_set).inputs
        model = CostModel()
        measured = {
            name: run_algorithm(make_algorithm(name), a_set, d_set).total_pages
            for name in ("STACKTREE", "MHCJ+Rollup")
        }
        predicted_better = (
            model.mhcj_rollup(inputs).total < model.stack_tree(inputs).total
        )
        assert predicted_better == (measured["MHCJ+Rollup"] < measured["STACKTREE"])


#: the perf ledger's path mix (benchmarks/ledger/corpus.py)
LEDGER_PATHS = ["//a//b", "//a//b//c", "//b//d", "//c//d", "//a//c//d"]


class TestEveryCallerPlansTheSameWay:
    """``db.query``, the service and ``db.explain`` all go through
    :func:`repro.join.planner.plan` with the same properties."""

    def make_db(self, indexed):
        db = ContainmentDatabase(buffer_pages=64)
        doc = db.load_tree(
            random_tree(1500, max_fanout=5, seed=2003, tags=("a", "b", "c", "d")),
            name="corpus",
        )
        if indexed:
            db.create_start_index(doc, "d")
            db.create_interval_index(doc, "a")
        return db, doc

    @pytest.mark.parametrize("indexed", [False, True], ids=["plain", "indexed"])
    @pytest.mark.parametrize("path", LEDGER_PATHS)
    def test_db_service_and_explain_agree(self, path, indexed):
        db, doc = self.make_db(indexed)
        service = QueryService(db)
        explained = re.findall(
            r"^(\S+) .* chosen$", db.explain(doc, path), re.MULTILINE
        )
        result = db.query(doc, path, direction="top-down")
        ran = [report.algorithm for report in result.reports]
        assert len(explained) == len(ran) == path.count("//") - 1
        if indexed:
            # an index on a base set steers only the joins that set
            # itself takes part in: the first step sees //a's stab
            # index, every step into //d its Start index
            assert ran[0] == "INLJN" or not path.startswith("//a")
            assert ran[-1] == "INLJN" or not path.endswith("//d")
        # on these paths every step runs the plan explain lists for it
        assert explained == ran
        # ... and explain marks the ones it cannot promise
        assert db.explain(doc, path).count("re-planned at run time") == len(ran) - 1

        # the service (cold cache, session views of the same indexes)
        # runs the same algorithm sequence as the library, whichever
        # direction the pipeline picks
        outcome = service.execute("t", "corpus", path, use_cache=False)
        library = db.query(doc, path, direction=outcome.direction)
        assert [r.algorithm for r in outcome.reports] == [
            r.algorithm for r in library.reports
        ]
        assert outcome.count == len(library) == len(result)

    def test_bottom_up_starts_from_the_last_listed_step(self):
        """explain's contract: the first join a query runs joins two
        base sets and follows the listed plan — top-down that is step 1,
        bottom-up the last step."""
        db, doc = self.make_db(indexed=True)
        explained = re.findall(
            r"^(\S+) .* chosen$", db.explain(doc, "//a//b//c"), re.MULTILINE
        )
        assert explained[0] == "INLJN" != explained[-1]
        ran = db.query(doc, "//a//b//c", direction="bottom-up").reports
        assert ran[0].algorithm == explained[-1]

    def test_intermediate_sets_keep_their_single_height(self):
        """Both callers infer an intermediate's properties from its own
        metadata; the library used to plan it with bare properties and
        lose the single-height degeneration."""
        from repro.datatree.builder import tree_from_spec

        leaf = ("c", [])
        tree = tree_from_spec(
            ("r", [("a", [("b", [leaf, leaf]), ("b", [leaf])]), ("b", [leaf])])
        )
        db = ContainmentDatabase(buffer_pages=16)
        doc = db.load_tree(tree, name="t")
        result = db.query(doc, "//a//b//c", direction="top-down")
        outcome = QueryService(db).execute("t", "t", "//a//b//c", use_cache=False)
        assert len(result) == 3
        # //b spans two heights, the //b under //a only one
        assert len(db.element_set(doc, "b").known_heights) == 2
        for reports in (result.reports, outcome.reports):
            assert [r.algorithm for r in reports] == ["SHCJ", "SHCJ"]
