"""Unit and differential coverage of the parallel execution layer.

The one pooled path is a cold join per task (``run_cold_joins`` over
``SlotJoinTask``), which the shard executor ships one slot at a time.
The contract is *exact equivalence*: each pooled task returns the
identical sorted pair set AND the identical page-I/O accounting as the
same operator run serially on a fresh bench.  These tests enforce that
bit-for-bit — pairs, ``prep_io``/``join_io`` snapshots, buffer
hits/misses and false-hit counts — over synthetic and XMark workloads,
with and without fault injection.  The suite also covers the pool, the
fault payloads that carry worker faults back typed, and the executor's
argument checks.
"""

import os

import pytest

from repro import (
    BufferManager,
    DiskManager,
    ElementSet,
    FaultConfig,
    FaultInjector,
    JoinSink,
    PermanentIOError,
    RetryPolicy,
    StorageFault,
    TransientIOError,
    binarize,
)
from repro.datatree.paths import select_by_tag
from repro.join.planner import make_algorithm
from repro.obs.tracer import Tracer
from repro.parallel import (
    SlotJoinTask,
    WorkerPool,
    fault_from_payload,
    fault_to_payload,
    run_cold_joins,
)
from repro.parallel.fanout import FANOUT_SPAN
from repro.shard import ShardedCorpus, ShardedJoinExecutor
from repro.workloads.synthetic import generate, spec_by_name
from repro.workloads.xmark import generate_tree

#: chaos seed rotates in CI like the fault-injection suite's
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

#: the partitioning joins, shipped together as one pooled line-up
ALGORITHMS = ["VPJ", "MHCJ+Rollup", "MHCJ"]

#: page size of every bench in the differential tests
PAGE_SIZE = 128


def dataset(name="MLLL", large=2500, small=400, seed=7):
    spec = spec_by_name(name, large=large, small=small)
    return generate(spec, seed=seed)


def run_cold(
    name,
    a_codes,
    d_codes,
    tree_height,
    frames=10,
    faults=None,
    retry=None,
    tracer=None,
):
    """Serial operator on a fresh cold bench; returns (pairs, report)."""
    injector = None if faults is None else FaultInjector(faults)
    disk = DiskManager(
        page_size=PAGE_SIZE, checksums=faults is not None, faults=injector
    )
    bufmgr = BufferManager(disk, frames, retry=retry)
    a_set = ElementSet.from_codes(bufmgr, a_codes, tree_height, "A")
    d_set = ElementSet.from_codes(bufmgr, d_codes, tree_height, "D")
    bufmgr.flush_all()
    bufmgr.evict_all()
    disk.stats.reset()
    sink = JoinSink("collect")
    report = make_algorithm(name).run(a_set, d_set, sink, tracer=tracer)
    return sorted(sink.pairs), report


def run_pooled(
    a_codes,
    d_codes,
    tree_height,
    workers,
    mode,
    frames=10,
    faults=None,
    retry=None,
    tracer=None,
):
    """Every algorithm of :data:`ALGORITHMS` as one cold task, pooled;
    returns the payloads keyed by algorithm, after checking that they
    came back in submission order."""
    tasks = [
        SlotJoinTask(
            label="cold",
            algorithm=name,
            a_codes=list(a_codes),
            d_codes=list(d_codes),
            tree_height=tree_height,
            buffer_pages=frames,
            page_size=PAGE_SIZE,
            collect=True,
            faults=faults,
            retry=retry,
            traced=tracer is not None,
        )
        for name in ALGORITHMS
    ]
    payloads = run_cold_joins(tasks, workers, mode, tracer)
    assert [p["report"].algorithm for p in payloads] == [
        make_algorithm(name).name for name in ALGORITHMS
    ]
    return dict(zip(ALGORITHMS, payloads))


def assert_equivalent(serial, payload):
    """The whole contract: identical pairs AND identical accounting."""
    s_pairs, s_report = serial
    p_report = payload["report"]
    assert sorted(payload["pairs"]) == s_pairs
    assert p_report.prep_io == s_report.prep_io
    assert p_report.join_io == s_report.join_io
    assert p_report.false_hits == s_report.false_hits
    assert p_report.result_count == s_report.result_count
    assert (p_report.buffer_hits, p_report.buffer_misses) == (
        s_report.buffer_hits, s_report.buffer_misses
    )


# ----------------------------------------------------------------------
# unit coverage: pool, fault payloads
# ----------------------------------------------------------------------
class TestWorkerPool:
    def test_single_worker_is_inline(self):
        pool = WorkerPool(1)
        assert pool.mode == "inline"
        future = pool.submit(lambda task: task * 2, 21)
        assert pool.resolve(future, lambda task: task * 2, 21) == 42
        pool.close()

    def test_default_mode_is_process(self):
        pool = WorkerPool(4)  # the executor starts lazily: nothing forks
        assert pool.mode == "process"
        pool.close()

    def test_inline_exception_propagates(self):
        pool = WorkerPool(2, mode="inline")

        def boom(task):
            raise RuntimeError(f"task {task}")

        future = pool.submit(boom, 3)
        with pytest.raises(RuntimeError, match="task 3"):
            pool.resolve(future, boom, 3)
        pool.close()


class TestFaultPayloads:
    @pytest.mark.parametrize("cls", [TransientIOError, PermanentIOError])
    def test_round_trip_preserves_type_and_annotations(self, cls):
        fault = cls("injected read error", page_id=17, operation="read")
        fault.add_context("heap file 'A' page 3/9")
        fault.algorithm = "VPJ"
        rebuilt = fault_from_payload(fault_to_payload(fault))
        assert type(rebuilt) is cls
        assert rebuilt.page_id == 17 and rebuilt.operation == "read"
        assert rebuilt.algorithm == "VPJ"
        assert "heap file 'A' page 3/9" in str(rebuilt)

    def test_unknown_type_degrades_to_base_fault(self):
        payload = fault_to_payload(
            TransientIOError("x", page_id=1, operation="read")
        )
        payload["type"] = "SomethingNew"
        assert type(fault_from_payload(payload)) is StorageFault


# ----------------------------------------------------------------------
# the pooled contract: each cold task == the serial operator, pairs and
# accounting
# ----------------------------------------------------------------------
class TestDifferentialSynthetic:
    @pytest.mark.parametrize("name", ALGORITHMS)
    @pytest.mark.parametrize("workers", [2, 4])
    def test_multi_height_workload(self, name, workers):
        data = dataset("MLLL")
        serial = run_cold(name, data.a_codes, data.d_codes, data.tree_height)
        pooled = run_pooled(
            data.a_codes, data.d_codes, data.tree_height, workers, "inline"
        )
        assert_equivalent(serial, pooled[name])

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_tiny_buffer_forces_partitioning(self, name):
        """Small pool → VPJ recursion / MHCJ grace branches exercised."""
        data = dataset("MSSL", large=1800, small=350, seed=11)
        serial = run_cold(
            name, data.a_codes, data.d_codes, data.tree_height, frames=6
        )
        pooled = run_pooled(
            data.a_codes, data.d_codes, data.tree_height, 3, "inline",
            frames=6,
        )
        assert_equivalent(serial, pooled[name])

    @pytest.mark.parametrize("name", ALGORITHMS[:2])
    def test_process_pool_smoke(self, name):
        """Real process pool (not inline) reaches the same answer."""
        data = dataset("MLLL", large=1200, small=250, seed=5)
        serial = run_cold(name, data.a_codes, data.d_codes, data.tree_height)
        pooled = run_pooled(
            data.a_codes, data.d_codes, data.tree_height, 2, "process"
        )
        assert_equivalent(serial, pooled[name])


class TestDifferentialXMark:
    @pytest.fixture(scope="class")
    def joins(self):
        tree = generate_tree(scale=0.45, seed=CHAOS_SEED)
        encoding = binarize(tree)
        # B8: description//text — multi-height on both sides
        a_codes = select_by_tag(tree, "description")
        d_codes = select_by_tag(tree, "text")
        pooled = run_pooled(a_codes, d_codes, encoding.tree_height, 4, "inline")
        return a_codes, d_codes, encoding.tree_height, pooled

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_description_text_join(self, name, joins):
        a_codes, d_codes, tree_height, pooled = joins
        serial = run_cold(name, a_codes, d_codes, tree_height)
        assert_equivalent(serial, pooled[name])


class TestDifferentialUnderFaults:
    """Transient chaos: each worker seeds a fresh injector from the
    shipped config, so its fault schedule replays the serial run's."""

    FAULTS = dict(read_error_rate=0.04, write_error_rate=0.02,
                  torn_page_rate=0.02)

    @pytest.mark.parametrize("name", ALGORITHMS[:2])
    def test_transient_schedule_replays(self, name):
        data = dataset("MLLL", large=1500, small=300, seed=CHAOS_SEED + 3)
        retry = RetryPolicy(max_attempts=6)
        config = FaultConfig(seed=CHAOS_SEED, **self.FAULTS)
        serial = run_cold(
            name, data.a_codes, data.d_codes, data.tree_height,
            faults=config, retry=retry,
        )
        pooled = run_pooled(
            data.a_codes, data.d_codes, data.tree_height, 3, "inline",
            faults=config, retry=retry,
        )
        assert_equivalent(serial, pooled[name])
        # the schedule really fired: retries are visible in both
        assert (
            pooled[name]["report"].total_io.retries
            == serial[1].total_io.retries
        )


# ----------------------------------------------------------------------
# tracing: fanout span carries worker spans, root I/O delta unchanged
# ----------------------------------------------------------------------
class TestParallelTracing:
    def test_fanout_span_and_exact_root_io(self):
        data = dataset("MLLL", large=1500, small=300, seed=9)
        serial_tracer = Tracer()
        serial = run_cold(
            "VPJ", data.a_codes, data.d_codes, data.tree_height,
            tracer=serial_tracer,
        )
        pooled_tracer = Tracer()
        pooled = run_pooled(
            data.a_codes, data.d_codes, data.tree_height, 2, "inline",
            tracer=pooled_tracer,
        )
        assert_equivalent(serial, pooled["VPJ"])
        s_root = serial_tracer.roots[-1]
        p_root = pooled["VPJ"]["report"].trace
        assert p_root is not None and p_root.name == s_root.name
        assert p_root.io == s_root.io
        fanout = pooled_tracer.roots[-1]
        assert fanout.name == FANOUT_SPAN == "shard.fanout"
        # the fanout span opens after every worker finished: no I/O on it
        assert fanout.io.total == 0
        # one worker root per task, in submission order
        assert [child.name for child in fanout.children] == [
            payload["report"].trace.name for payload in pooled.values()
        ]
        assert p_root in fanout.children


# ----------------------------------------------------------------------
# the executor's entry checks and fault handling
# ----------------------------------------------------------------------
class TestExecutorEntry:
    def executor(self, **kwargs):
        data = dataset("MSSL", large=1500, small=300, seed=4)
        corpus = ShardedCorpus(data.tree_height, 2)
        corpus.add_set("A", data.a_codes)
        corpus.add_set("D", data.d_codes)
        return ShardedJoinExecutor(corpus, **kwargs)

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(workers=0), "workers must be >= 1"),
            (dict(workers=-3), "workers must be >= 1"),
            (dict(workers=2, parallel_mode="bogus"), "unknown parallel mode"),
            (dict(parallel_mode="bogus"), "unknown parallel mode"),
        ],
    )
    def test_bad_pool_arguments_rejected_at_entry(self, kwargs, match):
        """Checked before any work — never a silent serial run or a
        traceback from deep inside."""
        with pytest.raises(ValueError, match=match):
            self.executor(**kwargs)

    def test_fault_config_accepted_and_absorbed(self):
        executor = self.executor(workers=2, parallel_mode="inline")
        clean, _ = executor.run("VPJ", "A", "D", page_size=256)
        noisy, _ = executor.run(
            "VPJ", "A", "D", page_size=256,
            faults=FaultConfig(seed=CHAOS_SEED, read_error_rate=0.02),
            retry=RetryPolicy(max_attempts=6),
        )
        assert noisy.result_count == clean.result_count

    def test_permanent_escalation_raises_typed_fault(self):
        """Workers ship faults back as payloads; the parent re-raises a
        typed StorageFault, never a pickling error or a silent zero."""
        executor = self.executor(workers=2, parallel_mode="inline")
        with pytest.raises(StorageFault):
            executor.run(
                "VPJ", "A", "D",
                faults=FaultConfig(seed=CHAOS_SEED, read_error_rate=1.0),
                retry=RetryPolicy(max_attempts=1),
            )
