"""Chaos suite: every join algorithm must survive storage faults.

Two guarantees are enforced for the whole algorithm line-up (INLJN,
MPMGJN, Stack-Tree, Anc_Des_B+, SHCJ, MHCJ, MHCJ+Rollup, VPJ):

* under a *seeded transient* fault schedule (read/write errors, torn
  pages) the join output is byte-identical to the fault-free run, with
  the absorbed faults visible as ``IOStats.retries``;
* under a *permanent* fault schedule the join raises a typed
  :class:`StorageFault` carrying the page id and operation — it never
  returns silently truncated results.

The chaos seed rotates in CI: set ``REPRO_CHAOS_SEED`` to replay a
logged failure exactly (see docs/faults.md).
"""

import os
import random
from collections import Counter

import pytest

from benchmarks.ablations.spatial import RTreeProbeJoin, SynchronizedRTreeJoin
from benchmarks.ablations.xrstack import XRStackJoin
from repro import (
    AncDesBPlusJoin,
    BufferManager,
    ContainmentDatabase,
    DiskManager,
    ElementSet,
    FaultConfig,
    FaultInjector,
    IndexNestedLoopJoin,
    JoinSink,
    MPMGJoin,
    MultiHeightJoin,
    MultiHeightRollupJoin,
    PermanentIOError,
    RetryPolicy,
    SingleHeightJoin,
    StackTreeDescJoin,
    StorageFault,
    TransientIOError,
    VerticalPartitionJoin,
    binarize,
    random_tree,
)
from repro.core import pbitree as pt
from repro.index.bptree import BPlusTree
from repro.join.inljn import build_start_index
from repro.sort.external_sort import external_sort_set
from repro.storage.disk import PageCorruptionError

#: rotating chaos seed — CI sets this; defaults to a fixed reproducible run
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

ALGORITHMS = [
    ("INLJN", IndexNestedLoopJoin),
    ("MPMGJN", MPMGJoin),
    ("Stack-Tree", StackTreeDescJoin),
    ("Anc_Des_B+", AncDesBPlusJoin),
    ("SHCJ", SingleHeightJoin),
    ("MHCJ", MultiHeightJoin),
    ("MHCJ+Rollup", MultiHeightRollupJoin),
    ("VPJ", VerticalPartitionJoin),
]
ALGORITHM_IDS = [name for name, _cls in ALGORITHMS]

#: the acceptance bar: transient faults at >= 1% per page read
TRANSIENT_FAULTS = dict(
    read_error_rate=0.05,
    write_error_rate=0.03,
    torn_page_rate=0.03,
)


def make_inputs(algorithm_name: str):
    """One shared dataset; SHCJ gets a single-height ancestor side."""
    tree = random_tree(260, max_fanout=6, seed=29)
    encoding = binarize(tree)
    rng = random.Random(5)
    a_codes = rng.sample(tree.codes, 150)
    d_codes = rng.sample(tree.codes, 180)
    if algorithm_name == "SHCJ":
        modal_height, _count = Counter(
            pt.height_of(code) for code in a_codes
        ).most_common(1)[0]
        a_codes = [c for c in a_codes if pt.height_of(c) == modal_height]
    return a_codes, d_codes, encoding.tree_height


def run_cold(
    algorithm,
    a_codes,
    d_codes,
    tree_height,
    faults=None,
    frames=8,
    retry=None,
):
    """Materialise cold element sets and run one join, faults and all.

    Returns ``(sorted pairs, disk, report)``.
    """
    disk = DiskManager(page_size=128, checksums=True, faults=faults)
    bufmgr = BufferManager(disk, frames, retry=retry)
    a_set = ElementSet.from_codes(bufmgr, a_codes, tree_height, "A")
    d_set = ElementSet.from_codes(bufmgr, d_codes, tree_height, "D")
    bufmgr.flush_all()
    bufmgr.evict_all()
    disk.stats.reset()
    sink = JoinSink("collect")
    report = algorithm.run(a_set, d_set, sink)
    return sorted(sink.pairs), disk, report


# ----------------------------------------------------------------------
# tentpole guarantee 1: transient faults never change the answer
# ----------------------------------------------------------------------
def chaos_injector(seed: int) -> FaultInjector:
    """The transient chaos schedule: :data:`TRANSIENT_FAULTS` at ``seed``."""
    injector = FaultInjector(FaultConfig(seed=seed, **TRANSIENT_FAULTS))
    # floor of one guaranteed fault: small joins (SHCJ's modal-height
    # ancestor side is a couple of pages) can draw zero faults from
    # the rates alone under an unlucky rotating seed
    injector.schedule("read-error", at=2)
    return injector


#: (fault seed, algorithm) pairs whose chaos schedule fails one page
#: read four times running, exhausting the default retry budget
EXHAUSTING_SCHEDULES = [
    (6, "INLJN"),
    (6, "MHCJ"),
    (32, "INLJN"),
    (32, "MPMGJN"),
    (32, "Stack-Tree"),
    (32, "Anc_Des_B+"),
    (32, "MHCJ+Rollup"),
    (32, "VPJ"),
]


class TestTransientChaos:
    @pytest.mark.parametrize("name,cls", ALGORITHMS, ids=ALGORITHM_IDS)
    @pytest.mark.parametrize("seed_offset", [0, 1, 2])
    def test_output_identical_to_fault_free_run(self, name, cls, seed_offset):
        a_codes, d_codes, tree_height = make_inputs(name)
        baseline, _disk, _report = run_cold(cls(), a_codes, d_codes, tree_height)

        injector = chaos_injector(CHAOS_SEED + seed_offset)
        # 5 % read errors plus 3 % torn pages can fail one read four
        # times running (fault seeds 6 and 32 do); the doubled budget
        # absorbs every rotating seed, and the default budget's give-up
        # is pinned by test_default_budget_exhaustion_is_typed
        chaotic, disk, report = run_cold(
            cls(),
            a_codes,
            d_codes,
            tree_height,
            faults=injector,
            retry=RetryPolicy(max_attempts=8),
        )
        assert chaotic == baseline, (
            f"{name} changed its output under transient faults "
            f"(chaos seed {CHAOS_SEED + seed_offset})"
        )
        assert injector.stats.total_injected > 0, (
            f"chaos run injected nothing — rates/seed "
            f"{CHAOS_SEED + seed_offset} too weak to test anything"
        )
        # the paper's cost metric must expose fault handling
        assert disk.stats.retries > 0
        assert disk.stats.giveups == 0
        assert report.total_io.retries == disk.stats.retries

    @pytest.mark.parametrize("fault_seed,name", EXHAUSTING_SCHEDULES)
    def test_default_budget_exhaustion_is_typed(self, fault_seed, name):
        """At the default 4-attempt budget these schedules give up: a
        typed fault naming the page, never a truncated answer."""
        cls = dict(ALGORITHMS)[name]
        a_codes, d_codes, tree_height = make_inputs(name)
        with pytest.raises(PermanentIOError) as info:
            run_cold(
                cls(), a_codes, d_codes, tree_height,
                faults=chaos_injector(fault_seed),
            )
        assert info.value.page_id is not None
        assert info.value.operation == "read"
        assert "after 4 attempts" in str(info.value)

    @pytest.mark.parametrize("name,cls", ALGORITHMS, ids=ALGORITHM_IDS)
    def test_scheduled_torn_read_is_retried(self, name, cls):
        """A one-shot torn page is caught by the checksum and re-read."""
        a_codes, d_codes, tree_height = make_inputs(name)
        baseline, _disk, _report = run_cold(cls(), a_codes, d_codes, tree_height)

        injector = FaultInjector(seed=CHAOS_SEED)
        injector.schedule("torn-page", at=2)
        chaotic, disk, _report = run_cold(
            cls(), a_codes, d_codes, tree_height, faults=injector
        )
        assert chaotic == baseline
        assert injector.stats.torn_reads == 1
        assert disk.stats.retries >= 1


# ----------------------------------------------------------------------
# tentpole guarantee 2: permanent faults fail fast, typed, with context
# ----------------------------------------------------------------------
class TestPermanentFaults:
    @pytest.mark.parametrize("name,cls", ALGORITHMS, ids=ALGORITHM_IDS)
    def test_permanent_read_error_raises_typed_fault(self, name, cls):
        a_codes, d_codes, tree_height = make_inputs(name)
        disk = DiskManager(page_size=128, checksums=True)
        bufmgr = BufferManager(disk, 8)
        a_set = ElementSet.from_codes(bufmgr, a_codes, tree_height, "A")
        d_set = ElementSet.from_codes(bufmgr, d_codes, tree_height, "D")
        bufmgr.flush_all()
        bufmgr.evict_all()

        injector = FaultInjector(seed=CHAOS_SEED)
        injector.schedule("read-error", at=1, permanent=True)
        disk.set_faults(injector)

        with pytest.raises(StorageFault) as exc_info:
            cls().run(a_set, d_set, JoinSink("collect"))
        fault = exc_info.value
        assert fault.page_id is not None
        assert fault.operation == "read"
        assert not fault.transient
        assert fault.algorithm is not None
        assert disk.stats.giveups >= 1

    @pytest.mark.parametrize("name,cls", ALGORITHMS, ids=ALGORITHM_IDS)
    def test_permanently_torn_page_exhausts_retries(self, name, cls):
        """Stored-page corruption survives re-reads: bounded retries must
        give up and escalate instead of spinning or succeeding."""
        a_codes, d_codes, tree_height = make_inputs(name)
        disk = DiskManager(page_size=128, checksums=True)
        bufmgr = BufferManager(disk, 8)
        a_set = ElementSet.from_codes(bufmgr, a_codes, tree_height, "A")
        d_set = ElementSet.from_codes(bufmgr, d_codes, tree_height, "D")
        bufmgr.flush_all()
        bufmgr.evict_all()

        injector = FaultInjector(seed=CHAOS_SEED)
        disk.set_faults(injector)
        injector.mark_page_torn(d_set.heap.page_ids[0])

        with pytest.raises(PermanentIOError) as exc_info:
            cls().run(a_set, d_set, JoinSink("collect"))
        fault = exc_info.value
        assert fault.page_id == d_set.heap.page_ids[0]
        assert fault.operation == "read"
        assert isinstance(fault.__cause__, PageCorruptionError)
        assert disk.stats.giveups == 1
        assert disk.stats.retries == bufmgr.retry.max_attempts - 1

    def test_permanent_write_error_raises_typed_fault(self):
        disk = DiskManager(page_size=128, checksums=True)
        bufmgr = BufferManager(disk, 4)
        injector = FaultInjector(seed=CHAOS_SEED)
        disk.set_faults(injector)
        injector.schedule("write-error", at=1, permanent=True)
        frame = bufmgr.new_page()
        bufmgr.unpin(frame.page_id, dirty=True)
        with pytest.raises(StorageFault) as exc_info:
            bufmgr.flush_all()
        fault = exc_info.value
        assert fault.operation == "write"
        assert fault.page_id == frame.page_id

    @pytest.mark.parametrize("name,cls", ALGORITHMS, ids=ALGORITHM_IDS)
    @pytest.mark.parametrize("at", [5, 15, 30])
    def test_mid_join_fault_never_leaks_pins_or_masks_the_fault(
        self, name, cls, at
    ):
        """A permanent fault deep inside a join (while partition/run
        writers hold pinned output pages) must still surface as a typed
        StorageFault — not as a pin-leak ValueError from cleanup — and
        must leave the pool reusable for the next join."""
        a_codes, d_codes, tree_height = make_inputs(name)
        injector = FaultInjector(seed=CHAOS_SEED)
        injector.schedule("read-error", at=at, permanent=True)
        disk = DiskManager(page_size=128, checksums=True, faults=injector)
        bufmgr = BufferManager(disk, 6)
        a_set = ElementSet.from_codes(bufmgr, a_codes, tree_height, "A")
        d_set = ElementSet.from_codes(bufmgr, d_codes, tree_height, "D")
        bufmgr.flush_all()
        bufmgr.evict_all()
        disk.stats.reset()

        try:
            cls().run(a_set, d_set, JoinSink("collect"))
        except StorageFault:
            pass
        else:
            # only acceptable way to finish: the join did fewer than
            # ``at`` reads, so the scheduled fault never fired
            assert injector.stats.scheduled_fired == 0
        leaked = [
            pid for pid, frame in bufmgr._frames.items() if frame.pin_count > 0
        ]
        assert leaked == [], f"{name} leaked pinned pages {leaked}"
        # the same engine must serve a correct join after the abort
        # (fault source repaired: detach the injector)
        disk.set_faults(None)
        baseline, _disk, _report = run_cold(cls(), a_codes, d_codes, tree_height)
        sink = JoinSink("collect")
        cls().run(a_set, d_set, sink)
        assert sorted(sink.pairs) == baseline


# ----------------------------------------------------------------------
# the injector itself
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_same_seed_same_schedule(self):
        def drive(injector):
            fired = []
            for op in range(200):
                try:
                    injector.on_read(op % 7)
                except TransientIOError:
                    fired.append(op)
            return fired

        first = drive(FaultInjector(seed=42, read_error_rate=0.1))
        second = drive(FaultInjector(seed=42, read_error_rate=0.1))
        third = drive(FaultInjector(seed=43, read_error_rate=0.1))
        assert first == second
        assert first  # something fired at a 10% rate over 200 ops
        assert first != third

    def test_scheduled_fault_fires_on_nth_matching_op(self):
        injector = FaultInjector(seed=0)
        injector.schedule("read-error", at=3, page_id=5)
        injector.on_read(5)
        injector.on_read(4)  # different page: not a match
        injector.on_read(5)
        with pytest.raises(TransientIOError) as exc_info:
            injector.on_read(5)
        assert exc_info.value.page_id == 5
        # one-shot: the next read is clean
        injector.on_read(5)
        assert injector.stats.scheduled_fired == 1

    def test_latency_fault_counted(self):
        injector = FaultInjector(seed=0, latency_rate=1.0, latency_seconds=0.0)
        injector.on_read(0)
        injector.on_write(0)
        assert injector.stats.latency_events == 2

    def test_bad_rates_rejected(self):
        with pytest.raises(ValueError):
            FaultConfig(read_error_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(latency_seconds=-1)
        with pytest.raises(ValueError):
            FaultInjector(FaultConfig(), read_error_rate=0.1)

    def test_bad_schedule_rejected(self):
        injector = FaultInjector(seed=0)
        with pytest.raises(ValueError):
            injector.schedule("disk-on-fire")
        with pytest.raises(ValueError):
            injector.schedule("read-error", at=0)

    def test_tearing_injector_requires_checksums(self):
        injector = FaultInjector(seed=0, torn_page_rate=0.5)
        with pytest.raises(ValueError):
            DiskManager(page_size=128, checksums=False, faults=injector)
        DiskManager(page_size=128, checksums=True, faults=injector)


class TestRetryPolicy:
    def test_backoff_is_bounded(self):
        policy = RetryPolicy(max_attempts=6, backoff_base=0.01, backoff_cap=0.03)
        delays = [policy.delay(attempt) for attempt in range(1, 6)]
        assert delays == sorted(delays)
        assert max(delays) == 0.03

    def test_zero_base_means_no_sleep(self):
        assert RetryPolicy().delay(3) == 0.0

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-0.1)

    def test_retry_budget_is_configurable(self):
        injector = FaultInjector(seed=0)
        disk = DiskManager(page_size=128, checksums=True, faults=injector)
        bufmgr = BufferManager(disk, 2, retry=RetryPolicy(max_attempts=2))
        pid = disk.allocate()
        injector.mark_page_torn(pid)
        with pytest.raises(PermanentIOError):
            bufmgr.pin(pid)
        assert disk.stats.retries == 1
        assert disk.stats.giveups == 1

    def test_transient_fault_absorbed_by_one_retry(self):
        injector = FaultInjector(seed=0)
        disk = DiskManager(page_size=128, checksums=True, faults=injector)
        bufmgr = BufferManager(disk, 2)
        pid = disk.allocate()
        injector.schedule("read-error", at=1, page_id=pid)
        frame = bufmgr.pin(pid)
        assert frame.page_id == pid
        assert disk.stats.retries == 1
        assert disk.stats.giveups == 0


# ----------------------------------------------------------------------
# wiring: harness and database front door
# ----------------------------------------------------------------------
class TestHarnessAndDbWiring:
    def test_run_lineup_under_transient_faults(self):
        from repro.experiments.harness import run_lineup

        a_codes, d_codes, tree_height = make_inputs("lineup")
        quiet = run_lineup(
            "chaos",
            a_codes,
            d_codes,
            tree_height,
            buffer_pages=8,
            page_size=128,
            algorithms=("STACKTREE", "MHCJ+Rollup", "VPJ"),
        )
        noisy = run_lineup(
            "chaos",
            a_codes,
            d_codes,
            tree_height,
            buffer_pages=8,
            page_size=128,
            algorithms=("STACKTREE", "MHCJ+Rollup", "VPJ"),
            faults=FaultConfig(seed=CHAOS_SEED, **TRANSIENT_FAULTS),
        )
        assert noisy.result_count == quiet.result_count
        assert any(
            result.report.total_io.retries > 0 for result in noisy.results
        )

    def test_database_query_under_transient_faults(self):
        from repro.db import ContainmentDatabase

        xml = "<a>" + "<b><c/><d><c/></d></b>" * 25 + "</a>"

        def matches(db):
            doc = db.load_xml(xml, name="chaos")
            return sorted(node.id for node in db.query(doc, "//b//c"))

        plain = matches(ContainmentDatabase(page_size=128, buffer_pages=4))
        injector = FaultInjector(
            FaultConfig(seed=CHAOS_SEED, **TRANSIENT_FAULTS)
        )
        chaotic_db = ContainmentDatabase(
            page_size=128, buffer_pages=4, faults=injector
        )
        assert matches(chaotic_db) == plain
        assert chaotic_db.disk.checksums  # auto-enabled with faults
        assert injector.reads_seen > 0
        assert chaotic_db.fault_stats is injector.stats


# ----------------------------------------------------------------------
# regression: VPJ's rollup fallback must not leak its temp sets
# ----------------------------------------------------------------------
class TestVpjFallbackCleanup:
    """``VerticalPartitionJoin._fallback`` concatenates the partition
    into two temporary element sets and hands them to an inner rollup
    join.  A fault raised while building the second set or inside the
    inner join used to leak the already-built sets' pages: cleanup sat
    after the join instead of in a ``finally``.  The sweep below fires a
    permanent read error at every phase of the fallback and checks the
    disk returns to its pre-join page count every time.
    """

    def bench(self):
        tree = random_tree(420, max_fanout=5, seed=31)
        encoding = binarize(tree)
        rng = random.Random(7)
        a_codes = rng.sample(tree.codes, 260)
        d_codes = rng.sample(tree.codes, 300)
        injector = FaultInjector(seed=CHAOS_SEED)
        disk = DiskManager(page_size=128, checksums=True, faults=injector)
        bufmgr = BufferManager(disk, 4)  # both sides exceed budget - 2
        a_set = ElementSet.from_codes(bufmgr, a_codes, encoding.tree_height, "A")
        d_set = ElementSet.from_codes(bufmgr, d_codes, encoding.tree_height, "D")
        bufmgr.flush_all()
        bufmgr.evict_all()
        return injector, disk, bufmgr, a_set, d_set

    def fault_free_reads(self):
        injector, disk, bufmgr, a_set, d_set = self.bench()
        VerticalPartitionJoin(max_recursion=0).run(
            a_set, d_set, JoinSink("count")
        )
        assert injector.stats.scheduled_fired == 0
        return injector.reads_seen

    def test_faulted_fallback_releases_every_temp_page(self):
        total_reads = self.fault_free_reads()
        assert total_reads > 8
        # sweep the whole fallback: faults while concatenating temp A,
        # while concatenating temp D, and inside the inner rollup join;
        # the chaos seed rotates the sampled positions in CI
        positions = sorted(
            {1 + (CHAOS_SEED + step * total_reads // 7) % total_reads
             for step in range(1, 7)}
        )
        for at in positions:
            injector, disk, bufmgr, a_set, d_set = self.bench()
            baseline = disk.num_allocated
            injector.schedule("read-error", at=at, permanent=True)
            with pytest.raises(StorageFault):
                VerticalPartitionJoin(max_recursion=0).run(
                    a_set, d_set, JoinSink("count")
                )
            assert injector.stats.scheduled_fired == 1
            assert bufmgr.num_pinned == 0, f"pin leaked at read {at}"
            assert disk.num_allocated == baseline, (
                f"fallback leaked {disk.num_allocated - baseline} pages "
                f"when faulted at read {at}"
            )


# ----------------------------------------------------------------------
# regression: prepared intermediates are freed, faulted or not
# ----------------------------------------------------------------------
#: operators whose ``_prepare`` builds scratch pages: on-the-fly indexes
#: (INLJN with either outer, ADB+, and the ablation benchmarks' R-tree
#: and XR-stack joins) or sorted copies (MPMGJN, Stack-Tree)
PREPARING = {
    "INLJN-outer-A": lambda: IndexNestedLoopJoin(force_outer="A"),
    "INLJN-outer-D": lambda: IndexNestedLoopJoin(force_outer="D"),
    "ADB+": AncDesBPlusJoin,
    "MPMGJN": MPMGJoin,
    "STACKTREE": StackTreeDescJoin,
    "RTREE-INL": RTreeProbeJoin,
    "RTREE-SYNC": SynchronizedRTreeJoin,
    "XR-STACK": XRStackJoin,
}
#: an R-tree node needs room for four 40-byte entries
PAGE_SIZE = {"RTREE-INL": 256, "RTREE-SYNC": 256}


class TestPreparedIntermediatesFreed:
    """INLJN's and ADB+'s on-the-fly indexes used to be dropped by
    reference only — the index classes had no ``destroy`` — so every run
    left the index pages allocated; the R-tree and XR-stack joins did
    the same until they freed what they built.  And ``JoinAlgorithm.run``
    cleaned up only after a successful execute, so a fault mid-join also
    leaked MPMGJN's and Stack-Tree's sorted copies.  Both a normal run
    and a permanent read fault during execute must return the disk to
    its pre-join page count."""

    def bench(self, name):
        tree = random_tree(400, max_fanout=5, seed=37)
        encoding = binarize(tree)
        rng = random.Random(13)
        # unsorted inputs: the merge joins sort on the fly
        a_codes = rng.sample(tree.codes, 150)
        d_codes = rng.sample(tree.codes, 220)
        injector = FaultInjector(seed=CHAOS_SEED)
        disk = DiskManager(
            page_size=PAGE_SIZE.get(name, 128), checksums=True, faults=injector
        )
        bufmgr = BufferManager(disk, 8)
        a_set = ElementSet.from_codes(bufmgr, a_codes, encoding.tree_height, "A")
        d_set = ElementSet.from_codes(bufmgr, d_codes, encoding.tree_height, "D")
        bufmgr.flush_all()
        bufmgr.evict_all()
        return injector, disk, bufmgr, a_set, d_set

    @pytest.mark.parametrize("name", sorted(PREPARING))
    def test_normal_run_frees_every_scratch_page(self, name):
        _injector, disk, bufmgr, a_set, d_set = self.bench(name)
        baseline = disk.num_allocated
        report = PREPARING[name]().run(a_set, d_set, JoinSink("count"))
        assert report.prep_io.allocations > 0  # it did build scratch pages
        assert bufmgr.num_pinned == 0
        assert disk.num_allocated == baseline

    @pytest.mark.parametrize("name", sorted(PREPARING))
    def test_fault_during_execute_frees_every_scratch_page(self, name):
        _injector, _disk, _bufmgr, a_set, d_set = self.bench(name)
        quiet = PREPARING[name]().run(a_set, d_set, JoinSink("count"))
        assert quiet.join_io.reads > 1
        # the same deterministic run on a fresh bench, with a permanent
        # read error scheduled inside the execute phase's reads
        injector, disk, bufmgr, a_set, d_set = self.bench(name)
        baseline = disk.num_allocated
        injector.schedule(
            "read-error",
            at=quiet.prep_io.reads + quiet.join_io.reads // 2,
            permanent=True,
        )
        with pytest.raises(PermanentIOError):
            PREPARING[name]().run(a_set, d_set, JoinSink("count"))
        assert injector.stats.scheduled_fired == 1
        assert bufmgr.num_pinned == 0
        assert disk.num_allocated == baseline

    @pytest.mark.parametrize("name", ["MPMGJN", "STACKTREE"])
    def test_fault_during_d_sort_frees_a_sorted_copy(self, name):
        """The merge joins sort A, then D.  Nothing is prepared when D's
        sort raises, so ``_cleanup`` never runs: A's sorted copy must be
        freed by the prepare step itself."""
        _injector, disk, _bufmgr, a_set, d_set = self.bench(name)
        external_sort_set(a_set).destroy()
        a_reads = disk.stats.reads
        _injector, _disk, _bufmgr, a_set, d_set = self.bench(name)
        report = PREPARING[name]().run(a_set, d_set, JoinSink("count"))
        prep_reads = report.prep_io.reads
        assert prep_reads > a_reads + 1  # D's sort reads pages too
        step = max(1, (prep_reads - a_reads) // 16)
        for at in range(a_reads + 1, prep_reads + 1, step):
            injector, disk, bufmgr, a_set, d_set = self.bench(name)
            baseline = disk.num_allocated
            injector.schedule("read-error", at=at, permanent=True)
            with pytest.raises(PermanentIOError):
                PREPARING[name]().run(a_set, d_set, JoinSink("count"))
            assert injector.stats.scheduled_fired == 1
            assert bufmgr.num_pinned == 0, at
            assert disk.num_allocated == baseline, at

    @pytest.mark.parametrize(
        "name", ["ADB+", "INLJN-outer-A", "RTREE-SYNC", "XR-STACK"]
    )
    def test_fault_during_index_build_frees_every_scratch_page(self, name):
        """Nothing is prepared yet, so ``_cleanup`` never runs: each
        build frees itself, and the operators that build two indexes
        (ADB+, RTREE-SYNC, XR-STACK) free the first when the second
        fails."""
        _injector, _disk, _bufmgr, a_set, d_set = self.bench(name)
        reads = PREPARING[name]().run(a_set, d_set, JoinSink("count")).prep_io.reads
        for at in range(1, reads + 1, max(1, reads // 16)):
            injector, disk, bufmgr, a_set, d_set = self.bench(name)
            baseline = disk.num_allocated
            injector.schedule("read-error", at=at, permanent=True)
            with pytest.raises(PermanentIOError):
                PREPARING[name]().run(a_set, d_set, JoinSink("count"))
            assert bufmgr.num_pinned == 0, at
            assert disk.num_allocated == baseline, at


class TestFailedIndexBuildFreesPages:
    """A failed Start-index build used to leak: ``bulk_load`` rejecting
    unsorted input left its node pages allocated (and dirty), and a
    permanent read fault inside ``build_start_index`` left the external
    sort's runs, the sorted copy and the partial tree behind."""

    def bench(self, injector=None):
        disk = DiskManager(page_size=128, checksums=True, faults=injector)
        bufmgr = BufferManager(disk, 8)
        rng = random.Random(CHAOS_SEED)
        codes = rng.sample(range(1, 1 << 12), 400)
        elements = ElementSet.from_codes(bufmgr, codes, 12, "S")
        bufmgr.flush_all()
        bufmgr.evict_all()
        disk.stats.reset()
        return disk, bufmgr, elements

    def test_rejected_input_frees_its_nodes(self):
        disk = DiskManager(page_size=128)
        bufmgr = BufferManager(disk, 8)
        entries = [(key, key) for key in range(30)] + [(5, 5)]
        with pytest.raises(ValueError):
            BPlusTree.bulk_load(bufmgr, entries)
        assert disk.num_allocated == 0
        assert bufmgr.num_pinned == 0
        assert not any(frame.dirty for frame in bufmgr._frames.values())

    def test_read_fault_at_every_read_frees_every_page(self):
        disk, bufmgr, elements = self.bench()
        build_start_index(elements, bufmgr).destroy()
        reads = disk.stats.reads
        assert reads > 2 * elements.num_pages  # sort passes + the load's scan
        for at in range(1, reads + 1):
            injector = FaultInjector(seed=0)
            disk, bufmgr, elements = self.bench(injector)
            baseline = disk.num_allocated
            injector.schedule("read-error", at=at, permanent=True)
            with pytest.raises(PermanentIOError):
                build_start_index(elements, bufmgr)
            assert injector.stats.scheduled_fired == 1
            assert bufmgr.num_pinned == 0, at
            assert disk.num_allocated == baseline, at


# ----------------------------------------------------------------------
# regression: a failed path query must not leak its intermediates
# ----------------------------------------------------------------------
#: (forced direction, document, three-tag path, the tag step 2 reads
#: first — step 1 never touches it, so a fault on its first page lands
#: in step 2 while step 1's intermediate is alive)
LEAK_CASES = {
    "top-down": (
        "<a>" + "<b><c/><d><c/></d></b>" * 60 + "</a>",
        "//a//b//c",
        "c",
    ),
    "bottom-up": (
        "<r>" + "<b><c><x/></c><c/></b>" * 60 + "<b><c><e/></c></b></r>",
        "//b//c//e",
        "b",
    ),
}


class TestQueryIntermediateCleanup:
    """``PathPipeline`` used to destroy its intermediate sets only when
    every step succeeded, and ``db.query``'s extended-syntax joins their
    ``xq.A`` / ``xq.D`` sets likewise.  A permanent fault mid-path then
    left those pages allocated for good — on the database disk itself,
    where a service query's scratch pages live too."""

    def make_db(self, xml, path, faults=None):
        db = ContainmentDatabase(page_size=128, buffer_pages=4, faults=faults)
        doc = db.load_xml(xml, name="doc")
        for tag in path.strip("/").split("//"):
            db.element_set(doc, tag)
        db.bufmgr.flush_all()
        db.bufmgr.evict_all()
        return db, doc

    @pytest.mark.parametrize("direction", sorted(LEAK_CASES))
    def test_db_query_releases_intermediates(self, direction):
        xml, path, target = LEAK_CASES[direction]
        injector = FaultInjector(seed=CHAOS_SEED)
        db, doc = self.make_db(xml, path, faults=injector)
        baseline = db.disk.num_allocated
        page = db.element_set(doc, target).heap.page_ids[0]
        injector.schedule("read-error", page_id=page, permanent=True)
        with pytest.raises(PermanentIOError):
            db.query(doc, path, direction=direction)
        assert injector.stats.scheduled_fired == 1
        assert db.disk.num_allocated == baseline

    @pytest.mark.parametrize("direction", sorted(LEAK_CASES))
    def test_service_session_releases_intermediates(self, direction):
        from repro.service import QueryService

        xml, path, target = LEAK_CASES[direction]
        db, doc = self.make_db(xml, path)
        service = QueryService(db)
        # the planner's own pick, so the service runs the forced order
        assert service.execute("t", "doc", path, use_cache=False).direction == (
            direction
        )
        baseline = db.disk.num_allocated
        page = db.element_set(doc, target).heap.page_ids[0]
        injector = FaultInjector(seed=CHAOS_SEED)
        injector.schedule("read-error", page_id=page, permanent=True)
        service._query_faults = lambda document, query_path: injector
        with pytest.raises(PermanentIOError):
            service.execute("t", "doc", path, use_cache=False)
        assert injector.stats.scheduled_fired == 1
        assert db.disk.num_allocated == baseline

    # The final step's survivors are the answer and are never written,
    # so a fault there must find every intermediate already gone or
    # destroyed on the way out, and surface as the typed error — never
    # as a partial answer.  The fault lands on the final join's first
    # page read, counted off a clean run of the same query.
    @staticmethod
    def final_step_first_read(reads_seen, reports):
        assert reports[-1].total_io.reads, "the final join must read a page"
        return reads_seen - reports[-1].total_io.reads + 1

    @pytest.mark.parametrize("direction", sorted(LEAK_CASES))
    def test_db_query_final_step_fault_leaves_nothing(self, direction):
        xml, path, _target = LEAK_CASES[direction]
        clean = FaultInjector(seed=CHAOS_SEED)
        db, doc = self.make_db(xml, path, faults=clean)
        reads_before = clean.reads_seen
        result = db.query(doc, path, direction=direction)
        assert result.reports and len(result)
        at = self.final_step_first_read(
            clean.reads_seen - reads_before, result.reports
        )

        injector = FaultInjector(seed=CHAOS_SEED)
        db, doc = self.make_db(xml, path, faults=injector)
        baseline = db.disk.num_allocated
        injector.schedule("read-error", at=at, permanent=True)
        with pytest.raises(PermanentIOError) as excinfo:
            db.query(doc, path, direction=direction)
        assert injector.stats.scheduled_fired == 1
        assert db.disk.num_allocated == baseline
        assert "survivors" in str(excinfo.value)

    @pytest.mark.parametrize("direction", sorted(LEAK_CASES))
    def test_service_final_step_fault_leaves_nothing(self, direction):
        from repro.service import QueryService

        xml, path, _target = LEAK_CASES[direction]
        db, doc = self.make_db(xml, path)
        service = QueryService(db)
        injectors = []
        service._query_faults = lambda document, query_path: injectors[-1]
        injectors.append(FaultInjector(seed=CHAOS_SEED))
        outcome = service.execute("t", "doc", path, use_cache=False)
        assert outcome.direction == direction and outcome.codes
        at = self.final_step_first_read(injectors[-1].reads_seen, outcome.reports)

        baseline = db.disk.num_allocated
        injectors.append(FaultInjector(seed=CHAOS_SEED))
        injectors[-1].schedule("read-error", at=at, permanent=True)
        with pytest.raises(PermanentIOError):
            service.execute("t", "doc", path, use_cache=False)
        assert injectors[-1].stats.scheduled_fired == 1
        assert db.disk.num_allocated == baseline

    def test_extended_query_releases_join_inputs(self):
        xml, _path, _target = LEAK_CASES["top-down"]
        injector = FaultInjector(seed=CHAOS_SEED)
        db, doc = self.make_db(xml, "//b//c", faults=injector)
        baseline = db.disk.num_allocated
        # the first page read from here on is a join input read back
        # after the 4-frame pool spilled it
        injector.schedule("read-error", permanent=True)
        with pytest.raises(PermanentIOError):
            db.query(doc, "//b/c")
        assert injector.stats.scheduled_fired == 1
        assert db.disk.num_allocated == baseline
