"""Page-at-a-time storage and join paths are I/O-identical to
record-at-a-time ones.

The heap writer packs a page once, at roll or close; the external sort
merges runs a block at a time; cached index pages cost one
``BufferManager.touch``.  INLJN probes a whole outer page with one
``range_values_many`` batch, Stack-Tree-Desc and Anc_Des_B+ merge over
page and leaf arrays, and ``BPlusTree.bulk_load`` fills a leaf per
step.  Each is checked against its record-at-a-time reference
(``tests/oracles/record_merge.py``, ``tests/oracles/record_joins.py``,
``pin`` + ``unpin``) on the full transfer log — every read, allocation
and write with the written bytes, in order — plus the final page
images, the ``IOSnapshot``, the buffer hits/misses and, for the joins,
the emitted pair sequence.
"""

from __future__ import annotations

import importlib
import random
import struct
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Optional
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import pbitree
from repro.experiments.harness import materialize, run_algorithm
from repro.index.bptree import BPlusTree
from repro.index.staleness import StaleIndexError
from repro.join.ancdes_b import AncDesBPlusJoin
from repro.join.base import JoinAlgorithm, JoinSink
from repro.join.inljn import IndexNestedLoopJoin, build_start_index
from repro.join.planner import make_algorithm
from repro.join.stacktree import StackTreeDescJoin
from repro.sort.external_sort import external_sort_set
from repro.storage.buffer import BufferManager
from repro.storage.disk import DiskManager
from repro.storage.elementset import ElementSet
from repro.storage.faults import (
    FaultConfig,
    FaultInjector,
    PermanentIOError,
    StorageFault,
)
from repro.storage.heapfile import HeapFile
from repro.storage.page import page_capacity
from repro.storage.record import CODE, PAIR, TRIPLE, RecordCodec
from repro.workloads import synthetic as syn

from .oracles import record_joins
from .oracles.record_merge import RecordHeapWriter, merge_runs

PAGE_SIZE = 128
#: the module (``repro.sort`` re-exports its function under the same name)
external_sort_module = importlib.import_module("repro.sort.external_sort")


@dataclass
class Trace:
    """Everything a storage path can be observed doing."""

    outcome: Any
    transfers: list
    pages: dict
    io: Any
    hits: int
    misses: int
    pinned: int


def traced(
    action: Callable[[BufferManager, Any], Any],
    prepare: Optional[Callable[[BufferManager], Any]] = None,
    frames: int = 4,
    policy: str = "lru",
    faults: Optional[Callable[[], FaultInjector]] = None,
) -> Trace:
    """Run ``action`` on a cold pool over a fresh disk, logging all I/O.

    ``prepare`` builds the inputs first (untraced, fault-free); a
    storage fault raised by ``action`` becomes its outcome.
    """
    disk = DiskManager(page_size=PAGE_SIZE, checksums=True)
    bufmgr = BufferManager(disk, frames, policy=policy)
    state = prepare(bufmgr) if prepare is not None else None
    bufmgr.flush_all()
    bufmgr.evict_all()
    disk.stats.reset()
    bufmgr.hits = bufmgr.misses = 0
    transfers: list = []
    disk.set_observer(
        lambda op, page_id: transfers.append(
            (op, page_id, disk._pages[page_id] if op == "write" else None)
        )
    )
    disk.set_faults(faults() if faults is not None else None)
    try:
        outcome = action(bufmgr, state)
    except StorageFault as fault:
        outcome = (type(fault).__name__, getattr(fault, "page_id", None))
    disk.set_faults(None)
    disk.set_observer(None)
    io = disk.stats.snapshot()
    hits, misses, pinned = bufmgr.hits, bufmgr.misses, bufmgr.num_pinned
    bufmgr.flush_all()
    return Trace(outcome, transfers, dict(disk._pages), io, hits, misses, pinned)


@contextmanager
def record_at_a_time(merge: bool = True, writer: bool = True):
    """Swap the record-at-a-time oracle paths into the engine."""
    with ExitStack() as stack:
        if writer:
            stack.enter_context(
                patch.object(
                    HeapFile,
                    "open_writer",
                    lambda heap, resume=False: RecordHeapWriter(heap, resume),
                )
            )
        if merge:
            stack.enter_context(
                patch.object(external_sort_module, "_merge_runs", merge_runs)
            )
        yield


def assert_same_io(paged: Trace, reference: Trace) -> None:
    assert paged.outcome == reference.outcome
    assert paged.transfers == reference.transfers
    assert paged.pages == reference.pages
    assert paged.io == reference.io
    assert (paged.hits, paged.misses) == (reference.hits, reference.misses)
    assert paged.pinned == reference.pinned == 0


def fields_of(heap: HeapFile) -> list[int]:
    """Every field of ``heap`` in file order, off the page arrays."""
    return [field for page in heap.scan_page_arrays() for field in page]


def both(action, **kwargs) -> tuple[Trace, Trace]:
    paged = traced(action, **kwargs)
    with record_at_a_time():
        reference = traced(action, **kwargs)
    return paged, reference


# ----------------------------------------------------------------------
# block merge vs heapq.merge
# ----------------------------------------------------------------------
def _spine_codes(rng: random.Random, count: int, height: int) -> list[int]:
    """``count`` codes from a small pool salted with left spines (codes
    sharing a Start), so merge steps tie across runs and across a run's
    page boundaries."""
    pool = set()
    for _ in range(1 + count // 20):
        code = rng.randint(1, (1 << height) - 1)
        pool.add(code)
        while code & 1 == 0:  # walk down the left spine
            code -= (code & -code) >> 1
            pool.add(code)
    ordered = sorted(pool)
    return [rng.choice(ordered) for _ in range(count)]


class TestBlockMerge:
    @given(
        count=st.integers(0, 600),
        seed=st.integers(0, 2**32),
        frames=st.integers(3, 8),
        policy=st.sampled_from(["lru", "clock"]),
        destroy_input=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_duplicates_and_spines_across_runs(
        self, count, seed, frames, policy, destroy_input
    ):
        rng = random.Random(seed)
        codes = _spine_codes(rng, count, 12)

        def prepare(bufmgr):
            return ElementSet.from_codes(bufmgr, codes, 12, "S")

        def action(bufmgr, elements):
            pages = elements.heap.num_pages
            result = external_sort_set(
                elements, buffer_pages=frames, destroy_input=destroy_input
            )
            assert elements.heap.num_pages == (0 if destroy_input else pages)
            return result.heap.page_ids, result.to_list()

        paged, reference = both(
            action, prepare=prepare, frames=frames, policy=policy
        )
        assert_same_io(paged, reference)
        assert paged.outcome[1] == sorted(codes, key=pbitree.doc_order_key)

    @given(
        count=st.integers(0, 600),
        seed=st.integers(0, 2**32),
        frames=st.integers(3, 8),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_codes(self, count, seed, frames):
        """Codes up to the 63-bit storage bound, duplicates kept."""
        rng = random.Random(seed)
        codes = [rng.randint(1, (1 << 63) - 1) for _ in range(count)]
        codes += codes[: count // 4]

        def prepare(bufmgr):
            return ElementSet.from_codes(bufmgr, codes, 63, "S")

        def action(bufmgr, elements):
            result = external_sort_set(elements, buffer_pages=frames)
            return result.heap.page_ids, result.to_list()

        paged, reference = both(action, prepare=prepare, frames=frames)
        assert_same_io(paged, reference)
        assert paged.outcome[1] == sorted(codes, key=pbitree.doc_order_key)

    def test_multi_pass_merge_fan_in_two(self):
        codes = list(range(1500, 0, -1))
        pages = -(-len(codes) // page_capacity(PAGE_SIZE, CODE.record_size))

        def prepare(bufmgr):
            return ElementSet.from_codes(bufmgr, codes, 11, "S")

        def action(bufmgr, elements):
            return external_sort_set(elements, buffer_pages=3).to_list()

        paged, reference = both(action, prepare=prepare, frames=3)
        assert_same_io(paged, reference)
        assert paged.outcome == sorted(codes, key=pbitree.doc_order_key)
        # 3-page runs merged two at a time: several merge passes
        assert paged.io.writes > 4 * pages

    def test_read_fault_mid_merge_is_typed_and_leaks_no_pin(self):
        codes = [(value * 7919) % 1000 + 1 for value in range(1000)]

        def prepare(bufmgr):
            return ElementSet.from_codes(bufmgr, codes, 10, "S")

        def action(bufmgr, elements):
            return external_sort_set(elements).to_list()

        pages = -(-len(codes) // page_capacity(PAGE_SIZE, CODE.record_size))

        def faults():
            injector = FaultInjector(seed=3)
            # past run formation's one read per input page: a merge pass
            injector.schedule("read-error", at=pages + 10, permanent=True)
            return injector

        paged, reference = both(
            action, prepare=prepare, frames=4, faults=faults
        )
        assert paged.outcome[0] == "PermanentIOError"
        assert_same_io(paged, reference)


# ----------------------------------------------------------------------
# packed-page writer vs per-record packing
# ----------------------------------------------------------------------
class TestPackedWriter:
    @pytest.mark.parametrize("codec", [CODE, PAIR, TRIPLE], ids=["1", "2", "3"])
    @pytest.mark.parametrize("count", [0, 1, 7, 8, 15, 16, 17, 200])
    @pytest.mark.parametrize("source", ["append", "fields"])
    def test_writer_bytes_identical(self, codec, count, source):
        """Records one at a time (``append``) or as one flat field list
        (``from_fields``): each matches the per-record packing oracle,
        so the two write entries match each other."""
        records = [
            tuple((i * 2654435761 + f) % (1 << 63) for f in range(codec.arity))
            for i in range(count)
        ]
        fields = [field for record in records for field in record]

        def action(bufmgr, _state):
            if source == "fields":
                heap = HeapFile.from_fields(bufmgr, codec, fields)
            else:
                heap = HeapFile(bufmgr, codec)
                writer = heap.open_writer()
                for record in records:
                    writer.append(record)
                writer.close()
            return heap.page_ids, fields_of(heap)

        paged, reference = both(action, frames=3)
        assert_same_io(paged, reference)
        assert paged.outcome[1] == fields

    @pytest.mark.parametrize("count", [0, 1, 15, 16, 17, 200])
    def test_append_and_append_fields_write_the_same_pages(self, count):
        """The two write entries side by side on the engine's writer:
        same page bytes and the same I/O."""
        fields = [(i * 2654435761) % (1 << 63) for i in range(2 * count)]

        def write(bulk: bool):
            def action(bufmgr, _state):
                heap = HeapFile(bufmgr, PAIR)
                writer = heap.open_writer()
                if bulk:
                    writer.append_fields(fields)
                else:
                    for start in range(0, len(fields), 2):
                        writer.append(fields[start : start + 2])
                writer.close()
                return heap.page_ids, fields_of(heap)

            return action

        appended = traced(write(False), frames=3)
        bulk = traced(write(True), frames=3)
        assert_same_io(appended, bulk)
        assert appended.outcome[1] == fields

    @pytest.mark.parametrize("count", [0, 1, 15, 16, 17, 200])
    def test_element_set_from_codes_bytes_identical(self, count):
        codes = [(i * 2654435761) % (1 << 20) + 1 for i in range(count)]

        def action(bufmgr, _state):
            elements = ElementSet.from_codes(bufmgr, codes, 20, "S")
            return elements.heap.page_ids, elements.to_list()

        paged, reference = both(action, frames=3)
        assert_same_io(paged, reference)
        assert paged.outcome[1] == codes

    def test_append_fields_rejects_partial_records(self):
        bufmgr = BufferManager(DiskManager(page_size=PAGE_SIZE), 4)
        heap = HeapFile(bufmgr, PAIR)
        with heap.open_writer() as writer:
            with pytest.raises(ValueError):
                writer.append_fields([1, 2, 3])
        assert len(heap) == 0

    @given(
        chunks=st.lists(st.integers(0, 20), min_size=1, max_size=12),
        bulk=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_resume_bytes_identical(self, chunks, bulk):
        """Re-opened writers continue the last page, evicted or not
        (another heap's writes run in between)."""

        def action(bufmgr, _state):
            heap = HeapFile(bufmgr, CODE, name="resumed")
            other = HeapFile(bufmgr, CODE, name="churn")
            value = 0
            for size in chunks:
                batch = list(range(value, value + size))
                value += size
                writer = heap.open_writer(resume=True)
                if bulk:
                    writer.append_fields(batch)
                else:
                    for code in batch:
                        writer.append((code,))
                writer.close()
                churn = other.open_writer()
                churn.append_fields([size] * (size * 3))
                churn.close()
            return heap.page_ids, fields_of(heap), len(heap)

        paged, reference = both(action, frames=3)
        assert_same_io(paged, reference)
        assert paged.outcome[1] == list(range(sum(chunks)))

    def test_docstore_inserts_resume_identical(self):
        """The update pipeline appends each insert through a resumed
        writer holding one record."""
        from repro import ContainmentDatabase, random_tree

        def run():
            db = ContainmentDatabase(buffer_pages=4, page_size=PAGE_SIZE)
            doc = db.load_tree(random_tree(120, max_fanout=4, seed=3))
            for _ in range(40):
                db.insert_element(doc, doc.tree.root, "x")
            result = db.query(doc, "//x")
            io = db.io_stats
            db.bufmgr.flush_all()
            return len(result), io, dict(db.disk._pages)

        paged = run()
        with record_at_a_time():
            reference = run()
        assert paged == reference

    @pytest.mark.parametrize(
        "dataset,algorithm",
        [
            ("SLLH", "VPJ"),        # interleaved per-bucket scatter writers
            ("SLLH", "SHCJ"),       # Grace partitions
            ("MLLH", "MHCJ+Rollup"),  # height partitions, resumed writers
            ("MLLH", "VPJ"),
            ("MLLH", "STACKTREE"),  # external sort of both sides
            ("MLLH", "INLJN"),      # sort + bulk-loaded index + probes
        ],
    )
    @pytest.mark.parametrize("chaos", [False, True], ids=["clean", "chaos"])
    def test_join_io_identical(self, dataset, algorithm, chaos):
        spec = syn.spec_by_name(dataset, large=1200, small=40)
        data = syn.generate(spec, seed=11)

        def prepare(bufmgr):
            return (
                materialize(bufmgr, data.a_codes, data.tree_height, "A"),
                materialize(bufmgr, data.d_codes, data.tree_height, "D"),
            )

        def action(bufmgr, sets):
            sink = JoinSink("collect")
            report = run_algorithm(make_algorithm(algorithm), *sets, sink)
            return sorted(sink.pairs), report.total_io

        def faults():
            return FaultInjector(
                FaultConfig(
                    seed=5, read_error_rate=0.02, write_error_rate=0.02,
                    torn_page_rate=0.01,
                )
            )

        paged, reference = both(
            action, prepare=prepare, frames=8,
            faults=faults if chaos else None,
        )
        assert_same_io(paged, reference)
        assert len(paged.outcome[0]) == data.num_results

    @pytest.mark.parametrize("at", [1, 2, 5])
    @pytest.mark.parametrize("source", ["append", "fields"])
    def test_write_fault_mid_append(self, at, source):
        """A victim write failing while the writer rolls a page: same
        typed fault at the same transfer and no pin left behind
        (``from_fields`` also frees its partial heap)."""

        def action(bufmgr, _state):
            if source == "fields":
                HeapFile.from_fields(bufmgr, CODE, range(400))
                return
            writer = HeapFile(bufmgr, CODE).open_writer()
            try:
                for code in range(400):
                    writer.append((code,))
            finally:
                writer.close()

        def faults():
            injector = FaultInjector(seed=1)
            injector.schedule("write-error", at=at, permanent=True)
            return injector

        paged, reference = both(action, frames=3, faults=faults)
        assert paged.outcome[0] == "PermanentIOError"
        assert_same_io(paged, reference)


class TestPackChecks:
    @pytest.mark.parametrize(
        "arity, records",
        [
            (1, [(0,), (0, 1)]),
            (2, [(0, 1), (0, 1, 2)]),
            (3, [(0, 1, 2), (0, 1, 2, 3)]),
            # the field count equals len(records) * arity; each record must too
            (1, [(), (1, 2)]),
            (2, [(1, 2, 3), (4,)]),
            (3, [(1, 2), (3, 4, 5, 6)]),
        ],
    )
    def test_wrong_arity_rejected(self, arity, records):
        bufmgr = BufferManager(DiskManager(page_size=PAGE_SIZE), 4)
        heap = HeapFile(bufmgr, RecordCodec(arity))
        writer = heap.open_writer()
        for record in records:
            writer.append(record)
        with pytest.raises(struct.error):
            writer.close()
        assert heap.num_records == 0 and fields_of(heap) == []

    def test_out_of_range_rejected(self):
        with pytest.raises(struct.error):
            CODE.pack_fields([1 << 64])
        with pytest.raises(struct.error):
            PAIR.pack_fields([1, -1])


class TestWriterRejectsBadRecord:
    """A record that does not pack fails the roll or close that packs its
    page, and the heap keeps what it held before that page's records."""

    #: five (i, i) pair records
    FIELDS = [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]

    def _heap(self) -> HeapFile:
        bufmgr = BufferManager(DiskManager(page_size=PAGE_SIZE), 4)
        return HeapFile.from_fields(bufmgr, PAIR, self.FIELDS)

    @pytest.mark.parametrize("resume", [False, True])
    def test_failed_close_keeps_pages_and_count_in_step(self, resume):
        heap = self._heap()
        writer = heap.open_writer(resume=resume)
        writer.append((10, 10))
        writer.append((1 << 64, 0))
        with pytest.raises(struct.error):
            writer.close()
        assert heap.num_records == 5
        assert fields_of(heap) == self.FIELDS
        assert heap.bufmgr.num_pinned == 0

    def test_failed_roll_raises_at_the_append_that_rolls(self):
        heap = self._heap()
        capacity = heap.capacity
        writer = heap.open_writer()
        writer.append((1, 2, 3))
        for value in range(capacity - 1):
            writer.append((value, value))
        with pytest.raises(struct.error):
            writer.append((7, 7))
        writer.close()
        assert heap.num_records == 5
        assert fields_of(heap) == self.FIELDS


# ----------------------------------------------------------------------
# touch vs pin + unpin
# ----------------------------------------------------------------------
def _pool(policy: str, frames: int, pages: int) -> BufferManager:
    disk = DiskManager(page_size=PAGE_SIZE)
    bufmgr = BufferManager(disk, frames, policy=policy)
    for value in range(pages):
        heap = HeapFile.from_fields(bufmgr, CODE, [value])
        assert heap.page_ids == [value]
    bufmgr.flush_all()
    bufmgr.evict_all()
    disk.stats.reset()
    return bufmgr


def _pool_state(bufmgr: BufferManager) -> tuple:
    return (
        [
            (page_id, frame.pin_count, frame.dirty, frame.referenced)
            for page_id, frame in bufmgr._frames.items()
        ],
        bufmgr._clock_hand,
        bufmgr.hits,
        bufmgr.misses,
        bufmgr.disk.stats.snapshot(),
    )


class TestTouch:
    @given(
        policy=st.sampled_from(["lru", "clock"]),
        ops=st.lists(
            st.tuples(st.sampled_from(["pin", "unpin", "touch"]), st.integers(0, 7)),
            max_size=60,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_touch_is_pin_plus_unpin(self, policy, ops):
        """Same hits, misses, reads, write-backs, LRU order, reference
        bits and clock hand after every step, hit or miss."""
        fused, paired = _pool(policy, 4, 8), _pool(policy, 4, 8)
        pins: list[int] = []
        for op, page_id in ops:
            if op == "unpin":
                if not pins:
                    continue
                page_id = pins.pop(page_id % len(pins))
                fused.unpin(page_id)
                paired.unpin(page_id)
            elif op == "pin":
                if len(pins) >= 3:
                    continue  # keep a replacement candidate
                fused.pin(page_id)
                paired.pin(page_id)
                pins.append(page_id)
            else:
                fused.touch(page_id)
                paired.pin(page_id)
                paired.unpin(page_id)
            assert _pool_state(fused) == _pool_state(paired)

    def test_touch_miss_failure_leaves_no_pin(self):
        disk = DiskManager(page_size=PAGE_SIZE, checksums=True)
        bufmgr = BufferManager(disk, 2)
        HeapFile.from_fields(bufmgr, CODE, [1])
        bufmgr.flush_all()
        bufmgr.evict_all()
        injector = FaultInjector(seed=0)
        injector.schedule("read-error", at=1, permanent=True)
        disk.set_faults(injector)
        with pytest.raises(PermanentIOError):
            bufmgr.touch(0)
        assert bufmgr.num_pinned == 0 and bufmgr.misses == 1


# ----------------------------------------------------------------------
# range_values_many vs one lazy range_scan per range
# ----------------------------------------------------------------------
def _entries(keys: list[int], drop: int) -> tuple[list, list]:
    """(key, value) entries sorted by key, and every ``drop``-th of them
    to delete (deletes leave underfull, even empty, leaves behind)."""
    entries = sorted((key, position) for position, key in enumerate(keys))
    return entries, (entries[::drop] if drop else [])


def _tree(bufmgr: BufferManager, keys: list[int], bulk: bool, drop: int) -> BPlusTree:
    entries, dropped = _entries(keys, drop)
    if bulk:
        tree = BPlusTree.bulk_load(bufmgr, entries, name="t")
    else:
        tree = BPlusTree(bufmgr, name="t")
        for position, key in enumerate(keys):
            tree.insert(key, position)
    for key, value in dropped:
        assert tree.delete(key, value)
    return tree


class TestRangeValues:
    @given(
        keys=st.lists(st.integers(0, 30), max_size=250),
        bounds=st.lists(st.tuples(st.integers(0, 32), st.integers(0, 32)), max_size=8),
        bulk=st.booleans(),
        drop=st.sampled_from([0, 2, 3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_is_one_drained_scan_per_range(self, keys, bounds, bulk, drop):
        """Duplicates straddle leaves (7 entries per 128-byte leaf); the
        batch, the engine's leaf-walk scan and the oracle's lazy scan
        read the same nodes in the same order, cold or cached."""

        def prepare(bufmgr):
            return _tree(bufmgr, keys, bulk, drop)

        def batched(_bufmgr, tree):
            return tree.range_values_many(bounds)

        def walked(_bufmgr, tree):
            return [[v for _k, v in tree.range_scan(lo, hi)] for lo, hi in bounds]

        def oracle(_bufmgr, tree):
            return [
                [v for _k, v in record_joins.range_scan(tree, lo, hi)]
                for lo, hi in bounds
            ]

        fast = traced(batched, prepare=prepare, frames=3)
        assert_same_io(fast, traced(walked, prepare=prepare, frames=3))
        assert_same_io(fast, traced(oracle, prepare=prepare, frames=3))
        entries, dropped = _entries(keys, drop)
        live = sorted(set(entries) - set(dropped))
        for (lo, hi), values in zip(bounds, fast.outcome):
            assert sorted(values) == sorted(
                value for key, value in live if lo <= key <= hi
            )

    def test_search_and_range_values_are_one_range_batches(self):
        bufmgr = BufferManager(DiskManager(page_size=PAGE_SIZE), 8)
        tree = _tree(bufmgr, [5] * 30 + [6] * 3, bulk=True, drop=0)
        assert sorted(tree.search(5)) == list(range(30))
        assert tree.search(4) == []
        assert tree.range_values(5, 6) == tree.range_values_many([(5, 6)])[0]
        assert tree.range_values_many([]) == []
        empty = BPlusTree(bufmgr, name="empty")
        assert empty.range_values_many([(0, 9), (3, 4)]) == [[], []]

    def test_retire_mid_batch_takes_effect_at_the_next_batch(self):
        """Freshness is checked once per batch: a ``mark_stale`` landing
        inside a batch (here from its fifth node access, inside the
        second range) lets that batch answer from the tree it started
        on, and the next batch raises."""
        bufmgr = BufferManager(DiskManager(page_size=PAGE_SIZE), 64)
        tree = _tree(bufmgr, list(range(300)), bulk=True, drop=0)
        ranges = [(0, 99), (100, 199), (200, 299), (17, 17)]
        expected = tree.range_values_many(ranges)  # decodes every node
        touch = bufmgr.touch
        touches = 0

        def retiring_touch(page_id: int) -> None:
            nonlocal touches
            touches += 1
            if touches == 5:
                tree.mark_stale("update mid-batch")
            touch(page_id)

        bufmgr.touch = retiring_touch
        assert tree.range_values_many(ranges) == expected
        assert tree.is_stale
        with pytest.raises(StaleIndexError):
            tree.range_values_many(ranges[:1])


# ----------------------------------------------------------------------
# page-local join loops vs their element-at-a-time oracles
# ----------------------------------------------------------------------
#: the three operators whose inner loops run over page / leaf arrays
#: (INLJN with A as the outer relation: the B+-tree probe path)
LOOP_OPERATORS: dict[str, Callable[[], JoinAlgorithm]] = {
    "INLJN": lambda: IndexNestedLoopJoin(force_outer="A"),
    "STACKTREE": StackTreeDescJoin,
    "ADB+": AncDesBPlusJoin,
}
#: codes of a height-8 PBiTree: small enough that random sets share
#: region starts along leftmost chains (8, 4, 2 and 1 all start at 1)
#: and nest several deep; sizes are uniform over 0-120 (empty included)
HEIGHT = 8
codes_8 = st.builds(
    lambda size, seed: random.Random(seed).sample(range(1, 1 << HEIGHT), size),
    st.integers(0, 120),
    st.integers(0, 2**32),
)


@contextmanager
def element_at_a_time():
    """Swap the element-at-a-time join loops and bulk load into the engine."""
    swaps = [
        (IndexNestedLoopJoin, "_probe_descendant_index",
         staticmethod(record_joins.probe_descendant_index)),
        (StackTreeDescJoin, "_merge", staticmethod(record_joins.stacktree_merge)),
        (AncDesBPlusJoin, "_merge", staticmethod(record_joins.adb_merge)),
        (BPlusTree, "bulk_load", classmethod(record_joins.bulk_load)),
    ]
    with ExitStack() as stack:
        for owner, name, oracle in swaps:
            stack.enter_context(patch.object(owner, name, oracle))
        yield


def both_loops(action, **kwargs) -> tuple[Trace, Trace]:
    paged = traced(action, **kwargs)
    with element_at_a_time():
        reference = traced(action, **kwargs)
    return paged, reference


def _sets(a_codes, d_codes, height=HEIGHT):
    def prepare(bufmgr):
        return (
            materialize(bufmgr, a_codes, height, "A"),
            materialize(bufmgr, d_codes, height, "D"),
        )

    return prepare


def _join(operator: Callable[[], JoinAlgorithm]):
    def action(_bufmgr, sets):
        sink = JoinSink("collect")
        run_algorithm(operator(), *sets, sink)
        return sink.pairs  # in emit order

    return action


def _expected(a_codes, d_codes) -> list:
    return sorted(
        (a, d) for a in a_codes for d in d_codes if pbitree.is_ancestor(a, d)
    )


class TestJoinLoops:
    @given(
        name=st.sampled_from(sorted(LOOP_OPERATORS)),
        a_codes=codes_8,
        d_codes=codes_8,
        frames=st.integers(3, 8),
        policy=st.sampled_from(["lru", "clock"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_same_io_and_pairs(self, name, a_codes, d_codes, frames, policy):
        """Leftmost-chain ties, overlapping and empty sides, 3-8 frames."""
        paged, reference = both_loops(
            _join(LOOP_OPERATORS[name]), prepare=_sets(a_codes, d_codes),
            frames=frames, policy=policy,
        )
        assert_same_io(paged, reference)
        assert sorted(paged.outcome) == _expected(a_codes, d_codes)

    @given(
        a_codes=codes_8,
        d_codes=codes_8,
        a_cut=st.tuples(st.integers(0, 120), st.integers(0, 120)),
        d_cut=st.tuples(st.integers(0, 120), st.integers(0, 120)),
        frames=st.integers(3, 8),
        policy=st.sampled_from(["lru", "clock"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_adb_over_emptied_leaves(
        self, a_codes, d_codes, a_cut, d_cut, frames, policy
    ):
        """Pre-built indexes that lost a contiguous stretch of entries
        (whole leaves emptied, kept in the chain) and every third one:
        the leaf cursor walks and skips through the empty leaves."""

        def index(bufmgr, codes, cut):
            entries, dropped = _start_entries(codes, cut)
            tree = BPlusTree.bulk_load(bufmgr, entries)
            for key, value in dropped:
                assert tree.delete(key, value)
            return tree

        a_live, d_live = _live(a_codes, a_cut), _live(d_codes, d_cut)

        def prepare(bufmgr):
            indexes = (index(bufmgr, a_codes, a_cut), index(bufmgr, d_codes, d_cut))
            return _sets(a_live, d_live)(bufmgr), indexes

        def action(_bufmgr, state):
            sets, indexes = state
            sink = JoinSink("collect")
            run_algorithm(AncDesBPlusJoin(*indexes), *sets, sink)
            return sink.pairs

        paged, reference = both_loops(
            action, prepare=prepare, frames=frames, policy=policy
        )
        assert_same_io(paged, reference)
        assert sorted(paged.outcome) == _expected(a_live, d_live)

    @pytest.mark.parametrize("name", sorted(LOOP_OPERATORS))
    @pytest.mark.parametrize("dataset", ["SLLH", "MLLH"])
    @pytest.mark.parametrize("seed", [3, 8])
    def test_transient_chaos(self, name, dataset, seed):
        spec = syn.spec_by_name(dataset, large=1200, small=40)
        data = syn.generate(spec, seed=11)

        def faults():
            return FaultInjector(
                FaultConfig(
                    seed=seed, read_error_rate=0.03, write_error_rate=0.02,
                    torn_page_rate=0.01,
                )
            )

        paged, reference = both_loops(
            _join(LOOP_OPERATORS[name]),
            prepare=_sets(data.a_codes, data.d_codes, data.tree_height),
            frames=8, faults=faults,
        )
        assert_same_io(paged, reference)
        assert len(paged.outcome) == data.num_results

    @pytest.mark.parametrize("name", sorted(LOOP_OPERATORS))
    def test_permanent_read_fault_sweep(self, name):
        """A permanent read error at points spread over the whole run
        (build, then mid-page probes and merges): the same typed error
        after the same transfer-log prefix, nothing pinned or leaked."""
        spec = syn.spec_by_name("MLLH", large=600, small=30)
        data = syn.generate(spec, seed=5)
        prepare = _sets(data.a_codes, data.d_codes, data.tree_height)
        clean = traced(_join(LOOP_OPERATORS[name]), prepare=prepare, frames=6)
        reads = clean.io.reads
        for at in sorted({1, 2, *range(3, reads, max(1, reads // 9)), reads}):

            def faults(at=at):
                injector = FaultInjector(seed=0)
                injector.schedule("read-error", at=at, permanent=True)
                return injector

            paged, reference = both_loops(
                _join(LOOP_OPERATORS[name]), prepare=prepare, frames=6,
                faults=faults,
            )
            assert paged.outcome[0] == "PermanentIOError", at
            assert_same_io(paged, reference)
            assert paged.transfers == clean.transfers[: len(paged.transfers)]


def _start_entries(codes, cut) -> tuple[list, list]:
    """A Start index's entries in document order (an ancestor before
    the leftmost-chain descendants sharing its start), and the stretch
    ``entries[lo:hi]`` plus every third entry from ``hi`` on to delete."""
    entries = [
        (pbitree.start_of(c), c) for c in sorted(codes, key=pbitree.doc_order_key)
    ]
    lo, hi = sorted(cut)
    return entries, entries[lo:hi] + entries[hi::3]


def _live(codes, cut) -> list:
    entries, dropped = _start_entries(codes, cut)
    gone = {code for _start, code in dropped}
    return [code for code in codes if code not in gone]


class TestLeafBulkLoad:
    @given(
        count=st.integers(0, 300),
        seed=st.integers(0, 2**32),
        frames=st.integers(3, 8),
        policy=st.sampled_from(["lru", "clock"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_build_start_index_identical(self, count, seed, frames, policy):
        """Source-page reads, leaf allocations and leaf writes interleave
        as in the entry-at-a-time load (start ties included)."""
        rng = random.Random(seed)
        codes = rng.sample(range(1, 1 << 10), count)

        def action(bufmgr, elements):
            tree = build_start_index(elements, bufmgr)
            return tree.height, tree.num_entries, list(tree.scan_all())

        paged, reference = both_loops(
            action, prepare=lambda bufmgr: materialize(bufmgr, codes, 10, "S"),
            frames=frames, policy=policy,
        )
        assert_same_io(paged, reference)
        assert paged.outcome[2] == _start_entries(codes, (0, 0))[0]

    @pytest.mark.parametrize("fill_factor", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("count", [0, 1, 6, 7, 8, 49, 50, 300])
    def test_bulk_load_identical(self, fill_factor, count):
        entries = [(key // 3, key) for key in range(count)]

        def action(bufmgr, _state):
            tree = BPlusTree.bulk_load(bufmgr, iter(entries), fill_factor=fill_factor)
            return tree.height, tree.root_page, list(tree.scan_all())

        paged, reference = both_loops(action, frames=3)
        assert_same_io(paged, reference)
        assert paged.outcome[2] == entries
