"""Page-at-a-time storage paths are I/O-identical to record-at-a-time ones.

The heap writer packs a page once, at roll or close; the external sort
merges runs a block at a time; cached index pages cost one
``BufferManager.touch``; INLJN probes the B+-tree through the eager
``range_values``.  Each is checked against its record-at-a-time
reference (``tests/oracles/record_merge.py``, ``pin`` + ``unpin``,
``range_scan``) on the full transfer log — every read, allocation and
write with the written bytes, in order — plus the final page images,
the ``IOSnapshot`` and the buffer hits/misses.
"""

from __future__ import annotations

import importlib
import random
import struct
import threading
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Optional
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.execconfig import exec_scope
from repro.experiments.harness import materialize, run_algorithm
from repro.index.bptree import BPlusTree
from repro.index.staleness import StaleIndexError
from repro.join.base import JoinSink
from repro.join.planner import make_algorithm
from repro.sort.external_sort import external_sort, external_sort_set
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
from repro.storage.sanitize import UseAfterUnpinError
from repro.workloads import synthetic as syn

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


def both(action, **kwargs) -> tuple[Trace, Trace]:
    paged = traced(action, **kwargs)
    with record_at_a_time():
        reference = traced(action, **kwargs)
    return paged, reference


# ----------------------------------------------------------------------
# block merge vs heapq.merge
# ----------------------------------------------------------------------
class TestBlockMerge:
    @given(
        count=st.integers(0, 500),
        top=st.integers(0, 40),
        seed=st.integers(0, 2**32),
        frames=st.integers(3, 8),
        policy=st.sampled_from(["lru", "clock"]),
        destroy_input=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_generic_key_with_equal_keys_across_runs(
        self, count, top, seed, frames, policy, destroy_input
    ):
        """Few distinct keys: merge steps tie across runs and across a
        run's page boundaries; the payload field shows the tie order."""
        rng = random.Random(seed)
        records = [(rng.randint(0, top), position) for position in range(count)]

        def prepare(bufmgr):
            return HeapFile.from_records(bufmgr, PAIR, records, name="in")

        def action(bufmgr, heap):
            result = external_sort(
                heap,
                key=lambda record: record[0],
                buffer_pages=frames,
                destroy_input=destroy_input,
            )
            return result.page_ids, list(result.scan())

        paged, reference = both(
            action, prepare=prepare, frames=frames, policy=policy
        )
        assert_same_io(paged, reference)
        assert paged.outcome[1] == sorted(records, key=lambda r: r[0])

    @given(
        count=st.integers(0, 600),
        seed=st.integers(0, 2**32),
        frames=st.integers(3, 8),
    )
    @settings(max_examples=30, deadline=None)
    def test_bulk_doc_order_key(self, count, seed, frames):
        """``external_sort_set``: run_sort + bulk_key, duplicates kept."""
        rng = random.Random(seed)
        codes = [rng.randint(1, (1 << 12) - 1) for _ in range(count)]

        def prepare(bufmgr):
            return ElementSet.from_codes(bufmgr, codes, 12, "S")

        def action(bufmgr, elements):
            result = external_sort_set(elements, buffer_pages=frames)
            return result.heap.page_ids, result.to_list()

        paged, reference = both(action, prepare=prepare, frames=frames)
        assert_same_io(paged, reference)

    def test_multi_pass_merge_fan_in_two(self):
        records = [(value,) for value in range(1500, 0, -1)]
        pages = -(-len(records) // page_capacity(PAGE_SIZE, CODE.record_size))

        def prepare(bufmgr):
            return HeapFile.from_records(bufmgr, CODE, records)

        def action(bufmgr, heap):
            result = external_sort(heap, key=lambda r: r[0], buffer_pages=3)
            return list(result.scan())

        paged, reference = both(action, prepare=prepare, frames=3)
        assert_same_io(paged, reference)
        assert paged.outcome == sorted(records)
        # 3-page runs merged two at a time: several merge passes
        assert paged.io.writes > 4 * pages

    def test_read_fault_mid_merge_is_typed_and_leaks_no_pin(self):
        records = [((value * 7919) % 1000,) for value in range(1000)]

        def prepare(bufmgr):
            return HeapFile.from_records(bufmgr, CODE, records)

        def action(bufmgr, heap):
            return list(external_sort(heap, key=lambda r: r[0]).scan())

        pages = -(-len(records) // page_capacity(PAGE_SIZE, CODE.record_size))

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
    @pytest.mark.parametrize("lazy", [False, True], ids=["list", "iter"])
    def test_from_records_bytes_identical(self, codec, count, lazy):
        records = [
            tuple((i * 2654435761 + f) % (1 << 63) for f in range(codec.arity))
            for i in range(count)
        ]

        def action(bufmgr, _state):
            source = iter(records) if lazy else records
            heap = HeapFile.from_records(bufmgr, codec, source)
            return heap.page_ids, list(heap.scan())

        paged, reference = both(action, frames=3)
        assert_same_io(paged, reference)
        assert paged.outcome[1] == records

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
                batch = [(value + i,) for i in range(size)]
                value += size
                writer = heap.open_writer(resume=True)
                if bulk:
                    writer.append_many(batch)
                else:
                    for record in batch:
                        writer.append(record)
                writer.close()
                other.append_all([(size,)] * (size * 3))
            return heap.page_ids, list(heap.scan()), len(heap)

        paged, reference = both(action, frames=3)
        assert_same_io(paged, reference)
        assert paged.outcome[1] == [(v,) for v in range(sum(chunks))]

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
    @pytest.mark.parametrize("lazy", [False, True], ids=["list", "iter"])
    def test_write_fault_mid_append(self, at, lazy):
        """A victim write failing while the writer rolls a page: same
        typed fault at the same transfer, partial heap freed, no pin
        left behind."""
        records = [(i,) for i in range(400)]

        def action(bufmgr, _state):
            source = iter(records) if lazy else records
            HeapFile.from_records(bufmgr, CODE, source)

        def faults():
            injector = FaultInjector(seed=1)
            injector.schedule("write-error", at=at, permanent=True)
            return injector

        paged, reference = both(action, frames=3, faults=faults)
        assert paged.outcome[0] == "PermanentIOError"
        assert_same_io(paged, reference)


class TestPackMany:
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
        with pytest.raises(struct.error):
            RecordCodec(arity).pack_many(records)

    def test_out_of_range_rejected(self):
        with pytest.raises(struct.error):
            CODE.pack_many([(1 << 64,)])
        with pytest.raises(struct.error):
            PAIR.pack_many([(1, -1)])


class TestWriterRejectsBadRecord:
    """A record that does not pack fails the roll or close that packs its
    page, and the heap keeps what it held before that page's records."""

    def _heap(self) -> HeapFile:
        bufmgr = BufferManager(DiskManager(page_size=PAGE_SIZE), 4)
        return HeapFile.from_records(bufmgr, PAIR, [(i, i) for i in range(5)])

    @pytest.mark.parametrize("resume", [False, True])
    def test_failed_close_keeps_pages_and_count_in_step(self, resume):
        heap = self._heap()
        writer = heap.open_writer(resume=resume)
        writer.append((10, 10))
        writer.append((1 << 64, 0))
        with pytest.raises(struct.error):
            writer.close()
        assert heap.num_records == 5
        assert list(heap.scan()) == [(i, i) for i in range(5)]
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
        assert list(heap.scan()) == [(i, i) for i in range(5)]


# ----------------------------------------------------------------------
# touch vs pin + unpin
# ----------------------------------------------------------------------
def _pool(policy: str, frames: int, pages: int) -> BufferManager:
    disk = DiskManager(page_size=PAGE_SIZE)
    bufmgr = BufferManager(disk, frames, policy=policy)
    for value in range(pages):
        heap = HeapFile.from_records(bufmgr, CODE, [(value,)])
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

    @pytest.mark.parametrize("policy", ["lru", "clock"])
    def test_touch_with_live_borrow_raises_like_unpin(self, policy):
        with exec_scope(sanitize=True):
            fused, paired = _pool(policy, 3, 4), _pool(policy, 3, 4)
            for bufmgr in (fused, paired):
                bufmgr.pin(2)
                bufmgr.unpin(2)
                bufmgr.views.register(2, "live-borrow")
            with pytest.raises(UseAfterUnpinError) as touched:
                fused.touch(2)
            paired.pin(2)
            with pytest.raises(UseAfterUnpinError) as unpinned:
                paired.unpin(2)
            assert touched.value.page_id == unpinned.value.page_id == 2
            assert touched.value.labels == unpinned.value.labels
            assert _pool_state(fused) == _pool_state(paired)

    def test_touch_of_pinned_page_tolerates_borrow(self):
        """Not the last pin: no unpin-to-zero, so no sanitizer error."""
        with exec_scope(sanitize=True):
            bufmgr = _pool("lru", 3, 4)
            bufmgr.pin(1)
            ticket = bufmgr.views.register(1, "held")
            bufmgr.touch(1)
            bufmgr.views.release(1, ticket)
            bufmgr.unpin(1)
            assert bufmgr.hits == 1 and bufmgr.misses == 1

    def test_touch_miss_failure_leaves_no_pin(self):
        disk = DiskManager(page_size=PAGE_SIZE, checksums=True)
        bufmgr = BufferManager(disk, 2)
        HeapFile.from_records(bufmgr, CODE, [(1,)])
        bufmgr.flush_all()
        bufmgr.evict_all()
        injector = FaultInjector(seed=0)
        injector.schedule("read-error", at=1, permanent=True)
        disk.set_faults(injector)
        with pytest.raises(PermanentIOError):
            bufmgr.touch(0)
        assert bufmgr.num_pinned == 0 and bufmgr.misses == 1


# ----------------------------------------------------------------------
# range_values vs range_scan
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
    def test_range_values_is_drained_range_scan(self, keys, bounds, bulk, drop):
        """Duplicates straddle leaves (7 entries per 128-byte leaf); the
        probes read the same nodes in the same order, cold or cached."""

        def prepare(bufmgr):
            return _tree(bufmgr, keys, bulk, drop)

        def eager(_bufmgr, tree):
            return [tree.range_values(lo, hi) for lo, hi in bounds]

        def lazy(_bufmgr, tree):
            return [[v for _k, v in tree.range_scan(lo, hi)] for lo, hi in bounds]

        fast = traced(eager, prepare=prepare, frames=3)
        slow = traced(lazy, prepare=prepare, frames=3)
        assert_same_io(fast, slow)
        entries, dropped = _entries(keys, drop)
        live = sorted(set(entries) - set(dropped))
        for (lo, hi), values in zip(bounds, fast.outcome):
            assert sorted(values) == sorted(
                value for key, value in live if lo <= key <= hi
            )

    def test_search_uses_range_values(self):
        bufmgr = BufferManager(DiskManager(page_size=PAGE_SIZE), 8)
        tree = _tree(bufmgr, [5] * 30 + [6] * 3, bulk=True, drop=0)
        assert sorted(tree.search(5)) == list(range(30))
        assert tree.search(4) == []

    def test_retire_blocks_behind_running_probe(self):
        bufmgr = BufferManager(DiskManager(page_size=PAGE_SIZE), 64)
        tree = _tree(bufmgr, list(range(300)), bulk=True, drop=0)
        expected = tree.range_values(0, 299)  # decodes every node
        started, release, retired = (threading.Event() for _ in range(3))
        results: dict = {}
        touch = bufmgr.touch

        def blocking_touch(page_id: int) -> None:
            if not started.is_set():
                started.set()
                release.wait(5.0)
            touch(page_id)

        bufmgr.touch = blocking_touch

        def prober():
            results["probe"] = tree.range_values(0, 299)

        def retirer():
            started.wait(5.0)
            tree.mark_stale("concurrent update")
            retired.set()

        threads = [threading.Thread(target=prober), threading.Thread(target=retirer)]
        for thread in threads:
            thread.start()
        assert started.wait(5.0)
        assert not retired.wait(0.2)
        release.set()
        for thread in threads:
            thread.join(5.0)
            assert not thread.is_alive()
        assert retired.is_set()
        assert results["probe"] == expected
        with pytest.raises(StaleIndexError):
            tree.range_values(0, 10)
