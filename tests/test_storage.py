"""Tests for the disk manager, I/O statistics and record/page layout."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage import page as page_layout
from repro.storage.disk import DiskManager, PageNotAllocatedError
from repro.storage.record import CODE, PAIR, TRIPLE, RecordCodec
from repro.storage.stats import IOSnapshot, IOStats


class TestDiskManager:
    def test_allocate_read_write(self):
        disk = DiskManager(page_size=128)
        pid = disk.allocate()
        assert disk.read(pid) == bytes(128)
        disk.write(pid, b"\x07" * 128)
        assert disk.read(pid) == b"\x07" * 128

    def test_contiguous_allocation(self):
        disk = DiskManager()
        first = disk.allocate(5)
        assert [disk.is_allocated(first + i) for i in range(5)] == [True] * 5
        assert disk.allocate() == first + 5

    def test_wrong_size_write_rejected(self):
        disk = DiskManager(page_size=128)
        pid = disk.allocate()
        with pytest.raises(ValueError):
            disk.write(pid, b"short")

    def test_unallocated_access_rejected(self):
        disk = DiskManager()
        with pytest.raises(PageNotAllocatedError):
            disk.read(42)
        with pytest.raises(PageNotAllocatedError):
            disk.write(42, bytes(disk.page_size))
        with pytest.raises(PageNotAllocatedError):
            disk.deallocate(42)

    def test_unallocated_errors_carry_structured_context(self):
        """The error names the page and the operation that hit it."""
        disk = DiskManager()
        for operation, action in (
            ("read", lambda: disk.read(42)),
            ("write", lambda: disk.write(42, bytes(disk.page_size))),
            ("deallocate", lambda: disk.deallocate(42)),
        ):
            with pytest.raises(PageNotAllocatedError) as exc_info:
                action()
            error = exc_info.value
            assert error.page_id == 42
            assert error.operation == operation
            assert "42" in str(error) and operation in str(error)

    def test_deallocate(self):
        disk = DiskManager()
        pid = disk.allocate()
        disk.deallocate(pid)
        assert not disk.is_allocated(pid)
        assert disk.num_allocated == 0

    def test_tiny_page_size_rejected(self):
        with pytest.raises(ValueError):
            DiskManager(page_size=16)

    def test_zero_allocation_rejected(self):
        with pytest.raises(ValueError):
            DiskManager().allocate(0)


class TestIOStats:
    def test_counters(self):
        disk = DiskManager()
        pids = [disk.allocate() for _ in range(3)]
        for pid in pids:
            disk.read(pid)
        disk.write(pids[0], bytes(disk.page_size))
        snap = disk.stats.snapshot()
        assert snap.reads == 3 and snap.writes == 1 and snap.allocations == 3
        assert snap.total == 4

    def test_sequential_vs_random(self):
        stats = IOStats()
        for pid in (0, 1, 2):       # sequential after the first
            stats.record_read(pid)
        stats.record_read(9)        # random
        stats.record_read(10)       # sequential again
        snap = stats.snapshot()
        assert snap.reads == 5
        assert snap.random_reads == 2  # first read + the jump to 9
        assert snap.sequential_reads == 3

    def test_write_moves_the_disk_head(self):
        """Regression: writes used to leave the head at the last *read*,
        so a read contiguous with it was classified sequential even
        though the intervening write had seeked the arm away."""
        stats = IOStats()
        stats.record_read(1)    # random (first access)
        stats.record_write(50)  # head is now at page 50
        stats.record_read(2)    # contiguous with read 1, but a seek from 50
        assert stats.snapshot().random_reads == 2

    def test_read_after_contiguous_write_is_sequential(self):
        stats = IOStats()
        stats.record_write(7)
        stats.record_read(8)    # head sits at 7, so this is sequential
        snap = stats.snapshot()
        assert snap.reads == 1 and snap.random_reads == 0

    def test_reset_forgets_the_head(self):
        stats = IOStats()
        stats.record_read(5)
        stats.reset()
        stats.record_read(6)    # first access after reset: random again
        assert stats.snapshot().random_reads == 1

    def test_delta_and_subtraction(self):
        stats = IOStats()
        stats.record_read(0)
        before = stats.snapshot()
        stats.record_read(1)
        stats.record_write(1)
        delta = stats.delta(before)
        assert delta.reads == 1 and delta.writes == 1

    def test_weighted_cost(self):
        snap = IOSnapshot(reads=10, writes=5, random_reads=4)
        assert snap.weighted_cost() == 15.0
        assert snap.weighted_cost(random_penalty=10) == 6 + 5 + 40

    def test_reset(self):
        stats = IOStats()
        stats.record_read(0)
        stats.record_retry()
        stats.record_giveup()
        stats.reset()
        assert stats.snapshot() == IOSnapshot()

    def test_retry_and_giveup_counters(self):
        stats = IOStats()
        stats.record_retry()
        stats.record_retry()
        stats.record_giveup()
        snap = stats.snapshot()
        assert snap.retries == 2 and snap.giveups == 1
        delta = stats.delta(snap)
        assert delta.retries == 0 and delta.giveups == 0
        stats.record_retry()
        assert stats.delta(snap).retries == 1


class TestRecordCodec:
    def test_builtin_codecs(self):
        assert CODE.record_size == 8
        assert PAIR.record_size == 16
        assert TRIPLE.record_size == 24

    @given(st.lists(st.tuples(st.integers(0, 2**63), st.integers(0, 2**63)), max_size=50))
    @settings(max_examples=25)
    def test_pack_roundtrip(self, records):
        blob = PAIR.pack_fields([field for record in records for field in record])
        assert [
            PAIR.unpack(blob, index * PAIR.record_size)
            for index in range(len(records))
        ] == records

    def test_pack_into_offsets(self):
        buffer = bytearray(64)
        CODE.pack_into(buffer, 8, (99,))
        assert CODE.unpack(buffer, 8) == (99,)

    def test_zero_arity_rejected(self):
        with pytest.raises(ValueError):
            RecordCodec(0)


class TestPageLayout:
    def test_capacity(self):
        assert page_layout.page_capacity(1024, 8) == 127
        assert page_layout.page_capacity(1024, 16) == 63

    def test_record_too_big_rejected(self):
        with pytest.raises(ValueError):
            page_layout.page_capacity(64, 100)

    def test_count_and_link(self):
        data = bytearray(256)
        page_layout.set_record_count(data, 17)
        page_layout.set_next_page(data, 42)
        assert page_layout.get_record_count(data) == 17
        assert page_layout.get_next_page(data) == 42
        page_layout.set_next_page(data, None)
        assert page_layout.get_next_page(data) is None

    def test_read_record_array(self):
        data = bytearray(256)
        fields = [1, 2, 3, 4, 5, 6]
        start = page_layout.PAGE_HEADER_SIZE
        data[start : start + 3 * PAIR.record_size] = PAIR.pack_fields(fields)
        page_layout.set_record_count(data, 3)
        assert page_layout.read_record_array(data, PAIR).tolist() == fields
