"""Tests for the buffer pool: pinning, replacement, write-back."""

import pytest

from repro.storage.buffer import (
    BufferManager,
    BufferPoolExhaustedError,
    BufferPoolFullError,
)
from repro.storage.disk import DiskManager
from repro.storage.faults import FaultInjector, PermanentIOError


def make_pool(frames=3, policy="lru"):
    disk = DiskManager(page_size=128)
    return disk, BufferManager(disk, frames, policy)


class TestPinning:
    def test_pin_faults_in_once(self):
        disk, pool = make_pool()
        pid = disk.allocate()
        pool.pin(pid)
        pool.unpin(pid)
        pool.pin(pid)
        pool.unpin(pid)
        assert disk.stats.reads == 1
        assert pool.hits == 1 and pool.misses == 1

    def test_unpin_unknown_rejected(self):
        _disk, pool = make_pool()
        with pytest.raises(ValueError):
            pool.unpin(5)

    def test_double_unpin_rejected(self):
        disk, pool = make_pool()
        pid = disk.allocate()
        pool.pin(pid)
        pool.unpin(pid)
        with pytest.raises(ValueError):
            pool.unpin(pid)

    def test_nested_pins(self):
        disk, pool = make_pool()
        pid = disk.allocate()
        pool.pin(pid)
        pool.pin(pid)
        assert pool.num_pinned == 1
        pool.unpin(pid)
        assert pool.num_pinned == 1  # still held once
        pool.unpin(pid)
        assert pool.num_pinned == 0


class TestNewPage:
    def test_new_page_charges_no_read(self):
        disk, pool = make_pool()
        frame = pool.new_page()
        pool.unpin(frame.page_id, dirty=True)
        assert disk.stats.reads == 0
        pool.flush_all()
        assert disk.stats.writes == 1

    def test_new_page_zero_filled_and_dirty(self):
        _disk, pool = make_pool()
        frame = pool.new_page()
        assert bytes(frame.data) == bytes(128)
        assert frame.dirty

    def test_failed_eviction_allocates_no_page(self):
        injector = FaultInjector(seed=0)
        disk = DiskManager(page_size=128, faults=injector)
        pool = BufferManager(disk, 1)
        frame = pool.new_page()
        pool.unpin(frame.page_id, dirty=True)
        injector.schedule("write-error", at=1, permanent=True)
        with pytest.raises(PermanentIOError):
            pool.new_page()  # evicting the dirty page fails
        assert disk.num_allocated == 1


class TestEviction:
    def test_dirty_victim_written_back(self):
        disk, pool = make_pool(frames=2)
        a = disk.allocate()
        b = disk.allocate()
        c = disk.allocate()
        frame = pool.pin(a)
        frame.data[0] = 0xAB
        pool.unpin(a, dirty=True)
        pool.pin(b); pool.unpin(b)
        pool.pin(c); pool.unpin(c)  # evicts a (LRU)
        assert disk.stats.writes == 1
        assert disk.read(a)[0] == 0xAB

    def test_clean_victim_not_written(self):
        disk, pool = make_pool(frames=1)
        a, b = disk.allocate(), disk.allocate()
        pool.pin(a); pool.unpin(a)
        pool.pin(b); pool.unpin(b)
        assert disk.stats.writes == 0

    def test_all_pinned_raises(self):
        disk, pool = make_pool(frames=2)
        pids = [disk.allocate() for _ in range(3)]
        pool.pin(pids[0])
        pool.pin(pids[1])
        with pytest.raises(BufferPoolFullError):
            pool.pin(pids[2])

    def test_lru_order(self):
        disk, pool = make_pool(frames=2)
        a, b, c = (disk.allocate() for _ in range(3))
        pool.pin(a); pool.unpin(a)
        pool.pin(b); pool.unpin(b)
        pool.pin(a); pool.unpin(a)  # a becomes most recent
        pool.pin(c); pool.unpin(c)  # should evict b, not a
        assert pool.is_resident(a) and not pool.is_resident(b)

    def test_clock_evicts_unreferenced(self):
        disk, pool = make_pool(frames=2, policy="clock")
        a, b, c = (disk.allocate() for _ in range(3))
        pool.pin(a); pool.unpin(a)
        pool.pin(b); pool.unpin(b)
        pool.pin(c); pool.unpin(c)  # one of a/b evicted, pool keeps working
        assert pool.num_resident == 2
        assert pool.is_resident(c)

    def test_clock_skips_pinned(self):
        disk, pool = make_pool(frames=2, policy="clock")
        a, b, c = (disk.allocate() for _ in range(3))
        pool.pin(a)                # stays pinned
        pool.pin(b); pool.unpin(b)
        pool.pin(c)                # must evict b
        assert pool.is_resident(a) and pool.is_resident(c)
        assert not pool.is_resident(b)


class TestPoolExhaustion:
    @pytest.mark.parametrize("policy", ["lru", "clock"])
    def test_all_pinned_raises_typed_error(self, policy):
        """Regression: the clock policy used to spin forever when every
        frame was pinned; both policies now fail with a typed error
        carrying the pool size and policy."""
        disk, pool = make_pool(frames=2, policy=policy)
        pids = [disk.allocate() for _ in range(3)]
        pool.pin(pids[0])
        pool.pin(pids[1])
        with pytest.raises(BufferPoolExhaustedError) as excinfo:
            pool.pin(pids[2])
        assert excinfo.value.num_pages == 2
        assert excinfo.value.policy == policy

    def test_exhaustion_is_a_pool_full_error(self):
        # existing `except BufferPoolFullError` handlers keep working
        assert issubclass(BufferPoolExhaustedError, BufferPoolFullError)

    @pytest.mark.parametrize("policy", ["lru", "clock"])
    def test_recovers_after_unpin(self, policy):
        disk, pool = make_pool(frames=2, policy=policy)
        pids = [disk.allocate() for _ in range(3)]
        pool.pin(pids[0])
        pool.pin(pids[1])
        with pytest.raises(BufferPoolExhaustedError):
            pool.pin(pids[2])
        pool.unpin(pids[0])
        pool.pin(pids[2])  # a free frame exists again
        assert pool.is_resident(pids[2])

    def test_hit_rate_property(self):
        disk, pool = make_pool()
        assert pool.hit_rate == 0.0
        pid = disk.allocate()
        pool.pin(pid); pool.unpin(pid)
        pool.pin(pid); pool.unpin(pid)
        assert pool.hit_rate == 0.5


class TestFlushing:
    def test_flush_all_clears_dirty(self):
        disk, pool = make_pool()
        frame = pool.new_page()
        pool.unpin(frame.page_id, dirty=True)
        pool.flush_all()
        pool.flush_all()  # second flush writes nothing
        assert disk.stats.writes == 1

    def test_evict_all_drops_unpinned_only(self):
        disk, pool = make_pool()
        a, b = disk.allocate(), disk.allocate()
        pool.pin(a)
        pool.pin(b); pool.unpin(b)
        pool.evict_all()
        assert pool.is_resident(a) and not pool.is_resident(b)
        pool.unpin(a)

    def test_discard_page(self):
        disk, pool = make_pool()
        frame = pool.new_page()
        pool.unpin(frame.page_id)
        pool.discard_page(frame.page_id)
        assert disk.stats.writes == 0  # dropped without write-back

    def test_discard_pinned_rejected(self):
        disk, pool = make_pool()
        frame = pool.new_page()
        with pytest.raises(ValueError):
            pool.discard_page(frame.page_id)
        pool.unpin(frame.page_id)


class TestValidation:
    def test_zero_frames_rejected(self):
        disk = DiskManager()
        with pytest.raises(ValueError):
            BufferManager(disk, 0)

    def test_unknown_policy_rejected(self):
        disk = DiskManager()
        with pytest.raises(ValueError):
            BufferManager(disk, 4, policy="fifo")
