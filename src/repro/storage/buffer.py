"""Buffer pool: pin/unpin interface with LRU or clock replacement.

Models Minibase's buffer manager.  All operators access pages through
``pin``/``unpin``; a pin either hits the pool (no I/O) or faults the
page in from the :class:`DiskManager` (one read, plus one write if a
dirty victim is evicted).  The pool size ``num_pages`` is the ``b``
parameter in the paper's cost formulas.

The pool is also the system's fault-absorption layer: every disk read
and write goes through a bounded retry-with-backoff loop
(:class:`~repro.storage.faults.RetryPolicy`).  Transient faults —
injected I/O errors, torn transfers caught by page checksums — are
retried and surface only as ``retries`` in :class:`IOStats`; a fault
that survives the whole retry budget is escalated to a
:class:`~repro.storage.faults.PermanentIOError` carrying the page id
and operation, and counted as a ``giveup``.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Optional

from .disk import DiskManager, PageCorruptionError
from .faults import (
    DEFAULT_RETRY_POLICY,
    PermanentIOError,
    RetryPolicy,
    TransientIOError,
)

__all__ = [
    "BufferManager",
    "BufferPoolFullError",
    "BufferPoolExhaustedError",
    "Frame",
]


class BufferPoolFullError(RuntimeError):
    """Raised when every frame is pinned and a new page must be brought in."""


class BufferPoolExhaustedError(BufferPoolFullError):
    """Every frame is pinned: no replacement policy can find a victim.

    Raised identically by the LRU and clock paths so callers can handle
    pool exhaustion with one ``except`` clause; carries the pool size
    and the active policy for the error report.
    """

    def __init__(self, num_pages: int, policy: str) -> None:
        super().__init__(
            f"all {num_pages} buffer frames are pinned ({policy} policy)"
        )
        self.num_pages = num_pages
        self.policy = policy


class Frame:
    """One buffer frame: a mutable page image plus pin/dirty state."""

    __slots__ = ("page_id", "data", "pin_count", "dirty", "referenced")

    def __init__(self, page_id: int, data: bytearray) -> None:
        self.page_id = page_id
        self.data = data
        self.pin_count = 1
        self.dirty = False
        self.referenced = True


class BufferManager:
    """A fixed-size pool of page frames over a :class:`DiskManager`."""

    def __init__(
        self,
        disk: DiskManager,
        num_pages: int,
        policy: str = "lru",
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if num_pages < 1:
            raise ValueError("buffer pool needs at least one frame")
        if policy not in ("lru", "clock"):
            raise ValueError(f"unknown replacement policy {policy!r}")
        self.disk = disk
        self.num_pages = num_pages
        self.policy = policy
        self.retry = retry if retry is not None else DEFAULT_RETRY_POLICY
        # OrderedDict gives us LRU ordering for free; for clock we keep
        # a separate hand index over a stable list of page ids.
        self._frames: "OrderedDict[int, Frame]" = OrderedDict()
        self._clock_hand = 0
        self.hits = 0
        self.misses = 0
        #: template for zero-filling recycled frame buffers in one memcpy
        self._zero_page = bytes(disk.page_size)

    # ------------------------------------------------------------------
    # public interface
    # ------------------------------------------------------------------
    def pin(self, page_id: int) -> Frame:
        """Bring ``page_id`` into the pool (if absent) and pin it."""
        frame = self._frames.get(page_id)
        if frame is not None:
            frame.pin_count += 1
            self._hit(frame)
            return frame
        return self._load(page_id)

    def unpin(self, page_id: int, dirty: bool = False) -> None:
        """Release one pin; mark the frame dirty if the caller wrote it."""
        frame = self._frames.get(page_id)
        if frame is None or frame.pin_count <= 0:
            raise ValueError(f"page {page_id} is not pinned")
        frame.pin_count -= 1
        if dirty:
            frame.dirty = True

    def touch(self, page_id: int) -> None:
        """``pin`` + ``unpin`` in one call: one buffer access.

        What a decoded-page cache pays on a hit so its accounting stays
        that of a fresh decode: the same hit/miss count and replacement
        bookkeeping as the pair, and a miss really reads the page back
        in.
        """
        frame = self._frames.get(page_id)
        if frame is None:
            self._load(page_id).pin_count = 0
        else:
            self._hit(frame)

    def _load(self, page_id: int) -> Frame:
        """What a miss costs, for pin and touch: room for the page (a
        victim write-back), its read, and a frame pinned once."""
        self.misses += 1
        recycled = self._make_room()
        frame = Frame(page_id, self._read_with_retry(page_id, recycled))
        self._frames[page_id] = frame
        return frame

    def _hit(self, frame: Frame) -> None:
        """What a buffer hit costs: the count and the replacement
        bookkeeping (clock reference bit, LRU move), for pin and touch."""
        frame.referenced = True
        self.hits += 1
        if self.policy == "lru":
            self._frames.move_to_end(frame.page_id)

    def new_page(self) -> Frame:
        """Allocate a fresh page on disk and pin it (zero-filled, dirty).

        The initial contents are produced in the buffer, so no read I/O
        is charged; the write is charged on eviction or flush.  Room is
        made first, so a failed eviction allocates no page.
        """
        recycled = self._make_room()
        page_id = self.disk.allocate()
        if recycled is None:
            data = bytearray(self.disk.page_size)
        else:
            data = recycled
            data[:] = self._zero_page
        frame = Frame(page_id, data)
        frame.dirty = True
        self._frames[page_id] = frame
        return frame

    def flush_page(self, page_id: int) -> None:
        """Write the frame back if dirty (keeps it resident and pinned-state)."""
        frame = self._frames.get(page_id)
        if frame is not None and frame.dirty:
            self._write_with_retry(page_id, bytes(frame.data))
            frame.dirty = False

    def flush_all(self) -> None:
        """Write back every dirty frame."""
        for page_id in list(self._frames):
            self.flush_page(page_id)

    def evict_all(self) -> None:
        """Flush and drop every unpinned frame (used between operators)."""
        for page_id in list(self._frames):
            frame = self._frames[page_id]
            if frame.pin_count == 0:
                self.flush_page(page_id)
                del self._frames[page_id]
        self._clock_hand = 0

    def discard_page(self, page_id: int) -> None:
        """Drop a frame without write-back (for pages being deallocated)."""
        frame = self._frames.get(page_id)
        if frame is not None:
            if frame.pin_count > 0:
                raise ValueError(f"page {page_id} is pinned")
            del self._frames[page_id]

    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Fraction of pins served without disk I/O (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def num_pinned(self) -> int:
        return sum(1 for frame in self._frames.values() if frame.pin_count > 0)

    @property
    def num_resident(self) -> int:
        return len(self._frames)

    def is_resident(self, page_id: int) -> bool:
        return page_id in self._frames

    # ------------------------------------------------------------------
    # fault-tolerant disk access
    # ------------------------------------------------------------------
    def _read_with_retry(
        self, page_id: int, into: Optional[bytearray] = None
    ) -> bytearray:
        """Read a page into a frame buffer (one copy, recycled if given).

        ``into`` is the evicted victim's buffer when replacement freed
        one: the page image is copied into it by slice assignment — the
        load's only copy — instead of allocating a fresh ``bytearray``
        per miss.  The frame always owns a private mutable buffer; the
        disk's stored ``bytes`` are never aliased.
        """
        attempt = 1
        while True:
            try:
                data = self.disk.read(page_id)
            except PermanentIOError:
                self.disk.stats.record_giveup()
                raise
            except (TransientIOError, PageCorruptionError) as fault:
                attempt = self._next_attempt("read", page_id, attempt, fault)
                continue
            if into is None:
                return bytearray(data)
            into[:] = data
            return into

    def _write_with_retry(self, page_id: int, data: bytes) -> None:
        attempt = 1
        while True:
            try:
                self.disk.write(page_id, data)
                return
            except PermanentIOError:
                self.disk.stats.record_giveup()
                raise
            except TransientIOError as fault:
                attempt = self._next_attempt("write", page_id, attempt, fault)

    def _next_attempt(
        self, operation: str, page_id: int, attempt: int, fault: Exception
    ) -> int:
        """Account one transient fault; sleep the backoff or give up."""
        stats = self.disk.stats
        policy = self.retry
        if attempt >= policy.max_attempts:
            stats.record_giveup()
            raise PermanentIOError(
                f"{operation} of page {page_id} still failing after "
                f"{policy.max_attempts} attempts",
                page_id=page_id,
                operation=operation,
            ) from fault
        stats.record_retry()
        delay = policy.delay(attempt)
        if delay:
            time.sleep(delay)
        return attempt + 1

    # ------------------------------------------------------------------
    # replacement
    # ------------------------------------------------------------------
    def _make_room(self) -> Optional[bytearray]:
        """Evict a victim if the pool is full; hand back its buffer.

        The returned ``bytearray`` is recycled as the incoming frame's
        buffer, making a steady-state miss allocation-free (one slice-
        assignment copy of the page image, no fresh page-sized object).
        Every page decode copies out of its frame, so no reader holds a
        view of the buffer being reused.
        """
        if len(self._frames) < self.num_pages:
            return None
        victim = self._choose_victim()
        frame = self._frames[victim]
        if frame.dirty:
            self._write_with_retry(victim, bytes(frame.data))
        del self._frames[victim]
        return frame.data

    def _choose_victim(self) -> int:
        if self.policy == "lru":
            for page_id, frame in self._frames.items():
                if frame.pin_count == 0:
                    return page_id
            raise BufferPoolExhaustedError(self.num_pages, self.policy)
        return self._choose_victim_clock()

    def _choose_victim_clock(self) -> int:
        page_ids = list(self._frames)
        # Check exhaustion up front: with every frame pinned the sweeps
        # below would spin without ever yielding a victim, and an empty
        # pool would make the hand's modulo divide by zero.
        if not any(frame.pin_count == 0 for frame in self._frames.values()):
            raise BufferPoolExhaustedError(self.num_pages, self.policy)
        # Two sweeps: the first clears reference bits, the second takes
        # the first unpinned frame.
        for _ in range(2 * len(page_ids)):
            self._clock_hand %= len(page_ids)
            page_id = page_ids[self._clock_hand]
            frame = self._frames[page_id]
            self._clock_hand += 1
            if frame.pin_count > 0:
                continue
            if frame.referenced:
                frame.referenced = False
                continue
            return page_id
        # All unpinned frames had their bits cleared in sweep one; pick
        # the first unpinned one now (the up-front check guarantees one
        # exists).
        for page_id, frame in self._frames.items():
            if frame.pin_count == 0:
                return page_id
        raise BufferPoolExhaustedError(self.num_pages, self.policy)
