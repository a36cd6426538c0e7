"""Simulated disk: fixed-size pages, every transfer counted.

Stands in for Minibase's raw-disk storage manager.  Pages live in a
dict; what matters for the reproduction is not persistence but that
*every* page read and write is observable through :class:`IOStats`,
because the paper compares algorithms by disk I/O.  Optional page
checksums detect torn/corrupted pages on read (see
:mod:`repro.storage.persist` for on-disk images), and an optional
:class:`~repro.storage.faults.FaultInjector` makes the disk misbehave
deterministically for chaos testing.
"""

from __future__ import annotations

import zlib
from typing import Callable, Optional

from .faults import FaultInjector, StorageFault
from .stats import IOStats

#: live page-transfer callback: ``observer(operation, page_id)`` with
#: operation one of ``"read"`` / ``"write"`` / ``"allocate"``
IOObserver = Callable[[str, int], None]

__all__ = [
    "DiskManager",
    "DEFAULT_PAGE_SIZE",
    "IOObserver",
    "PageNotAllocatedError",
    "PageCorruptionError",
]

DEFAULT_PAGE_SIZE = 1024


class PageNotAllocatedError(KeyError):
    """Raised when touching a page that was never allocated (or was freed).

    Carries the ``page_id`` and the ``operation`` that tripped over it.
    """

    def __init__(self, page_id: int, operation: str = "access") -> None:
        super().__init__(page_id)
        self.page_id = page_id
        self.operation = operation

    def __str__(self) -> str:
        return f"page {self.page_id} not allocated (operation: {self.operation})"


class PageCorruptionError(StorageFault):
    """Raised when a checksummed page fails verification on read.

    A :class:`~repro.storage.faults.StorageFault` subclass, so it carries
    the page id and operation; ``expected_crc``/``actual_crc`` record the
    mismatch.  Marked transient because a torn in-flight transfer (the
    fault injector's model) clears on re-read; corruption of the stored
    page itself exhausts the buffer pool's retries and escalates to
    :class:`~repro.storage.faults.PermanentIOError`.
    """

    def __init__(
        self,
        page_id: int,
        operation: str = "read",
        expected_crc: Optional[int] = None,
        actual_crc: Optional[int] = None,
    ) -> None:
        super().__init__(
            f"page {page_id} failed checksum verification "
            f"(expected {expected_crc}, got {actual_crc})",
            page_id=page_id,
            operation=operation,
            transient=True,
        )
        self.expected_crc = expected_crc
        self.actual_crc = actual_crc


class DiskManager:
    """A page-addressed simulated disk with I/O accounting."""

    def __init__(
        self,
        page_size: int = DEFAULT_PAGE_SIZE,
        checksums: bool = False,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        if page_size < 64:
            raise ValueError("page size must be at least 64 bytes")
        self.page_size = page_size
        self.checksums = checksums
        self.stats = IOStats()
        self._pages: dict[int, bytes] = {}
        self._checksums: dict[int, int] = {}
        self._next_page_id = 0
        self.faults: Optional[FaultInjector] = None
        self._observer: Optional[IOObserver] = None
        if faults is not None:
            self.set_faults(faults)

    # ------------------------------------------------------------------
    def set_faults(self, faults: Optional[FaultInjector]) -> None:
        """Attach (or detach, with ``None``) a fault injector.

        Torn-page injection is only detectable with checksums, so a
        tearing injector on an unchecksummed disk is a configuration
        error, refused up front.
        """
        if faults is not None and faults.tears_pages and not self.checksums:
            raise ValueError(
                "torn-page injection requires checksums=True — without "
                "them corruption would be returned silently"
            )
        self.faults = faults

    def set_observer(self, observer: Optional[IOObserver]) -> None:
        """Attach (or detach, with ``None``) a live page-transfer observer.

        The observer is called after the corresponding :class:`IOStats`
        counter is bumped — it sees exactly the transfers the stats
        count.  One is used by
        :meth:`repro.obs.metrics.MetricsRegistry.attach_disk` for
        per-operation counters and the seek-distance histogram; the cost
        when detached is a single ``None`` check per transfer.
        """
        self._observer = observer

    # ------------------------------------------------------------------
    def allocate(self, count: int = 1) -> int:
        """Allocate ``count`` contiguous pages; return the first page id."""
        if count < 1:
            raise ValueError("must allocate at least one page")
        zero = bytes(self.page_size)
        zero_crc = zlib.crc32(zero) if self.checksums else 0
        first = self._next_page_id
        self._next_page_id = first + count
        for page_id in range(first, first + count):
            self._pages[page_id] = zero
            if self.checksums:
                self._checksums[page_id] = zero_crc
            self.stats.record_allocation()
            if self._observer is not None:
                self._observer("allocate", page_id)
        return first

    def deallocate(self, page_id: int) -> None:
        """Free one page (no I/O is charged, matching Minibase)."""
        if page_id not in self._pages:
            raise PageNotAllocatedError(page_id, "deallocate")
        del self._pages[page_id]
        self._checksums.pop(page_id, None)

    def read(self, page_id: int) -> bytes:
        """Read one page, charging one (possibly random) page read.

        An attached fault injector may raise a transient/permanent I/O
        error or tear (corrupt) the returned bytes.  With checksums
        enabled, the page is verified against the CRC recorded at write
        time; mismatch raises :class:`PageCorruptionError` instead of
        silently returning corrupt data.
        """
        try:
            data = self._pages[page_id]
        except KeyError:
            raise PageNotAllocatedError(page_id, "read") from None
        faults = self.faults
        if faults is not None:
            faults.on_read(page_id)
            torn = faults.filter_read(page_id, data)
            if torn is not data:
                if not self.checksums:
                    raise ValueError(
                        "torn-page injection requires checksums=True"
                    )
                data = torn
        if self.checksums:
            actual = zlib.crc32(data)
            expected = self._checksums.get(page_id)
            if actual != expected:
                raise PageCorruptionError(
                    page_id, "read", expected_crc=expected, actual_crc=actual
                )
        self.stats.record_read(page_id)
        if self._observer is not None:
            self._observer("read", page_id)
        return data

    def write(self, page_id: int, data: bytes) -> None:
        """Write one page, charging one page write."""
        if page_id not in self._pages:
            raise PageNotAllocatedError(page_id, "write")
        if len(data) != self.page_size:
            raise ValueError(
                f"page data must be exactly {self.page_size} bytes, got {len(data)}"
            )
        if self.faults is not None:
            self.faults.on_write(page_id)
        stored = bytes(data)
        self._pages[page_id] = stored
        if self.checksums:
            self._checksums[page_id] = zlib.crc32(stored)
        self.stats.record_write(page_id)
        if self._observer is not None:
            self._observer("write", page_id)

    # ------------------------------------------------------------------
    @property
    def num_allocated(self) -> int:
        return len(self._pages)

    def is_allocated(self, page_id: int) -> bool:
        return page_id in self._pages
