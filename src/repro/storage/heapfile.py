"""Heap files: unordered sequences of fixed-size records on pages.

A :class:`HeapFile` is the storage representation of every element set,
sort run and partition in this system.  Pages are chained (and, when
written in one go, disk-contiguous so scans count as sequential reads).
All access goes through the buffer manager, one pinned page at a time.
"""

from __future__ import annotations

import struct
from array import array
from typing import Callable, Iterator, Optional, Sequence

from . import page as page_layout
from .buffer import BufferManager
from .faults import StorageFault
from .record import RecordCodec

__all__ = ["HeapFile", "HeapFileWriter"]


class HeapFile:
    """A chain of record pages holding fixed-size records."""

    def __init__(
        self,
        bufmgr: BufferManager,
        codec: RecordCodec,
        name: str = "",
    ) -> None:
        self.bufmgr = bufmgr
        self.codec = codec
        self.name = name
        self.page_ids: list[int] = []
        self.num_records = 0
        self.capacity = page_layout.page_capacity(
            bufmgr.disk.page_size, codec.record_size
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_fields(
        cls,
        bufmgr: BufferManager,
        codec: RecordCodec,
        fields: Sequence[int],
        name: str = "",
    ) -> "HeapFile":
        """Materialise records given as one flat field sequence
        (``codec.arity`` fields per record) into a new heap file
        (charged as writes).

        If writing faults (e.g. an injected storage fault evicting a
        dirty page), the partially written heap is destroyed before the
        error propagates: the caller never learns this heap existed, so
        it must not leak.
        """
        return cls._build(
            bufmgr, codec, name, lambda writer: writer.append_fields(fields)
        )

    @classmethod
    def _build(
        cls,
        bufmgr: BufferManager,
        codec: RecordCodec,
        name: str,
        fill: Callable[["HeapFileWriter"], None],
    ) -> "HeapFile":
        heap = cls(bufmgr, codec, name)
        writer = heap.open_writer()
        try:
            fill(writer)
        except BaseException:
            writer.close()
            heap.destroy()
            raise
        writer.close()
        return heap

    def open_writer(self, resume: bool = False) -> "HeapFileWriter":
        """An appender holding one pinned output page.

        With ``resume=True`` the writer continues filling the last page
        of the file if it has room (partition scatter re-opens bucket
        writers evicted under buffer pressure this way, so a bucket
        never fragments into per-eviction files).
        """
        return HeapFileWriter(self, resume=resume)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def num_pages(self) -> int:
        return len(self.page_ids)

    def __len__(self) -> int:
        return self.num_records

    def scan_page_arrays(self) -> Iterator["array[int]"]:
        """Yield each page's flat field array in order.

        Each array is owned (one memcpy out of the frame), so it may be
        kept past the scan.  The pin on a page is held until the
        consumer asks for the next one.  A storage fault aborts the
        scan (annotated with the file name); it never yields a
        truncated tail silently.
        """
        bufmgr = self.bufmgr
        codec = self.codec
        for position, page_id in enumerate(self.page_ids):
            try:
                frame = bufmgr.pin(page_id)
            except StorageFault as fault:
                fault.add_context(
                    f"heap file {self.name!r} page {position}/{self.num_pages}"
                )
                raise
            try:
                yield page_layout.read_record_array(frame.data, codec)
            finally:
                bufmgr.unpin(page_id)

    def read_page_array(self, index: int) -> "array[int]":
        """One page's flat field array by position (owned, like the
        scan's)."""
        page_id = self.page_ids[index]
        try:
            frame = self.bufmgr.pin(page_id)
        except StorageFault as fault:
            fault.add_context(f"heap file {self.name!r} page {index}")
            raise
        try:
            return page_layout.read_record_array(frame.data, self.codec)
        finally:
            self.bufmgr.unpin(page_id)

    # ------------------------------------------------------------------
    def destroy(self) -> None:
        """Drop all pages (no I/O charged for deallocation)."""
        for page_id in self.page_ids:
            if self.bufmgr.is_resident(page_id):
                frame = self.bufmgr._frames[page_id]
                frame.dirty = False  # content is garbage now
                self.bufmgr.discard_page(page_id)
            self.bufmgr.disk.deallocate(page_id)
        self.page_ids.clear()
        self.num_records = 0

    def __repr__(self) -> str:
        return (
            f"<HeapFile {self.name!r} records={self.num_records} "
            f"pages={self.num_pages}>"
        )


class HeapFileWriter:
    """Appender that keeps exactly one output page pinned.

    Records collect as flat fields in a pending list and are packed
    into the pinned frame once per page, by one
    :meth:`RecordCodec.pack_fields`, when the page rolls or the writer
    closes.  Records arrive one at a time (:meth:`append`) or as one
    flat field sequence (:meth:`append_fields`); a record of the wrong
    arity fails the pack of its page with ``struct.error``, even where
    the page's field count adds up.  The pin, roll, link and write
    sequence is that of packing each record on arrival, and so are the
    pages: the frame stays pinned from the page's first record to its
    roll, so no eviction writes it early.  (An explicit ``flush_all``
    while a writer is open writes the page without its pending
    records; the roll's dirty unpin writes it again, complete.)
    """

    def __init__(self, heap: HeapFile, resume: bool = False) -> None:
        self.heap = heap
        self._frame = None
        self._count = 0
        self._offset = page_layout.PAGE_HEADER_SIZE
        #: fields of the current page's records not yet packed into
        #: its frame, and how many records the frame already holds
        self._pending: list[int] = []
        self._packed = 0
        #: the first record of the current page with the wrong arity
        self._malformed: Optional[Sequence[int]] = None
        self._arity = heap.codec.arity
        self._closed = False
        if resume and heap.page_ids:
            page_id = heap.page_ids[-1]
            frame = heap.bufmgr.pin(page_id)
            adopted = False
            try:
                count = page_layout.get_record_count(frame.data)
                if count < heap.capacity:
                    self._frame = frame
                    self._count = self._packed = count
                    self._offset = (
                        page_layout.PAGE_HEADER_SIZE
                        + count * heap.codec.record_size
                    )
                    adopted = True
            finally:
                # the frame either became self._frame (released by
                # close/_finish_page) or must go back now — including
                # when reading the count itself faults
                if not adopted:
                    heap.bufmgr.unpin(page_id)

    def _start_page(self) -> None:
        """Roll to a fresh output page, linking the previous one."""
        heap = self.heap
        self._finish_page()
        self._frame = heap.bufmgr.new_page()
        if heap.page_ids:
            # link previous page to this one for self-description
            prev = heap.page_ids[-1]
            if heap.bufmgr.is_resident(prev):
                prev_frame = heap.bufmgr.pin(prev)
                try:
                    page_layout.set_next_page(
                        prev_frame.data, self._frame.page_id
                    )
                finally:
                    heap.bufmgr.unpin(prev, dirty=True)
        heap.page_ids.append(self._frame.page_id)
        self._count = self._packed = 0
        self._offset = page_layout.PAGE_HEADER_SIZE

    def append(self, record: Sequence[int]) -> None:
        if self._closed:
            raise ValueError("writer is closed")
        if self._frame is None or self._count >= self.heap.capacity:
            self._start_page()
        if len(record) != self._arity and self._malformed is None:
            self._malformed = record
        self._pending.extend(record)
        self._count += 1
        self.heap.num_records += 1

    def append_fields(self, fields: Sequence[int]) -> None:
        """Append records given as one flat field sequence, ``arity``
        fields per record; identical to :meth:`append` of each record
        they spell."""
        arity = self._arity
        total, rest = divmod(len(fields), arity)
        if rest:
            raise ValueError(
                f"{len(fields)} fields are not whole records of {arity}"
            )
        self._fill(
            total,
            lambda start, stop: self._pending.extend(
                fields[start * arity : stop * arity]
            ),
        )

    def _fill(self, total: int, take: Callable[[int, int], None]) -> None:
        """Append ``total`` records, one page at a time: ``take(start,
        stop)`` moves records ``[start, stop)`` into the pending list."""
        if self._closed:
            raise ValueError("writer is closed")
        heap = self.heap
        capacity = heap.capacity
        position = 0
        while position < total:
            if self._frame is None or self._count >= capacity:
                self._start_page()
            fit = min(capacity - self._count, total - position)
            take(position, position + fit)
            self._count += fit
            heap.num_records += fit
            position += fit

    def _finish_page(self) -> None:
        frame = self._frame
        if frame is None:
            return
        self._frame = None
        pending, self._pending = self._pending, []
        malformed, self._malformed = self._malformed, None
        count = self._count
        try:
            if count > self._packed:
                try:
                    if malformed is not None:
                        raise struct.error(
                            f"record {tuple(malformed)!r} has "
                            f"{len(malformed)} fields, expected {self._arity}"
                        )
                    payload = self.heap.codec.pack_fields(pending)
                except BaseException:
                    # a record that does not pack drops the page's
                    # pending records: the page and num_records keep
                    # what the heap held before them
                    self.heap.num_records -= count - self._packed
                    count = self._packed
                    raise
                frame.data[self._offset : self._offset + len(payload)] = payload
        finally:
            page_layout.set_record_count(frame.data, count)
            page_layout.set_next_page(frame.data, None)
            self.heap.bufmgr.unpin(frame.page_id, dirty=True)

    def close(self) -> None:
        if not self._closed:
            self._finish_page()
            self._closed = True

    def __enter__(self) -> "HeapFileWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
