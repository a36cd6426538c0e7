"""Record-at-a-time storage paths: the I/O oracle for the paged ones.

:class:`RecordHeapWriter` packs each record into its pinned output page
as it arrives, and :func:`merge_runs` merges sorted runs with
``heapq.merge`` over ``(doc-order key, code)`` pairs, one ``append``
per code.  The engine's :class:`~repro.storage.heapfile.HeapFileWriter`
(one ``pack_fields`` per page) and block merge must reproduce their
page ids, page bytes, I/O counters and buffer hits/misses exactly;
``tests/test_paged_io.py`` swaps these in and compares.
"""

from __future__ import annotations

import heapq
from typing import Iterator, Sequence

from repro.core import batch
from repro.storage import page as page_layout
from repro.storage.buffer import BufferManager
from repro.storage.heapfile import HeapFile
from repro.storage.record import RecordCodec

__all__ = ["RecordHeapWriter", "merge_runs"]


class RecordHeapWriter:
    """:class:`~repro.storage.heapfile.HeapFileWriter` packing per record."""

    def __init__(self, heap: HeapFile, resume: bool = False) -> None:
        self.heap = heap
        self._frame = None
        self._count = 0
        self._offset = page_layout.PAGE_HEADER_SIZE
        self._closed = False
        if resume and heap.page_ids:
            page_id = heap.page_ids[-1]
            frame = heap.bufmgr.pin(page_id)
            count = page_layout.get_record_count(frame.data)
            if count < heap.capacity:
                self._frame = frame
                self._count = count
                self._offset += count * heap.codec.record_size
            else:
                heap.bufmgr.unpin(page_id)

    def _start_page(self) -> None:
        heap = self.heap
        self._finish_page()
        self._frame = heap.bufmgr.new_page()
        if heap.page_ids:
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
        self._count = 0
        self._offset = page_layout.PAGE_HEADER_SIZE

    def append(self, record: Sequence[int]) -> None:
        if self._closed:
            raise ValueError("writer is closed")
        heap = self.heap
        if self._frame is None or self._count >= heap.capacity:
            self._start_page()
        heap.codec.pack_into(self._frame.data, self._offset, record)
        self._offset += heap.codec.record_size
        self._count += 1
        heap.num_records += 1

    def append_fields(self, fields: Sequence[int]) -> None:
        arity = self.heap.codec.arity
        if len(fields) % arity:
            raise ValueError(
                f"{len(fields)} fields are not whole records of {arity}"
            )
        for start in range(0, len(fields), arity):
            self.append(tuple(fields[start:start + arity]))

    def _finish_page(self) -> None:
        if self._frame is not None:
            page_layout.set_record_count(self._frame.data, self._count)
            page_layout.set_next_page(self._frame.data, None)
            self.heap.bufmgr.unpin(self._frame.page_id, dirty=True)
            self._frame = None

    def close(self) -> None:
        if not self._closed:
            self._finish_page()
            self._closed = True


def _decorated_scan(run: HeapFile) -> Iterator[tuple[int, int]]:
    """Scan a run as ``(doc-order key, code)`` pairs."""
    for codes in run.scan_page_arrays():
        yield from zip(batch.doc_order_keys(codes), codes)


def merge_runs(
    bufmgr: BufferManager,
    runs: Sequence[HeapFile],
    codec: RecordCodec,
    name: str,
) -> HeapFile:
    """``external_sort``'s ``_merge_runs``, one code at a time."""
    output = HeapFile(bufmgr, codec, name=f"{name}[merge]")
    writer = RecordHeapWriter(output)
    scans = [_decorated_scan(run) for run in runs]
    completed = False
    try:
        for _key, code in heapq.merge(*scans):
            writer.append((code,))
        completed = True
    finally:
        writer.close()
        if not completed:
            # a failed merge unpins its inputs and frees its output
            for scan in scans:
                scan.close()
            output.destroy()
    return output
