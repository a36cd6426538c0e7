"""External merge sort of element sets into document order.

The cost of sorting two unsorted element sets on the fly is what the
paper charges the region-code algorithms with (Section 3.4.1 / 4): an
external sort of ``||R||`` pages with ``b`` buffer pages costs roughly
``2 * ||R|| * ceil(log_{b-1}(||R||/b) + 1)`` page transfers.  This
implementation:

* builds initial runs of ``b`` pages each (read ``b`` pages, sort in
  memory, write a run);
* merges up to ``b - 1`` runs at a time, one input page pinned per run
  plus one output page, until a single run remains.

It sorts plain ints: every code read off a page is decorated with its
invertible document-order key (:func:`repro.core.batch.doc_order_keys`),
the keys are sorted and merged, and the codes written back are read
off the keys (:func:`repro.core.batch.codes_of_doc_keys`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Any, Iterator, Optional, Sequence

from ..core import batch
from ..storage.buffer import BufferManager
from ..storage.elementset import ElementSet
from ..storage.heapfile import HeapFile
from ..storage.record import RecordCodec

__all__ = ["external_sort_set", "merge_cost_estimate"]


def external_sort_set(
    elements: ElementSet,
    buffer_pages: int | None = None,
    destroy_input: bool = False,
) -> ElementSet:
    """Sort an element set into document (start) order.

    This is the "custom sorting routine" of Section 3.1: codes are
    converted to region order on the fly inside the sort key.  Uses at
    most ``buffer_pages`` frames; with ``destroy_input`` the input heap
    (and each intermediate run) is deallocated as soon as it has been
    consumed.  The output holds the same codes, so it inherits the
    input's histogram.
    """
    heap = elements.heap
    bufmgr = heap.bufmgr
    budget = buffer_pages if buffer_pages is not None else bufmgr.num_pages
    budget = min(budget, bufmgr.num_pages)
    if budget < 3:
        raise ValueError("external sort needs at least 3 buffer pages")

    runs = _build_runs(heap, budget)
    if destroy_input:
        heap.destroy()
    fan_in = budget - 1
    while len(runs) > 1:
        runs = _merge_pass(bufmgr, runs, fan_in, heap.codec, heap.name)
    if runs:
        result = runs[0]
        result.name = f"{heap.name}[sorted]"
    else:
        result = HeapFile(bufmgr, heap.codec, name=f"{heap.name}[sorted]")
    return ElementSet(
        result,
        elements.histogram.copy(),
        name=f"{elements.name}[sorted]",
        sorted_by="start",
    )


def _build_runs(heap: HeapFile, budget: int) -> list[HeapFile]:
    """Read ``budget`` pages at a time, sort their codes, write runs."""
    runs: list[HeapFile] = []
    codes: "array[int]" = array("Q")
    pages_in_memory = 0
    try:
        for page in heap.scan_page_arrays():
            codes += page
            pages_in_memory += 1
            if pages_in_memory >= budget:
                runs.append(_write_run(heap, codes, len(runs)))
                codes = array("Q")
                pages_in_memory = 0
        if codes:
            runs.append(_write_run(heap, codes, len(runs)))
    except BaseException:
        for run in runs:
            run.destroy()
        raise
    return runs


def _write_run(heap: HeapFile, codes: "array[int]", run_index: int) -> HeapFile:
    return HeapFile.from_fields(
        heap.bufmgr,
        heap.codec,
        batch.sort_doc_order(codes),
        name=f"{heap.name}[run{run_index}]",
    )


def _merge_pass(
    bufmgr: BufferManager,
    runs: list[HeapFile],
    fan_in: int,
    codec: RecordCodec,
    name: str,
) -> list[HeapFile]:
    merged: list[HeapFile] = []
    try:
        for group_start in range(0, len(runs), fan_in):
            group = runs[group_start:group_start + fan_in]
            merged.append(_merge_runs(bufmgr, group, codec, name))
            for run in group:
                run.destroy()
    except BaseException:
        for run in runs + merged:  # a destroyed run is empty
            run.destroy()
        raise
    return merged


def _merge_runs(
    bufmgr: BufferManager,
    runs: Sequence[HeapFile],
    codec: RecordCodec,
    name: str,
) -> HeapFile:
    """k-way block merge; one page of each run is resident at a time.

    Each step finds the current page whose last key comes first (ties:
    the lowest run) — the page a record-at-a-time merge exhausts next —
    writes every buffered code ordered up to that key with one
    ``append_fields``, then reads that run's next page.  Equal keys
    are equal codes, so the order within a step is the sorted keys',
    and output rolls and input reads interleave exactly as in a
    record-at-a-time merge.
    """
    output = HeapFile(bufmgr, codec, name=f"{name}[merge]")
    writer = output.open_writer()
    scans = [run.scan_page_arrays() for run in runs]
    try:
        # per live run, in run order: its scan, its current page's
        # keys and the next unmerged position
        heads: list[list[Any]] = []
        for scan in scans:
            keys = _next_page_keys(scan)
            if keys is not None:
                heads.append([scan, keys, 0])
        while heads:
            lasts = [head[1][-1] for head in heads]
            owner = lasts.index(min(lasts))
            bound = lasts[owner]
            step: list[int] = []
            segments = 0
            for index, head in enumerate(heads):
                _scan, page_keys, position = head
                if index < owner:
                    cut = bisect_right(page_keys, bound, position)
                elif index > owner:
                    cut = bisect_left(page_keys, bound, position)
                else:
                    cut = len(page_keys)
                if cut > position:
                    step += page_keys[position:cut]
                    head[2] = cut
                    segments += 1
            if segments > 1:
                step.sort()
            writer.append_fields(batch.codes_of_doc_keys(step))
            head = heads[owner]
            keys = _next_page_keys(head[0])
            if keys is None:
                del heads[owner]
            else:
                head[1:] = [keys, 0]
    except BaseException:
        # close even when a run scan faults, or the pinned output page
        # leaks and masks the fault during run cleanup; then free the
        # partial output
        try:
            writer.close()
        finally:
            for scan in scans:
                scan.close()
            output.destroy()
        raise
    writer.close()
    return output


def _next_page_keys(scan: Iterator[Sequence[int]]) -> Optional[list[int]]:
    """The keys of the run's next non-empty page (the previous one is
    unpinned)."""
    for page in scan:
        if page:
            return batch.doc_order_keys(page)
    return None


def merge_cost_estimate(num_pages: int, buffer_pages: int) -> int:
    """Analytic page-I/O cost of externally sorting ``num_pages`` pages.

    ``2 * N * (#passes)`` with ``#passes = 1 + ceil(log_{b-1}(N/b))`` —
    the quantity the paper's Section 3.4.1 compares against the
    ``3(||A|| + ||D||)`` cost of the partitioning joins.
    """
    if num_pages <= 0:
        return 0
    passes = 1
    runs = -(-num_pages // buffer_pages)  # ceil division
    fan_in = max(buffer_pages - 1, 2)
    while runs > 1:
        runs = -(-runs // fan_in)
        passes += 1
    return 2 * num_pages * passes
