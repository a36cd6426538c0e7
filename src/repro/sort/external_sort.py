"""External merge sort over heap files.

The cost of sorting two unsorted element sets on the fly is what the
paper charges the region-code algorithms with (Section 3.4.1 / 4): an
external sort of ``||R||`` pages with ``b`` buffer pages costs roughly
``2 * ||R|| * ceil(log_{b-1}(||R||/b) + 1)`` page transfers.  This
implementation:

* builds initial runs of ``b`` pages each (read ``b`` pages, sort in
  memory, write a run);
* merges up to ``b - 1`` runs at a time, one input page pinned per run
  plus one output page, until a single run remains.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Callable, Iterator, Optional, Sequence

from ..core import batch, pbitree
from ..storage.buffer import BufferManager
from ..storage.elementset import ElementSet
from ..storage.heapfile import HeapFile

__all__ = [
    "bulk_doc_order_keys",
    "external_sort",
    "external_sort_set",
    "merge_cost_estimate",
    "sort_codes_doc_order",
]

KeyFunc = Callable[[tuple[int, ...]], object]
#: in-place-equivalent run sorter: takes the buffered records, returns
#: them sorted by the same order ``key`` defines
RunSortFunc = Callable[[list[tuple[int, ...]]], list[tuple[int, ...]]]
#: page-at-a-time merge keys: takes one page of records, returns one
#: order-equivalent integer key per record
BulkKeyFunc = Callable[[list[tuple[int, ...]]], list[int]]


def sort_codes_doc_order(
    records: list[tuple[int, ...]],
) -> list[tuple[int, ...]]:
    """Run sorter for single-code records in document order.

    Decorate-sort-undecorate through the packed doc-order key (one
    kernel call) instead of a Python ``key`` callback per record.  The
    packed key orders and ties exactly like ``doc_order_key`` tuples,
    so runs come out identical to the scalar sort's.
    """
    return [(c,) for c in batch.sort_doc_order([r[0] for r in records])]


def bulk_doc_order_keys(records: list[tuple[int, ...]]) -> list[int]:
    """Bulk merge keys for single-code records in document order."""
    return batch.doc_order_keys([record[0] for record in records])


def external_sort(
    heap: HeapFile,
    key: KeyFunc,
    buffer_pages: int | None = None,
    destroy_input: bool = False,
    run_sort: Optional[RunSortFunc] = None,
    bulk_key: Optional[BulkKeyFunc] = None,
) -> HeapFile:
    """Sort ``heap`` by ``key`` using at most ``buffer_pages`` frames.

    Returns a new heap file holding the sorted records.  When
    ``destroy_input`` is set, the input file (and intermediate runs) are
    deallocated as soon as they have been consumed.  ``run_sort``
    optionally replaces the per-record ``key`` callback for the initial
    in-memory run sort; ``bulk_key`` optionally replaces the merge
    passes' per-page ``key`` map (one kernel call per input page).  Both
    must produce exactly the order ``key`` defines.
    """
    bufmgr = heap.bufmgr
    budget = buffer_pages if buffer_pages is not None else bufmgr.num_pages
    budget = min(budget, bufmgr.num_pages)
    if budget < 3:
        raise ValueError("external sort needs at least 3 buffer pages")

    runs = _build_runs(heap, key, budget, run_sort)
    if destroy_input:
        heap.destroy()
    fan_in = budget - 1
    while len(runs) > 1:
        runs = _merge_pass(
            bufmgr, runs, key, fan_in, heap.codec, heap.name, bulk_key
        )
    if not runs:
        return HeapFile(bufmgr, heap.codec, name=f"{heap.name}[sorted]")
    result = runs[0]
    result.name = f"{heap.name}[sorted]"
    return result


def _build_runs(
    heap: HeapFile,
    key: KeyFunc,
    budget: int,
    run_sort: Optional[RunSortFunc] = None,
) -> list[HeapFile]:
    """Read ``budget`` pages at a time, sort in memory, write runs."""
    bufmgr = heap.bufmgr
    runs: list[HeapFile] = []
    buffered: list[tuple[int, ...]] = []
    pages_in_memory = 0
    try:
        for records in heap.scan_pages():
            buffered.extend(records)
            pages_in_memory += 1
            if pages_in_memory >= budget:
                runs.append(
                    _write_run(bufmgr, heap, buffered, key, len(runs), run_sort)
                )
                buffered = []
                pages_in_memory = 0
        if buffered:
            runs.append(
                _write_run(bufmgr, heap, buffered, key, len(runs), run_sort)
            )
    except BaseException:
        for run in runs:
            run.destroy()
        raise
    return runs


def _write_run(
    bufmgr: BufferManager,
    heap: HeapFile,
    records: list[tuple[int, ...]],
    key: KeyFunc,
    run_index: int,
    run_sort: Optional[RunSortFunc] = None,
) -> HeapFile:
    if run_sort is not None:
        records = run_sort(records)
    else:
        records.sort(key=key)
    return HeapFile.from_records(
        bufmgr, heap.codec, records, name=f"{heap.name}[run{run_index}]"
    )


def _merge_pass(
    bufmgr: BufferManager,
    runs: list[HeapFile],
    key: KeyFunc,
    fan_in: int,
    codec,
    name: str,
    bulk_key: Optional[BulkKeyFunc] = None,
) -> list[HeapFile]:
    merged: list[HeapFile] = []
    try:
        for group_start in range(0, len(runs), fan_in):
            group = runs[group_start:group_start + fan_in]
            merged.append(
                _merge_runs(bufmgr, group, key, codec, name, bulk_key)
            )
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
    key: KeyFunc,
    codec,
    name: str,
    bulk_key: Optional[BulkKeyFunc] = None,
) -> HeapFile:
    """k-way block merge; one page of each run is resident at a time.

    Each step finds the current page whose last key comes first (ties:
    the lowest run) — the page a record-at-a-time merge exhausts next —
    writes every buffered record ordered up to that key with one
    ``append_many``, then reads that run's next page.  Records leave in
    (key, run, position) order, so equal keys keep their run order,
    and output rolls and input reads interleave exactly as in a
    record-at-a-time merge.
    """
    keys_of = bulk_key or (lambda page: list(map(key, page)))
    output = HeapFile(bufmgr, codec, name=f"{name}[merge]")
    writer = output.open_writer()
    scans = [run.scan_pages() for run in runs]
    try:
        # per live run, in run order: its scan, current page, the
        # page's keys and the next unmerged position
        heads: list[list[Any]] = []
        for scan in scans:
            page = _next_page(scan)
            if page is not None:
                heads.append([scan, page, keys_of(page), 0])
        while heads:
            lasts = [head[2][-1] for head in heads]
            owner = lasts.index(min(lasts))
            bound = lasts[owner]
            records: list[tuple[int, ...]] = []
            keys: list[Any] = []
            segments = 0
            for index, head in enumerate(heads):
                _scan, page, page_keys, position = head
                if index < owner:
                    cut = bisect_right(page_keys, bound, position)
                elif index > owner:
                    cut = bisect_left(page_keys, bound, position)
                else:
                    cut = len(page_keys)
                if cut > position:
                    records.extend(page[position:cut])
                    keys.extend(page_keys[position:cut])
                    head[3] = cut
                    segments += 1
            if segments > 1:
                # stable: equal keys stay in run, then position, order
                order = sorted(range(len(keys)), key=keys.__getitem__)
                records = [records[i] for i in order]
            writer.append_many(records)
            head = heads[owner]
            page = _next_page(head[0])
            if page is None:
                del heads[owner]
            else:
                head[1:] = [page, keys_of(page), 0]
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


def _next_page(
    scan: Iterator[list[tuple[int, ...]]],
) -> Optional[list[tuple[int, ...]]]:
    """The run's next non-empty page (the previous one is unpinned)."""
    for page in scan:
        if page:
            return page
    return None


def external_sort_set(
    elements: ElementSet,
    buffer_pages: int | None = None,
    destroy_input: bool = False,
) -> ElementSet:
    """Sort an element set into document (start) order.

    This is the "custom sorting routine" of Section 3.1: codes are
    converted to region order on the fly inside the sort key.  The
    output holds the same codes, so it inherits the input's histogram.
    Runs are sorted and merged through the packed doc-order kernels.
    """
    sorted_heap = external_sort(
        elements.heap,
        key=lambda record: pbitree.doc_order_key(record[0]),
        buffer_pages=buffer_pages,
        destroy_input=destroy_input,
        run_sort=sort_codes_doc_order,
        bulk_key=bulk_doc_order_keys,
    )
    return ElementSet(
        sorted_heap,
        elements.histogram.copy(),
        name=f"{elements.name}[sorted]",
        sorted_by="start",
    )


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
