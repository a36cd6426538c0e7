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

import heapq
from typing import Callable, Iterator, Optional, Sequence

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
    in-memory run sort; ``bulk_key`` optionally replaces it in the merge
    passes (one kernel call per input page instead of one Python call
    per record).  Both must produce exactly the order ``key`` defines.
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
    for group_start in range(0, len(runs), fan_in):
        group = runs[group_start:group_start + fan_in]
        merged.append(_merge_runs(bufmgr, group, key, codec, name, bulk_key))
        for run in group:
            run.destroy()
    return merged


def _decorated_scan(
    run: HeapFile, bulk_key: BulkKeyFunc
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Scan a run as ``(key, record)`` pairs, keys computed per page."""
    for page in run.scan_pages():
        yield from zip(bulk_key(page), page)


def _merge_runs(
    bufmgr: BufferManager,
    runs: Sequence[HeapFile],
    key: KeyFunc,
    codec,
    name: str,
    bulk_key: Optional[BulkKeyFunc] = None,
) -> HeapFile:
    """k-way merge; one page of each run is resident at a time."""
    output = HeapFile(bufmgr, codec, name=f"{name}[merge]")
    writer = output.open_writer()
    try:
        if bulk_key is not None:
            # decorate page-at-a-time; equal keys fall back to record
            # comparison, which is fine (an integer bulk_key may only
            # tie on identical records)
            decorated = heapq.merge(
                *(_decorated_scan(run, bulk_key) for run in runs)
            )
            for _merge_key, record in decorated:
                writer.append(record)
        else:
            merged = heapq.merge(*(run.scan() for run in runs), key=key)
            for record in merged:
                writer.append(record)
    finally:
        # close even when a run scan faults, or the pinned output page
        # leaks and masks the fault during run cleanup
        writer.close()
    return output


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
