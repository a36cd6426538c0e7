"""Paged static interval tree for stabbing queries over regions.

The paper's INLJN probes the *ancestor* set with a descendant's
``Start`` point: report every ancestor region containing the point.
The paper notes compound-key B+-trees cause many unnecessary node
accesses here and proposes a disk-based interval tree [7]; this module
provides a static (bulk-built) Edelsbrunner interval tree whose node
directory and interval lists live on buffer-managed pages.

The engine's INLJN does not probe it: ``F(d, h)`` point lookups on a
Start B+-tree find the same ancestors (:mod:`repro.join.inljn`).  The
tree stays in the package because the perf ledger
(``benchmarks/ledger/lineup.py``) times its build and stab probes, and
ablation A6 (``benchmarks/bench_ablation_probe.py``) runs the
paper-faithful INLJN over it.

Structure: a balanced binary tree over midpoints of the region
endpoints.  Each tree node stores the intervals containing its midpoint
twice — once sorted by ascending ``start`` (scanned when the query point
lies left of the midpoint) and once by descending ``end`` (scanned when
it lies right).  A stabbing query costs ``O(log n)`` node-page accesses
plus the pages of the reported list prefixes.

Probes run over decoded columns: each node-directory page is decoded
once into its node tuples, each interval-list page once into
``(start, end, payload)`` list columns (one ``memcpy`` out of the pin,
then three extended slices), and a list prefix is cut with one binary
search per page — ``bisect_right`` over the ascending start column, a
descending-order cut over the end column — instead of a tuple decode
and comparison per stored interval.  A cached page still costs one
real buffer access (a ``touch``), and an evicted one is re-read
from disk, so a probe's I/O and buffer accounting is that of decoding
every visited page afresh.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from itertools import chain
from operator import itemgetter
from typing import Iterator, Sequence, cast

from ..core.pbitree import PBiCode, RegionCode
from ..storage.buffer import BufferManager
from ..storage.faults import StorageFault
from ..storage.heapfile import HeapFile
from ..storage.record import TRIPLE

__all__ = ["IntervalTree", "Interval"]

#: one stored interval: region start, region end, element code
Interval = tuple[RegionCode, RegionCode, PBiCode]

# node record: midpoint, left child, right child, left-list slice,
# right-list slice (slices into the interval heap file, in records)
_NODE = struct.Struct("<QiiIIII")
_NO_CHILD = -1
_NODE_HEADER = 8  # reuse record-page header layout: count + reserved

#: one interval-list page decoded: start, end and payload columns
_Columns = tuple[list[int], list[int], list[int]]


def _descending_cut(ends: list[int], point: int, lo: int, hi: int) -> int:
    """First index in ``[lo, hi)`` with ``ends[i] < point`` (column descending)."""
    while lo < hi:
        middle = (lo + hi) // 2
        if ends[middle] >= point:
            lo = middle + 1
        else:
            hi = middle
    return lo


class IntervalTree:
    """Static stabbing-query index over ``(start, end, payload)`` intervals.

    Build-only: there is no incremental maintenance path, so a tree
    describes the element set it was built from and nothing later.
    """

    def __init__(self, bufmgr: BufferManager, name: str = "") -> None:
        self.bufmgr = bufmgr
        self.name = name
        self.num_intervals = 0
        self._node_pages: list[int] = []
        self._nodes_per_page = (
            bufmgr.disk.page_size - _NODE_HEADER
        ) // _NODE.size
        self._root = _NO_CHILD
        # interval lists: one heap file, each node's lists stored as
        # contiguous record runs (start, end, payload)
        self._lists: HeapFile | None = None
        #: node-directory page id -> decoded node tuples of that page
        self._node_cache: dict[int, list[tuple[int, ...]]] = {}
        #: list-heap page position -> decoded columns of that page
        self._list_cache: dict[int, _Columns] = {}

    def destroy(self) -> None:
        """Free the node directory and the interval lists (no I/O
        charged); the tree is empty afterwards."""
        for page_id in self._node_pages:
            self.bufmgr.discard_page(page_id)
            self.bufmgr.disk.deallocate(page_id)
        if self._lists is not None:
            self._lists.destroy()
        self._node_pages = []
        self._lists = None
        self._node_cache = {}
        self._list_cache = {}
        self._root = _NO_CHILD
        self.num_intervals = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        bufmgr: BufferManager,
        intervals: Sequence[Interval],
        name: str = "",
    ) -> "IntervalTree":
        """Bulk-build from ``(start, end, payload)`` triples."""
        tree = cls(bufmgr, name)
        tree.num_intervals = len(intervals)
        if not intervals:
            return tree

        endpoints = sorted({point for s, e, _p in intervals for point in (s, e)})
        nodes: list[tuple] = []  # (mid, left, right, l_off, l_len, r_off, r_len)
        lists = HeapFile(bufmgr, TRIPLE, name=f"{name}[lists]")
        writer = lists.open_writer()
        offset = [0]

        def build_node(items: list[tuple[int, int, int]], lo: int, hi: int) -> int:
            """Recursively build over endpoint slice [lo, hi); returns node index."""
            if not items or lo >= hi:
                return _NO_CHILD
            mid_index = (lo + hi) // 2
            mid = endpoints[mid_index]
            here = [iv for iv in items if iv[0] <= mid <= iv[1]]
            lefts = [iv for iv in items if iv[1] < mid]
            rights = [iv for iv in items if iv[0] > mid]

            # itemgetter keys and flat-field appends: same stable order
            # (and page layout) as per-record appends, far fewer bytecodes
            left_sorted = sorted(here, key=itemgetter(0))
            right_sorted = sorted(here, key=itemgetter(1), reverse=True)
            l_off = offset[0]
            writer.append_fields(list(chain.from_iterable(left_sorted)))
            offset[0] += len(left_sorted)
            r_off = offset[0]
            writer.append_fields(list(chain.from_iterable(right_sorted)))
            offset[0] += len(right_sorted)

            index = len(nodes)
            nodes.append(None)  # reserve slot before recursing
            left_child = build_node(lefts, lo, mid_index)
            right_child = build_node(rights, mid_index + 1, hi)
            nodes[index] = (
                mid, left_child, right_child,
                l_off, len(left_sorted), r_off, len(right_sorted),
            )
            return index

        import sys
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 4 * len(endpoints).bit_length() * 64 + 1000))
        try:
            tree._root = build_node(list(intervals), 0, len(endpoints))
        finally:
            sys.setrecursionlimit(old_limit)
        writer.close()
        tree._lists = lists
        tree._write_nodes(nodes)
        return tree

    def _write_nodes(self, nodes: list[tuple]) -> None:
        """Pack the node directory into pages."""
        per_page = self._nodes_per_page
        for page_start in range(0, len(nodes), per_page):
            frame = self.bufmgr.new_page()
            try:
                chunk = nodes[page_start:page_start + per_page]
                struct.pack_into("<I", frame.data, 0, len(chunk))
                offset = _NODE_HEADER
                for node in chunk:
                    _NODE.pack_into(frame.data, offset, *node)
                    offset += _NODE.size
            finally:
                self.bufmgr.unpin(frame.page_id, dirty=True)
            self._node_pages.append(frame.page_id)

    def _read_node(self, index: int) -> tuple[int, ...]:
        page_index, slot = divmod(index, self._nodes_per_page)
        page_id = self._node_pages[page_index]
        nodes = self._node_cache.get(page_id)
        if nodes is not None:
            self.bufmgr.touch(page_id)
            return nodes[slot]
        frame = self.bufmgr.pin(page_id)
        try:
            data = frame.data
            (count,) = struct.unpack_from("<I", data, 0)
            view = memoryview(data)[
                _NODE_HEADER : _NODE_HEADER + count * _NODE.size
            ]
            nodes = list(_NODE.iter_unpack(view))
        finally:
            self.bufmgr.unpin(page_id)
        self._node_cache[page_id] = nodes
        return nodes[slot]

    def _list_columns(self, page_index: int) -> _Columns:
        heap = self._lists
        assert heap is not None
        cached = self._list_cache.get(page_index)
        if cached is not None:
            try:
                heap.bufmgr.touch(heap.page_ids[page_index])
            except StorageFault as fault:
                # the annotation an uncached read_page_array adds
                fault.add_context(f"heap file {heap.name!r} page {page_index}")
                raise
            return cached
        flat = heap.read_page_array(page_index)
        columns = (flat[0::3].tolist(), flat[1::3].tolist(), flat[2::3].tolist())
        self._list_cache[page_index] = columns
        return columns

    # ------------------------------------------------------------------
    # query
    # ------------------------------------------------------------------
    def stab(self, point: RegionCode) -> Iterator[Interval]:
        """Every interval ``(start, end, payload)`` containing ``point``."""
        out: list[Interval] = []
        for (starts, ends, payloads), lo, hi in self._cuts(point):
            # stored triples carry the build()-time domain types
            out.extend(
                cast(
                    "Iterator[Interval]",
                    zip(starts[lo:hi], ends[lo:hi], payloads[lo:hi]),
                )
            )
        return iter(out)

    def stab_codes(self, point: RegionCode) -> list[PBiCode]:
        """Payload codes of every interval containing ``point``.

        The stab-INLJN probe: the same page accesses as :meth:`stab`,
        but each visited list page contributes one payload-column slice
        instead of a tuple per interval.
        """
        out: list[int] = []
        for (_starts, _ends, payloads), lo, hi in self._cuts(point):
            out.extend(payloads[lo:hi])
        return cast("list[PBiCode]", out)

    def _cuts(self, point: int) -> Iterator[tuple[_Columns, int, int]]:
        """Walk root to leaf, yielding ``(columns, lo, hi)`` for every
        list-page slice of intervals containing ``point``.

        A left (start-ascending) list is cut where ``start > point``, a
        right (end-descending) one where ``end < point``.  The next list
        page is read only when the cut falls at the end of the current
        one, so a probe reads exactly the pages of the reported prefixes
        plus at most one past each.
        """
        index = self._root
        while index != _NO_CHILD:
            mid, left, right, l_off, l_len, r_off, r_len = self._read_node(index)
            if point <= mid:
                yield from self._cut_list(l_off, l_len, point, left_list=True)
                if point == mid:
                    return
                index = left
            else:
                yield from self._cut_list(r_off, r_len, point, left_list=False)
                index = right

    def _cut_list(
        self, offset: int, length: int, point: int, left_list: bool
    ) -> Iterator[tuple[_Columns, int, int]]:
        heap = self._lists
        assert heap is not None
        per_page = heap.capacity
        while length > 0:
            page_index, slot = divmod(offset, per_page)
            columns = self._list_columns(page_index)
            starts, ends, _payloads = columns
            limit = min(slot + length, len(starts))
            if left_list:
                cut = bisect_right(starts, point, slot, limit)
            else:
                cut = _descending_cut(ends, point, slot, limit)
            yield columns, slot, cut
            if cut < limit:
                return
            offset += limit - slot
            length -= limit - slot

    # ------------------------------------------------------------------
    @property
    def num_pages(self) -> int:
        lists_pages = self._lists.num_pages if self._lists else 0
        return len(self._node_pages) + lists_pages

    def __len__(self) -> int:
        return self.num_intervals

    def __repr__(self) -> str:
        return (
            f"<IntervalTree {self.name!r} intervals={self.num_intervals} "
            f"pages={self.num_pages}>"
        )
