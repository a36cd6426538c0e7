"""Flat-array static variants of the disk-based indexes.

The pointer indexes (:mod:`.bptree`, :mod:`.interval_tree`) decode each
visited page into per-node Python objects — a ``_Node`` with key/value
lists, or one tuple per stored interval — on every probe.  For the
static, bulk-built indexes INLJN and ADB+ construct on the fly, that
per-record decode dominates probe wall time.  This module rebuilds the
probe path over contiguous ``uint64`` arrays instead, the idiom of
flat vantage-point trees: decode each page once into a flat
``array("Q")`` via :meth:`~repro.storage.record.RecordCodec.
unpack_array`, split it into per-field columns, binary-search those
columns directly, and extract matches as column slices rather than
per-entry generator steps.  The cached columns are materialised as
lists: CPython's ``bisect`` boxes an ``array`` item on every
comparison and ``list.extend`` of an ``array`` slice boxes every
element, so list columns probe ~1.6x and slice ~4x faster for the
same one-decode-per-page cost.

* :class:`FlatStartIndex` keeps the B+-tree's bulk-loaded pages
  byte-identical (construction is inherited) but descends by the
  level-order layout :meth:`~repro.index.bptree.BPlusTree.bulk_load`
  records: the children of node ``i`` of a level sit at positions
  ``i * bulk_fanout ..`` of the level below, so child positions are
  implicit arithmetic and only the separator-key columns are needed.
* :class:`FlatIntervalTree` answers stabbing queries from cached
  ``(start, end, payload)`` columns of the interval-list heap pages,
  cutting each start-ascending or end-descending list prefix with one
  binary search per page instead of a per-record comparison loop.

Accounting contract (the differential-oracle rule of
docs/batched-execution.md): every probe pins and unpins exactly the
pages the pointer oracle would, in the same order — a flat cache hit
still costs one real buffer access, and an evicted page is re-read
from disk exactly as the pointer path would.  ``JoinReport`` therefore
stays field-for-field equal; only the Python-level decode work is
removed.  Flat indexes are built only while :func:`flat_enabled` is
true — the ``flat_index`` value of the execution configuration
(:mod:`repro.core.execconfig`: ``exec_scope(flat_index=True)`` or the
``REPRO_FLAT_INDEX`` environment variable) — and the pointer indexes
remain the oracle the differential suite (tests/test_flat_index.py)
compares against.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from typing import Iterator, cast

from ..core.execconfig import current
from ..storage import sanitize
from ..storage.buffer import BufferManager
from ..storage.faults import StorageFault
from ..storage.record import PAIR, owned_u64_array
from .bptree import _HEADER, _HEADER_SIZE, BPlusTree
from .interval_tree import _NO_CHILD, _NODE, _NODE_HEADER, Interval, IntervalTree

__all__ = [
    "FlatStartIndex",
    "FlatIntervalTree",
    "flat_enabled",
]


def flat_enabled() -> bool:
    """Whether index builders produce flat static indexes (default off)."""
    return current().flat_index


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------
def _touch(bufmgr: BufferManager, page_id: int) -> None:
    """Pin and immediately release one page (a flat cache hit).

    The hit must still cost exactly one buffer access so flat probes
    keep the pointer oracle's hit/miss and I/O accounting (the bptree
    node-cache idiom).  The pin is real: an evicted page is re-read
    from disk here exactly as the pointer path would re-read it.
    """
    bufmgr.pin(page_id)
    try:
        pass  # nothing can fail between pin and release
    finally:
        bufmgr.unpin(page_id)


# ---------------------------------------------------------------------------
# flat B+-tree
# ---------------------------------------------------------------------------
class FlatStartIndex(BPlusTree):
    """Static bulk-loaded B+-tree probed through flat key/value columns.

    Construction is inherited — :meth:`~repro.index.bptree.BPlusTree.
    bulk_load` writes byte-identical pages and records the level-order
    layout this class descends by — so build I/O, page contents and
    the planner's view of the index are unchanged.  Only the probe
    path differs: each visited page is decoded once into flat key and
    value columns, descent is ``position * bulk_fanout + slot`` arithmetic
    over separator-key columns (no stored child pointers are read),
    and range extraction is a binary-search cut plus an array slice.

    The index is static: :meth:`insert` raises.  Top-down insertion
    splits nodes out of level order, which would invalidate the
    implicit child arithmetic.
    """

    def __init__(self, bufmgr: BufferManager, name: str = "") -> None:
        super().__init__(bufmgr, name)
        #: page id -> (key column, value column) of one leaf page
        self._flat_leaves: dict[int, tuple[list[int], list[int]]] = {}
        #: page id -> separator-key column of one internal page
        self._flat_keys: dict[int, list[int]] = {}

    def _reset_session_caches(self) -> None:
        super()._reset_session_caches()
        self._flat_leaves = {}
        self._flat_keys = {}

    # -- static-ness ----------------------------------------------------
    def insert(self, key: int, value: int) -> None:
        raise TypeError(
            "FlatStartIndex is static: top-down insertion splits nodes "
            "out of level order; rebuild with bulk_load instead"
        )

    def delete(self, key: int, value: int) -> bool:
        raise TypeError(
            "FlatStartIndex is static: a leaf patch would desynchronise "
            "the cached flat columns; rebuild with bulk_load instead"
        )

    # -- flat page decode (pin accounting identical to _read_node) ------
    def _leaf_entries(self, page_id: int) -> tuple[list[int], list[int]]:
        cached = self._flat_leaves.get(page_id)
        if cached is not None:
            _touch(self.bufmgr, page_id)
            return cached
        frame = self.bufmgr.pin(page_id)
        try:
            data = frame.data
            _node_type, count, _link = _HEADER.unpack_from(data, 0)
            fields = PAIR.unpack_array(memoryview(data)[_HEADER_SIZE:], count)
            # the cached columns outlive the pin, so the borrow closes
            # around the one copy that takes ownership
            with sanitize.borrowed(
                self.bufmgr.views, page_id, "flat-leaf-columns", view=fields
            ):
                flat = owned_u64_array(fields)
        finally:
            self.bufmgr.unpin(page_id)
        entry = (flat[0::2].tolist(), flat[1::2].tolist())
        self._flat_leaves[page_id] = entry
        return entry

    def _internal_keys(self, page_id: int) -> list[int]:
        cached = self._flat_keys.get(page_id)
        if cached is not None:
            _touch(self.bufmgr, page_id)
            return cached
        frame = self.bufmgr.pin(page_id)
        try:
            data = frame.data
            _node_type, count, _child0 = _HEADER.unpack_from(data, 0)
            # internal entries are (key u64, child u32, pad u32) — the
            # same 16-byte stride as a PAIR record, so the flat view's
            # even words are exactly the separator keys
            fields = PAIR.unpack_array(memoryview(data)[_HEADER_SIZE:], count)
            with sanitize.borrowed(
                self.bufmgr.views, page_id, "flat-internal-keys", view=fields
            ):
                flat = owned_u64_array(fields)
        finally:
            self.bufmgr.unpin(page_id)
        keys = flat[0::2].tolist()
        self._flat_keys[page_id] = keys
        return keys

    # -- probes ----------------------------------------------------------
    def _descend_position(self, key: int) -> int:
        """Leaf position (index into ``level_pages[0]``) for ``key``.

        Same ``bisect_left`` descent as the pointer tree — duplicates
        may straddle a node boundary, so the scan must start at the
        first one — pinning one page per internal level in root-to-leaf
        order.  The leaf itself is pinned by the caller's scan loop,
        which matches the pointer ``_descend_to_leaf`` + scan sequence.
        """
        with self.probe_guard():
            levels = self.level_pages
            fanout = self.bulk_fanout
            position = 0
            for depth in range(len(levels) - 1, 0, -1):
                keys = self._internal_keys(levels[depth][position])
                position = position * fanout + bisect_left(keys, key)
            return position

    def range_scan(
        self,
        lo: int,
        hi: int,
        include_lo: bool = True,
        include_hi: bool = True,
    ) -> Iterator[tuple[int, int]]:
        """Yield (key, value) pairs with ``lo <= key <= hi`` (bounds optional).

        Lazy like the pointer scan: nothing is pinned until the first
        item is pulled, and the next leaf in the chain is pinned as
        soon as a page's entries are exhausted — even when that leaf
        holds no in-range keys — exactly as the pointer scan reads one
        node past the range to discover its end.  Each leaf is read
        under :meth:`~repro.index.staleness.StaleGuard.probe_guard`,
        so a ``mark_stale`` landing while the generator is suspended
        makes the next leaf access raise
        :class:`~repro.index.staleness.StaleIndexError` rather than
        silently yielding pre-retirement entries.
        """
        leaves = self.level_pages[0] if self.level_pages else []
        if not leaves:
            return
        position = self._descend_position(lo)
        cut_lo = bisect_left if include_lo else bisect_right
        cut_hi = bisect_right if include_hi else bisect_left
        first = True
        while True:
            with self.probe_guard():
                keys, values = self._leaf_entries(leaves[position])
                start = cut_lo(keys, lo) if first else 0
                stop = cut_hi(keys, hi)
                batch = list(zip(keys[start:stop], values[start:stop]))
            yield from batch
            if stop < len(keys):
                return
            position += 1
            if position >= len(leaves):
                return
            first = False

    def range_values(self, lo: int, hi: int) -> list[int]:
        """All values with ``lo <= key <= hi`` as one list (bulk probe).

        The INLJN fast path: same pages, same pins, same order as a
        fully-consumed ``range_scan(lo, hi)``, but each page
        contributes one binary-search cut and one array-slice extend
        instead of a per-entry generator step.  Eager, so the whole
        probe runs under one
        :meth:`~repro.index.staleness.StaleGuard.probe_guard` window.
        """
        with self.probe_guard():
            leaves = self.level_pages[0] if self.level_pages else []
            out: list[int] = []
            if not leaves:
                return out
            position = self._descend_position(lo)
            first = True
            while True:
                keys, values = self._leaf_entries(leaves[position])
                start = bisect_left(keys, lo) if first else 0
                stop = bisect_right(keys, hi)
                out.extend(values[start:stop])
                if stop < len(keys):
                    return out
                position += 1
                if position >= len(leaves):
                    return out
                first = False

    def __repr__(self) -> str:
        return (
            f"<FlatStartIndex {self.name!r} entries={self.num_entries} "
            f"height={self.height} nodes={self.num_nodes}>"
        )


# ---------------------------------------------------------------------------
# flat interval tree
# ---------------------------------------------------------------------------
class FlatIntervalTree(IntervalTree):
    """Static interval tree probed through flat list columns.

    Construction is inherited (:meth:`~repro.index.interval_tree.
    IntervalTree.build` writes the same node-directory and list pages).
    Probing replaces the pointer path's full-page tuple decode per
    visit: node-directory pages are decoded once into per-page node
    lists, interval-list pages once into ``(start, end, payload)``
    columns, and each list prefix is cut with one binary search per
    page — ``bisect_right`` over the ascending start column, a
    descending-order cut over the end column.
    """

    def __init__(self, bufmgr: BufferManager, name: str = "") -> None:
        super().__init__(bufmgr, name)
        #: node-directory page id -> decoded node tuples of that page
        self._flat_nodes: dict[int, list[tuple[int, ...]]] = {}
        #: list-heap page position -> (start, end, payload) columns
        self._flat_lists: dict[
            int, tuple[list[int], list[int], list[int]]
        ] = {}

    def _reset_session_caches(self) -> None:
        super()._reset_session_caches()
        self._flat_nodes = {}
        self._flat_lists = {}

    # -- flat page decode (pin accounting identical to pointer path) ----
    def _read_node(self, index: int) -> tuple[int, ...]:
        page_index, slot = divmod(index, self._nodes_per_page)
        page_id = self._node_pages[page_index]
        nodes = self._flat_nodes.get(page_id)
        if nodes is not None:
            _touch(self.bufmgr, page_id)
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
        self._flat_nodes[page_id] = nodes
        return nodes[slot]

    def _list_columns(
        self, page_index: int
    ) -> tuple[list[int], list[int], list[int]]:
        heap = self._lists
        assert heap is not None
        cached = self._flat_lists.get(page_index)
        if cached is not None:
            try:
                _touch(heap.bufmgr, heap.page_ids[page_index])
            except StorageFault as fault:
                # same annotation the pointer path's read_page adds
                fault.add_context(f"heap file {heap.name!r} page {page_index}")
                raise
            return cached
        flat = heap.read_page_array(page_index)
        entry = (flat[0::3].tolist(), flat[1::3].tolist(), flat[2::3].tolist())
        self._flat_lists[page_index] = entry
        return entry

    @staticmethod
    def _descending_cut(
        ends: list[int], point: int, lo: int, hi: int
    ) -> int:
        """First index in ``[lo, hi)`` with ``ends[i] < point`` (column descending)."""
        while lo < hi:
            middle = (lo + hi) // 2
            if ends[middle] >= point:
                lo = middle + 1
            else:
                hi = middle
        return lo

    # -- probes ----------------------------------------------------------
    def _scan_flat(
        self, offset: int, length: int, point: int, left_list: bool
    ) -> Iterator[Interval]:
        """Lazy flat list-prefix scan, pin-compatible with the pointer scan.

        A page is pinned only when the consumer pulls into it, and the
        scan stops without touching the next page when the cut falls
        inside the current one — the pointer scan's exact boundaries.
        """
        heap = self._lists
        assert heap is not None
        per_page = heap.capacity
        remaining = length
        position = offset
        while remaining > 0:
            page_index, slot = divmod(position, per_page)
            starts, ends, payloads = self._list_columns(page_index)
            limit = min(slot + remaining, len(starts))
            if left_list:
                cut = bisect_right(starts, point, slot, limit)
            else:
                cut = self._descending_cut(ends, point, slot, limit)
            for i in range(slot, cut):
                yield cast("Interval", (starts[i], ends[i], payloads[i]))
            if cut < limit:
                return
            position += limit - slot
            remaining -= limit - slot

    def _scan_left_list(
        self, offset: int, length: int, point: int
    ) -> Iterator[Interval]:
        return self._scan_flat(offset, length, point, left_list=True)

    def _scan_right_list(
        self, offset: int, length: int, point: int
    ) -> Iterator[Interval]:
        return self._scan_flat(offset, length, point, left_list=False)

    def _extend_stab(
        self, out: list[int], offset: int, length: int, point: int,
        left_list: bool,
    ) -> None:
        """Bulk cousin of :meth:`_scan_flat`: slice payloads into ``out``."""
        heap = self._lists
        assert heap is not None
        per_page = heap.capacity
        remaining = length
        position = offset
        while remaining > 0:
            page_index, slot = divmod(position, per_page)
            starts, ends, payloads = self._list_columns(page_index)
            limit = min(slot + remaining, len(starts))
            if left_list:
                cut = bisect_right(starts, point, slot, limit)
            else:
                cut = self._descending_cut(ends, point, slot, limit)
            out.extend(payloads[slot:cut])
            if cut < limit:
                return
            position += limit - slot
            remaining -= limit - slot

    def stab_codes(self, point: int) -> list[int]:
        """Payload codes of every interval containing ``point``.

        The INLJN fast path: page-for-page identical accesses to a
        fully-consumed :meth:`stab`, but each visited list page
        contributes one binary-search cut plus one payload-slice extend
        instead of a tuple per stored interval.
        """
        with self.probe_guard():
            out: list[int] = []
            index = self._root
            while index != _NO_CHILD:
                mid, left, right, l_off, l_len, r_off, r_len = self._read_node(
                    index
                )
                if point < mid:
                    self._extend_stab(out, l_off, l_len, point, left_list=True)
                    index = left
                elif point > mid:
                    self._extend_stab(out, r_off, r_len, point, left_list=False)
                    index = right
                else:
                    self._extend_stab(out, l_off, l_len, point, left_list=True)
                    break
            return out

    def __repr__(self) -> str:
        return (
            f"<FlatIntervalTree {self.name!r} intervals={self.num_intervals} "
            f"pages={self.num_pages}>"
        )
