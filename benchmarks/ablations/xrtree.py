"""XR-tree: a B+-tree keyed on region Start with per-node stab lists
(ablations A6 and A9).

The paper's footnote to Table 1 points at the authors' companion work
([8] Jiang, Lu, Wang, Ooi — "XR-Tree: Indexing XML data for efficient
structural join", ICDE 2003), which augments a B+-tree so that *"all
ancestors of an element"* is answerable in one root-to-leaf descent.

Structure reproduced here (static bulk build):

* a B+-tree over ``(Start, code)`` — every element lives in a leaf;
* every internal node keeps a **stab list**: the elements whose region
  crosses a separator boundary between that node's children.  An
  element is recorded in the *highest* such node, so each element
  appears in at most one stab list.

A stabbing query for point ``p`` (find all elements whose region
contains ``p``) descends the path for ``p``, scanning each node's stab
list, and finishes by scanning the leaf run of entries with
``Start <= p``; elements fully inside one leaf's key range are found
there, every other candidate crosses a boundary on the path and is in
a stab list.  Cost: ``O(log n + answer + leaf run)``.

This gives the stab-probing INLJN (:mod:`.stabprobe`) a second
disk-based structure for the *ancestor* set (besides
:mod:`repro.index.interval_tree`): :class:`XRProbeJoin` builds one on
the fly, and the A6 ablation compares the two.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, cast

from repro.core import pbitree
from repro.core.pbitree import PBiCode, RegionCode
from repro.index.bptree import BPlusTree
from repro.storage.buffer import BufferManager
from repro.storage.elementset import ElementSet
from repro.storage.heapfile import HeapFile
from repro.storage.record import TRIPLE

from .stabprobe import StabProbeJoin

__all__ = ["XRProbeJoin", "XRTree"]


class XRTree:
    """Static XR-tree over elements given as PBiTree codes."""

    def __init__(self, bufmgr: BufferManager, name: str = "") -> None:
        self.bufmgr = bufmgr
        self.name = name
        self._btree: BPlusTree | None = None
        #: page id of an internal node -> heap file of (start, end, code)
        self._stab_lists: dict[int, HeapFile] = {}
        self.num_elements = 0
        self.num_stabbed = 0

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        bufmgr: BufferManager,
        codes: Iterable[PBiCode],
        name: str = "",
    ) -> "XRTree":
        """Bulk-build from element codes (sorted internally); a failed
        build frees what it wrote."""
        tree = cls(bufmgr, name)
        # document order: ties on Start (leftmost chains) must put the
        # ancestor first, or leaf scans break the stack-join invariant
        entries = [
            (pbitree.start_of(code), code)
            for code in sorted(codes, key=pbitree.doc_order_key)
        ]
        tree._btree = BPlusTree.bulk_load(
            bufmgr, entries, name=f"{name}.keys"
        )
        tree.num_elements = len(entries)
        try:
            tree._build_stab_lists(entries)
        except BaseException:
            tree.destroy()
            raise
        return tree

    def _build_stab_lists(self, entries: list[tuple[RegionCode, PBiCode]]) -> None:
        if self._btree is None or self._btree.root_page is None:
            return
        # assign each boundary-crossing element to its highest spanning node
        buffered: dict[int, list[tuple[int, int, int]]] = {}
        for _start, code in entries:
            start, end = pbitree.region_of(code)
            node_page = self._find_spanning_node(start, end)
            if node_page is not None:
                buffered.setdefault(node_page, []).append((start, end, code))
                self.num_stabbed += 1
        for node_page, items in buffered.items():
            # end-descending order lets queries stop early
            items.sort(key=lambda item: -item[1])
            self._stab_lists[node_page] = HeapFile.from_records(
                self.bufmgr, TRIPLE, items, name=f"{self.name}.stab.{node_page}"
            )

    def _find_spanning_node(self, start: int, end: int) -> int | None:
        """Highest node where [start, end] crosses a separator boundary.

        Returns ``None`` when the region stays inside one leaf's key
        range (the plain B+-tree finds it there).
        """
        assert self._btree is not None
        btree = self._btree
        page_id = btree.root_page
        while True:
            node = btree._read_node(page_id)
            if node.is_leaf:
                return None
            # bisect_left on the start: an element whose Start *equals*
            # a separator may have been packed into the left leaf by the
            # bulk load while point descents go right — treating that as
            # a crossing keeps the query's leaf-run assumption sound
            lo = bisect_left(node.keys, start)
            hi = bisect_right(node.keys, end)
            if lo != hi:
                return page_id  # crosses >= 1 separator of this node
            page_id = node.children[lo]

    # ------------------------------------------------------------------
    def stab(
        self, point: RegionCode
    ) -> Iterator[tuple[RegionCode, RegionCode, PBiCode]]:
        """Yield ``(start, end, code)`` of every element containing ``point``."""
        if self._btree is None or self._btree.root_page is None:
            return
        btree = self._btree
        page_id = btree.root_page
        reported: set[int] = set()
        while True:
            node = btree._read_node(page_id)
            if node.is_leaf:
                break
            stab_list = self._stab_lists.get(page_id)
            if stab_list is not None:
                # stab-list heaps store (start, end, code) triples in
                # the build()-time domains
                for start, end, code in cast(
                    "Iterator[tuple[RegionCode, RegionCode, PBiCode]]",
                    stab_list.scan(),
                ):
                    if end < point:
                        break  # list is end-descending: nothing else fits
                    if start <= point:
                        reported.add(code)
                        yield start, end, code
            slot = bisect_right(node.keys, point)
            page_id = node.children[slot]
        # leaf run: remaining candidates with Start <= point; every
        # boundary-crossing element containing the point was already
        # reported from a stab list on this very path, so a seen-set
        # de-duplicates the two sources
        upper = bisect_right(node.keys, point)
        for index in range(upper):
            code = PBiCode(node.values[index])
            end = pbitree.end_of(code)
            if end >= point and code not in reported:
                yield RegionCode(node.keys[index]), end, code

    def stab_codes(self, point: RegionCode) -> list[PBiCode]:
        """Codes of every element containing ``point`` (the INLJN probe)."""
        return [code for _start, _end, code in self.stab(point)]

    def destroy(self) -> None:
        """Free the key tree and every stab list (no I/O charged)."""
        if self._btree is not None:
            self._btree.destroy()
        for heap in self._stab_lists.values():
            heap.destroy()
        self._btree = None
        self._stab_lists = {}

    def __len__(self) -> int:
        return self.num_elements

    def __repr__(self) -> str:
        return (
            f"<XRTree {self.name!r} elements={self.num_elements} "
            f"stabbed={self.num_stabbed} lists={len(self._stab_lists)}>"
        )


class XRProbeJoin(StabProbeJoin):
    """INLJN probing the ancestor set with an on-the-fly XR-tree (A6).

    The build is charged to the join's preparation I/O, exactly as the
    interval tree's is; the stab loop is the one
    :class:`~.stabprobe.IntervalProbeJoin` runs."""

    stab_kind = "xr"

    def build_stab_index(
        self, ancestors: ElementSet, bufmgr: BufferManager
    ) -> XRTree:
        return XRTree.build(bufmgr, ancestors.scan(), name=f"{ancestors.name}.xr")
