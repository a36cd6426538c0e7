"""Element sets: the inputs and outputs of containment joins.

An :class:`ElementSet` is a heap file of PBiTree codes plus the
metadata the planner needs: whether the set is sorted (in
region-``Start`` order, Table 1) and its positional histogram
(:class:`~repro.storage.histogram.PositionHistogram`), which every
constructor fills in while it writes or carries over from its source.
Helper constructors build sets from raw code lists or from an encoded
data tree by tag.
"""

from __future__ import annotations

from typing import Generator, Iterable, Iterator, Optional, Sequence, cast

from ..core import batch
from ..core.pbitree import PBiCode
from ..datatree.node import DataTree
from .buffer import BufferManager
from .heapfile import HeapFile
from .histogram import PositionHistogram
from .record import CODE

__all__ = ["ElementSet", "SortOrder"]


class SortOrder:
    """Sort-order tags for element sets."""

    NONE = None
    #: document order: ascending region ``Start``, ties broken by
    #: descending ``End`` so ancestors precede descendants (what the
    #: merge-based algorithms require).
    START = "start"
    #: ascending raw code value.
    CODE = "code"


class ElementSet:
    """A set of elements identified by PBiTree codes, stored on pages."""

    def __init__(
        self,
        heap: HeapFile,
        histogram: PositionHistogram,
        name: str = "",
        sorted_by: Optional[str] = SortOrder.NONE,
    ) -> None:
        self.heap = heap
        #: (height, slice) -> count of the stored codes: the catalog
        #: statistic every writer keeps exact, and the source of
        #: ``tree_height`` and ``known_heights``
        self.histogram = histogram
        self.name = name or heap.name
        self.sorted_by = sorted_by

    @property
    def tree_height(self) -> int:
        return self.histogram.tree_height

    @property
    def known_heights(self) -> frozenset[int]:
        """Node heights present (read off the histogram: no scan)."""
        return self.histogram.heights()

    # ------------------------------------------------------------------
    @classmethod
    def from_codes(
        cls,
        bufmgr: BufferManager,
        codes: Iterable[PBiCode],
        tree_height: int,
        name: str = "",
        sorted_by: Optional[str] = SortOrder.NONE,
    ) -> "ElementSet":
        from .record import MAX_CODE_BITS

        if tree_height > MAX_CODE_BITS:
            raise ValueError(
                f"PBiTree height {tree_height} exceeds the {MAX_CODE_BITS}-bit "
                "storage code space (Section 2.3.3: pathologically deep trees "
                "need a wider record format)"
            )
        # materialised list → flat-field page packing in the heap writer
        code_list = list(codes)
        histogram = PositionHistogram.of_codes(code_list, tree_height)
        heap = HeapFile.from_fields(bufmgr, CODE, code_list, name=name)
        return cls(heap, histogram, name=name, sorted_by=sorted_by)

    @classmethod
    def from_tree_tag(
        cls,
        bufmgr: BufferManager,
        tree: DataTree,
        tag: str,
        tree_height: int,
        name: str = "",
    ) -> "ElementSet":
        """Element set of all nodes with ``tag`` in an encoded data tree.

        Codes come out in document order, which is *not* start order in
        general, so the set is marked unsorted — the starting condition
        the paper's new algorithms target.
        """
        codes = (tree.codes[node] for node in tree.iter_by_tag(tag))
        return cls.from_codes(
            bufmgr, codes, tree_height, name=name or f"//{tag}"
        )

    # ------------------------------------------------------------------
    @property
    def bufmgr(self) -> BufferManager:
        return self.heap.bufmgr

    @property
    def num_pages(self) -> int:
        return self.heap.num_pages

    def __len__(self) -> int:
        return self.heap.num_records

    def scan(self) -> Iterator[PBiCode]:
        """Yield codes in file order (sequential page reads)."""
        for page in self.scan_pages():
            yield from page

    def scan_pages(self) -> Iterator[list[PBiCode]]:
        """Yield the code list of each page.

        The list is built in one pass from the page's field array (a
        single C-level loop), not a tuple per record; stored codes are
        PBiCode by the from_codes invariant.
        """
        for fields in self.heap.scan_page_arrays():
            yield cast("list[PBiCode]", fields.tolist())

    def scan_code_arrays(self) -> Generator[Sequence[PBiCode], None, None]:
        """Yield each page's codes as an owned ``array("Q")``.

        Element-set heaps store one code per record, so the flat field
        array *is* the page's code array; it may be kept past the scan.
        """
        for fields in self.heap.scan_page_arrays():
            yield cast("Sequence[PBiCode]", fields)

    def to_list(self) -> list[PBiCode]:
        return list(self.scan())

    # ------------------------------------------------------------------
    def sorted_copy(self, order: str = SortOrder.START) -> "ElementSet":
        """In-memory sorted copy — tests/examples only.

        Real operators use :mod:`repro.sort.external_sort`, which charges
        the I/O the paper's analysis assigns to on-the-fly sorting.
        """
        codes = self.to_list()
        if order == SortOrder.START:
            codes = batch.sort_doc_order(codes)
        else:
            codes.sort()
        return ElementSet.from_codes(
            self.bufmgr,
            codes,
            self.tree_height,
            name=f"{self.name}[sorted:{order}]",
            sorted_by=order,
        )

    def destroy(self) -> None:
        self.heap.destroy()

    def __repr__(self) -> str:
        return (
            f"<ElementSet {self.name!r} n={len(self)} pages={self.num_pages} "
            f"H={self.tree_height} sorted={self.sorted_by}>"
        )
