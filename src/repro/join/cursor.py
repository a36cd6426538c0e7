"""Positioned cursor over an element set, with mark/restore.

MPMGJN re-scans segments of the inner (descendant) list, so a plain
generator is not enough: the cursor exposes ``save()``/``restore()``
over (page index, slot) positions.  Restoring to a page that has been
evicted re-reads it through the buffer pool — which is precisely how the
re-scanning cost of MPMGJN becomes visible in the I/O counters.

The merge joins work over the cached per-page ``page_starts`` /
``page_doc_keys`` / ``page_ends`` arrays instead of one ``advance()``
call per element: MPMGJN bisects them and ``seek``-s, Stack-Tree-Desc
takes all of them with ``arrays()`` and ``step()``-s once a page is
drained (the :class:`PageCursor` protocol).  Every page is loaded
through the one ``_load_page`` path, in scan order, so I/O and buffer
accounting are those of an element-at-a-time scan; only the
Python-level per-element overhead disappears.
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence, cast

from ..core import batch
from ..core.pbitree import PBiCode
from ..storage.elementset import ElementSet
from ..storage.faults import StorageFault

__all__ = ["PageArrays", "PageCursor", "SetCursor"]

#: a merge cursor's position and current page: length, codes, packed
#: doc keys, starts and ends (length 0 once the cursor is exhausted)
PageArrays = tuple[
    int, int, Sequence[PBiCode], Sequence[int], Sequence[int], Sequence[int]
]


class PageCursor(Protocol):
    """What the Stack-Tree merge steps through: ``step`` loads the next
    non-empty page once the current one is drained."""

    def arrays(self) -> PageArrays: ...

    def step(self) -> None: ...


class SetCursor:
    """Forward cursor over the codes of an element set."""

    __slots__ = (
        "elements",
        "_page_index",
        "_slot",
        "_page",
        "_starts",
        "_doc_keys",
        "_ends",
        "current",
    )

    def __init__(self, elements: ElementSet) -> None:
        self.elements = elements
        self._page_index = 0
        self._slot = -1
        self._page: Optional[Sequence[PBiCode]] = None
        self._starts: Optional[Sequence[int]] = None
        self._doc_keys: Optional[Sequence[int]] = None
        self._ends: Optional[Sequence[int]] = None
        #: code under the cursor, or None when exhausted
        self.current: Optional[PBiCode] = None
        self.advance()

    def _load_page(self) -> None:
        heap = self.elements.heap
        self._starts = None
        self._doc_keys = None
        self._ends = None
        if self._page_index < heap.num_pages:
            try:
                # element-set heaps store single-code rows, so the
                # page's flat field array is its code array; it is an
                # owned copy, so the cursor may cache it past the unpin
                self._page = cast(
                    "Sequence[PBiCode]", heap.read_page_array(self._page_index)
                )
            except StorageFault as fault:
                # Leave the cursor in a defined (exhausted) state and
                # fail fast — a half-loaded page must never be scanned.
                self._page = None
                self.current = None
                fault.add_context(
                    f"cursor over {self.elements.name!r} "
                    f"at page index {self._page_index}"
                )
                raise
        else:
            self._page = None

    def advance(self) -> Optional[PBiCode]:
        """Move to the next code; returns it (or None at end)."""
        if self._page is None and self._page_index == 0 and self._slot == -1:
            self._load_page()  # first touch
        self.seek(self._slot + 1)
        return self.current

    # ------------------------------------------------------------------
    # run access
    # ------------------------------------------------------------------
    @property
    def page(self) -> Optional[Sequence[PBiCode]]:
        """The loaded page's code array (None when exhausted)."""
        return self._page

    @property
    def slot(self) -> int:
        """Index of ``current`` within :attr:`page`."""
        return self._slot

    def page_starts(self) -> Sequence[int]:
        """Region-``Start`` of every code on the current page (cached).

        Merge joins binary-search these instead of comparing one
        element at a time; the array is computed once per page load.
        """
        if self._starts is None:
            assert self._page is not None
            self._starts = batch.starts(self._page)
        return self._starts

    def page_ends(self) -> Sequence[int]:
        """Region-``End`` of every code on the current page (cached)."""
        if self._ends is None:
            assert self._page is not None
            self._ends = batch.ends(self._page)
        return self._ends

    def arrays(self) -> PageArrays:
        page = self._page
        if page is None:
            return 0, 0, (), (), (), ()
        return (
            self._slot, len(page), page, self.page_doc_keys(),
            self.page_starts(), self.page_ends(),
        )

    def step(self) -> None:
        assert self._page is not None
        self.seek(len(self._page))

    def page_doc_keys(self) -> Sequence[int]:
        """Document-order key of every current-page code (cached).

        The keys are order- and tie-equivalent to the scalar
        ``doc_order_key`` tuples (see :func:`repro.core.batch.doc_order_keys`),
        so bisecting them reproduces tuple-comparison decisions exactly.
        """
        if self._doc_keys is None:
            assert self._page is not None
            self._doc_keys = batch.doc_order_keys(self._page)
        return self._doc_keys

    def seek(self, slot: int) -> None:
        """Jump to ``slot`` on the current page (rolls to later pages).

        ``slot == len(page)`` rolls forward through empty pages to the
        next code, loading each page once, in scan order;
        :meth:`advance` is ``seek(slot + 1)``.
        """
        self._slot = slot
        while self._page is not None and self._slot >= len(self._page):
            self._page_index += 1
            self._slot = 0
            self._load_page()
        if self._page is None:
            self.current = None
        else:
            self.current = self._page[self._slot]

    # ------------------------------------------------------------------
    def save(self) -> tuple[int, int]:
        """Snapshot the current position."""
        return self._page_index, self._slot

    def restore(self, position: tuple[int, int]) -> None:
        """Rewind to a saved position (re-reads the page if needed)."""
        page_index, slot = position
        if page_index != self._page_index or self._page is None:
            self._page_index = page_index
            self._load_page()
        self._slot = slot
        if self._page is not None and 0 <= slot < len(self._page):
            self.current = self._page[slot]
        else:
            self.current = None
