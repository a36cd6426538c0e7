"""Anc_Des_B+ (Chien et al., adapted): stack-tree join with index skips.

Both inputs are accessed through B+-trees on region ``Start``.  The
merge proceeds exactly like Stack-Tree-Desc, but whenever the stack is
empty the algorithm can prove that a whole stretch of one input cannot
participate and leapfrogs it with an index probe instead of scanning:

* if the current ancestor's region ends before the current descendant
  starts (``a.End < d.Start``), every element of ``A`` with
  ``Start <= a.End`` is inside ``a``'s subtree and ends even earlier —
  probe ``A``'s index for the first ``Start > a.End``;
* if the current descendant starts before the current ancestor
  (``d.Start < a.Start``), no remaining ancestor can contain it —
  probe ``D``'s index for the first ``Start >= a.Start``.

Each probe costs a root-to-leaf descent (random reads) but may skip
many leaf pages; on low-selectivity inputs the I/O drops well below
``||A|| + ||D||``, which is the point of the algorithm.

When indexes are missing they are built on the fly (sort + bulk load),
charged as preparation — the Section 4 experimental setting — and
freed after the join.
"""

from __future__ import annotations

from typing import Iterator, Optional, cast

from ..core import pbitree
from ..core.pbitree import PBiCode, RegionCode
from ..index.bptree import BPlusTree
from ..storage.buffer import BufferManager
from .base import JoinAlgorithm, JoinReport, JoinSink
from .inljn import build_start_index

__all__ = ["AncDesBPlusJoin"]

_MAX_KEY = (1 << 64) - 1


class _IndexCursor:
    """Forward cursor over a B+-tree's leaf entries with leapfrogging."""

    __slots__ = ("index", "_iter", "current", "probes")

    def __init__(self, index: BPlusTree) -> None:
        self.index = index
        # a Start index stores (region start, element code) leaf entries
        self._iter = cast(
            "Iterator[tuple[RegionCode, PBiCode]]", index.scan_all()
        )
        self.current: Optional[tuple[RegionCode, PBiCode]] = None
        self.probes = 0
        self.advance()

    def advance(self) -> None:
        self.current = next(self._iter, None)

    def skip_to(self, key: int) -> None:
        """Jump to the first entry with ``Start >= key`` (index descent)."""
        self.probes += 1
        self._iter = cast(
            "Iterator[tuple[RegionCode, PBiCode]]",
            self.index.range_scan(key, _MAX_KEY),
        )
        self.advance()


class AncDesBPlusJoin(JoinAlgorithm):
    """Stack-tree join with B+-tree assisted skipping (ADB+)."""

    name = "ADB+"

    def __init__(
        self,
        a_index: BPlusTree | None = None,
        d_index: BPlusTree | None = None,
    ) -> None:
        self.a_index = a_index
        self.d_index = d_index
        self._built: list[BPlusTree] = []

    def _prepare(self, ancestors, descendants, bufmgr):
        a_index = self.a_index
        d_index = self.d_index
        if a_index is None:
            with self.trace("adb.build_index", side="A"):
                a_index = build_start_index(ancestors, bufmgr)
            self._built.append(a_index)
        if d_index is None:
            with self.trace("adb.build_index", side="D"):
                d_index = build_start_index(descendants, bufmgr)
            self._built.append(d_index)
        return a_index, d_index

    def _execute(self, prepared, sink: JoinSink, bufmgr: BufferManager) -> JoinReport:
        a_index, d_index = prepared
        emit = sink.emit
        doc_key = pbitree.doc_order_key
        end_of = pbitree.end_of

        merge_span = self.trace("adb.merge")
        with merge_span:
            a_cursor = _IndexCursor(a_index)
            d_cursor = _IndexCursor(d_index)
            stack: list[tuple[RegionCode, PBiCode]] = []  # (end, code)

            while d_cursor.current is not None:
                if not stack and a_cursor.current is None:
                    break  # no ancestor can match remaining descendants
                if not stack and a_cursor.current is not None:
                    a_start, a_code = a_cursor.current
                    d_start, _d_code = d_cursor.current
                    a_end = end_of(a_code)
                    if a_end < d_start:
                        a_cursor.skip_to(a_end + 1)
                        continue
                    if d_start < a_start:
                        d_cursor.skip_to(a_start)
                        continue
                a_entry = a_cursor.current
                d_start, d_code = d_cursor.current
                if a_entry is not None and doc_key(a_entry[1]) <= doc_key(d_code):
                    a_start, a_code = a_entry
                    while stack and stack[-1][0] < a_start:
                        stack.pop()
                    stack.append((end_of(a_code), a_code))
                    a_cursor.advance()
                else:
                    while stack and stack[-1][0] < d_start:
                        stack.pop()
                    for _end, s_code in stack:
                        if s_code != d_code:
                            emit(s_code, d_code)
                    d_cursor.advance()
            merge_span.set("a_probes", a_cursor.probes)
            merge_span.set("d_probes", d_cursor.probes)
        report = JoinReport(algorithm=self.name, result_count=sink.count)
        report.notes = (
            f"index probes: A={a_cursor.probes} D={d_cursor.probes}"
        )
        return report

    def _cleanup(self, prepared, ancestors, descendants) -> None:
        # on-the-fly indexes are scratch space: free their pages
        for index in self._built:
            index.destroy()
        self._built.clear()
