"""MPMGJN: multiple-predicate merge join (Zhang et al., adapted).

Both inputs sorted in document order (region ``Start`` ascending,
ancestors before descendants on ties).  The merge scans the ancestor
list once and may re-scan segments of the descendant list — the
behaviour stack-tree joins were invented to avoid, kept here as the
sort-merge representative of Section 3.1.

When an input is not already sorted it is sorted on the fly by
external merge sort (preparation I/O reported separately);
:class:`SortedInputsJoin` does that for every merge join.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from ..core import batch
from ..sort.external_sort import external_sort_set
from ..storage.buffer import BufferManager
from ..storage.elementset import ElementSet, SortOrder
from .base import JoinAlgorithm, JoinReport, JoinSink
from .cursor import SetCursor

__all__ = ["MPMGJoin", "SortedInputsJoin"]


class SortedInputsJoin(JoinAlgorithm):
    """A merge join over document-ordered inputs.

    ``_prepare`` sorts each unsorted side under a ``sort_span`` span;
    ``_cleanup`` destroys the sorted copies.  When D's sort raises, no
    prepared state reaches ``_cleanup``, so ``_prepare`` frees A's copy
    itself.
    """

    sort_span = "mpmgjn.sort"

    def _prepare(self, ancestors, descendants, bufmgr):
        sorted_a = self._sorted(ancestors, "A")
        try:
            sorted_d = self._sorted(descendants, "D")
        except BaseException:
            self._cleanup((sorted_a, descendants), ancestors, descendants)
            raise
        return sorted_a, sorted_d

    def _sorted(self, elements: ElementSet, side: str) -> ElementSet:
        """``elements`` itself when in document order, else a sorted copy."""
        with self.trace(self.sort_span, side=side):
            if elements.sorted_by == SortOrder.START:
                return elements
            return external_sort_set(elements)

    def _cleanup(self, prepared, ancestors, descendants) -> None:
        for copy, original in zip(prepared, (ancestors, descendants)):
            if copy is not original:
                copy.destroy()


class MPMGJoin(SortedInputsJoin):
    """Multiple Predicate Merge Join over document-ordered inputs."""

    name = "MPMGJN"

    def _execute(self, prepared, sink: JoinSink, bufmgr: BufferManager) -> JoinReport:
        """Merge via per-page binary search instead of per-code stepping.

        The skip phase bisects each descendant page's cached ``Start``
        array for the first code not strictly before the ancestor (later
        ancestors start no earlier, so skipped codes never match); the
        scan phase bisects for the first code past the ancestor's region
        end and verifies the window with one ``descendants_in`` kernel
        call.  ``seek`` rolls across page boundaries one page at a time,
        so each rewind re-reads exactly the pages of the re-scanned
        segment — the I/O that defines MPMGJN's cost profile.
        """
        sorted_a, sorted_d = prepared
        emit = sink.emit

        with self.trace("mpmgjn.merge"):
            d_cursor = SetCursor(sorted_d)
            for a_page in sorted_a.scan_pages():
                for a_code, (a_start, a_end) in zip(
                    a_page, batch.regions(a_page)
                ):
                    while d_cursor.current is not None:
                        starts = d_cursor.page_starts()
                        skip_to = bisect_left(starts, a_start, lo=d_cursor.slot)
                        d_cursor.seek(skip_to)
                        if skip_to < len(starts):
                            break
                    mark = d_cursor.save()
                    while d_cursor.current is not None:
                        page = d_cursor.page
                        assert page is not None
                        starts = d_cursor.page_starts()
                        lo = d_cursor.slot
                        hi = bisect_right(starts, a_end, lo=lo)
                        for d_code in batch.descendants_in(a_code, page[lo:hi]):
                            emit(a_code, d_code)
                        d_cursor.seek(hi)
                        if hi < len(starts):
                            break
                    # rewind: the next ancestor may contain this segment
                    d_cursor.restore(mark)
        return JoinReport(algorithm=self.name, result_count=sink.count)
