"""Stack-Tree containment joins (Al-Khalifa et al., adapted to PBiTree).

Both inputs in document order.  An in-memory stack holds the current
chain of nested ancestors, which removes MPMGJN's re-scanning: each
input element is read exactly once, giving the optimal
``O(||A|| + ||D||)`` I/O.

Two variants, as in the original paper:

* :class:`StackTreeDescJoin` emits results in **descendant** order the
  moment a descendant arrives;
* :class:`StackTreeAncJoin` emits results in **ancestor** order by
  attaching inherit/self lists to stack entries and flushing them when
  the bottom of the stack retires.

PBiTree adaptation: ``Start``/``End`` are computed on the fly from the
codes (Lemma 3) and the document-order tie (equal starts on a leftmost
chain) is broken by height so ancestors are consumed first.
Stack-Tree-Desc consumes runs through the batched kernels;
Stack-Tree-Anc, whose per-entry lists make the bookkeeping per
element anyway, steps one element at a time.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable

from ..core import batch, pbitree
from ..core.pbitree import PBiCode, RegionCode
from ..storage.buffer import BufferManager
from .base import JoinAlgorithm, JoinReport, JoinSink
from .cursor import SetCursor
from .mpmgjn import ensure_sorted

__all__ = ["StackTreeDescJoin", "StackTreeAncJoin"]


class _StackTreeBase(JoinAlgorithm):
    def _prepare(self, ancestors, descendants, bufmgr):
        with self.trace("stacktree.sort", side="A"):
            sorted_a, temp_a = ensure_sorted(ancestors, bufmgr)
        with self.trace("stacktree.sort", side="D"):
            sorted_d, temp_d = ensure_sorted(descendants, bufmgr)
        return sorted_a, temp_a, sorted_d, temp_d

    def _cleanup(self, prepared, ancestors, descendants) -> None:
        sorted_a, temp_a, sorted_d, temp_d = prepared
        if temp_a:
            sorted_a.destroy()
        if temp_d:
            sorted_d.destroy()


class StackTreeDescJoin(_StackTreeBase):
    """Stack-Tree-Desc: output sorted by descendant."""

    name = "STACKTREE"

    def _execute(self, prepared, sink: JoinSink, bufmgr: BufferManager) -> JoinReport:
        sorted_a, _ta, sorted_d, _td = prepared
        with self.trace("stacktree.merge"):
            self._merge(SetCursor(sorted_a), SetCursor(sorted_d), sink.emit)
        return JoinReport(algorithm=self.name, result_count=sink.count)

    @staticmethod
    def _merge(
        a_cursor: SetCursor,
        d_cursor: SetCursor,
        emit: Callable[[PBiCode, PBiCode], None],
    ) -> None:
        """Consume ancestor/descendant *runs* instead of single elements.

        Each iteration bisects the cached packed doc-key arrays to find
        the whole run of ancestors at or before the current descendant
        (one push loop over zipped code/start/end slices) or the whole
        run of descendants before the next ancestor (one drain loop).
        Packed keys are order- and tie-equivalent to ``doc_order_key``
        tuples, so run boundaries fall exactly where element-at-a-time
        comparisons would flip.
        """
        # (end, code), top = innermost
        stack: list[tuple[RegionCode, PBiCode]] = []
        while d_cursor.current is not None:
            if a_cursor.current is not None:
                d_key = d_cursor.page_doc_keys()[d_cursor.slot]
                a_keys = a_cursor.page_doc_keys()
                i = a_cursor.slot
                j = bisect_right(a_keys, d_key, lo=i)
                if j > i:
                    # push the ancestor run a_page[i:j]
                    a_page = a_cursor.page
                    assert a_page is not None
                    run_starts = a_cursor.page_starts()[i:j]
                    run = a_page[i:j]
                    for a_code, a_start, a_end in zip(
                        run, run_starts, batch.ends(run)
                    ):
                        while stack and stack[-1][0] < a_start:
                            stack.pop()
                        stack.append((RegionCode(a_end), a_code))
                    a_cursor.seek(j)
                    continue
                # a_keys[i] > d_key: a descendant run comes next
                a_key: int | None = a_keys[i]
            else:
                a_key = None
            d_page = d_cursor.page
            assert d_page is not None
            d_keys = d_cursor.page_doc_keys()
            d_starts = d_cursor.page_starts()
            i = d_cursor.slot
            j = (
                bisect_left(d_keys, a_key, lo=i)
                if a_key is not None
                else len(d_keys)
            )
            for d_code, d_start in zip(d_page[i:j], d_starts[i:j]):
                while stack and stack[-1][0] < d_start:
                    stack.pop()
                for _end, s_code in stack:
                    if s_code != d_code:
                        emit(s_code, d_code)
            d_cursor.seek(j)


class _AncStackEntry:
    """Stack entry of Stack-Tree-Anc with self and inherit lists."""

    __slots__ = ("code", "end", "self_list", "inherit_list")

    def __init__(self, code: PBiCode, end: RegionCode) -> None:
        self.code = code
        self.end = end
        self.self_list: list[PBiCode] = []
        self.inherit_list: list[tuple[PBiCode, PBiCode]] = []


class StackTreeAncJoin(_StackTreeBase):
    """Stack-Tree-Anc: output sorted by ancestor.

    A result pair cannot be emitted when its descendant arrives,
    because an *earlier* ancestor (lower on the stack) must have all
    its pairs emitted first.  Each stack entry accumulates its own
    pairs (``self_list``); when an entry is popped, its lists migrate
    to the entry below (``inherit_list``), and only when the stack
    empties is everything flushed — in ancestor document order.
    """

    name = "STACKTREE-ANC"

    def _execute(self, prepared, sink: JoinSink, bufmgr: BufferManager) -> JoinReport:
        sorted_a, _ta, sorted_d, _td = prepared
        doc_key = pbitree.doc_order_key
        end_of = pbitree.end_of
        start_of = pbitree.start_of

        with self.trace("stacktree.merge"):
            a_cursor = SetCursor(sorted_a)
            d_cursor = SetCursor(sorted_d)
            stack: list[_AncStackEntry] = []

            def pop_entry() -> None:
                entry = stack.pop()
                pairs = [(entry.code, d) for d in entry.self_list]
                pairs.extend(entry.inherit_list)
                if stack:
                    stack[-1].inherit_list.extend(pairs)
                else:
                    for a_code, d_code in pairs:
                        sink.emit(a_code, d_code)

            while d_cursor.current is not None:
                a_code = a_cursor.current
                d_code = d_cursor.current
                if a_code is not None and doc_key(a_code) <= doc_key(d_code):
                    a_start = start_of(a_code)
                    while stack and stack[-1].end < a_start:
                        pop_entry()
                    stack.append(_AncStackEntry(a_code, end_of(a_code)))
                    a_cursor.advance()
                else:
                    d_start = start_of(d_code)
                    while stack and stack[-1].end < d_start:
                        pop_entry()
                    for entry in stack:
                        if entry.code != d_code:
                            entry.self_list.append(d_code)
                    d_cursor.advance()
            while stack:
                pop_entry()
        return JoinReport(algorithm=self.name, result_count=sink.count)
