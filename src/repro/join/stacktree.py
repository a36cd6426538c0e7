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
Stack-Tree-Desc merges over per-page code/key/start/end lists;
Stack-Tree-Anc, whose per-entry lists make the bookkeeping per
element anyway, steps one element at a time.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core import pbitree
from ..core.pbitree import PBiCode, RegionCode
from ..storage.buffer import BufferManager
from .base import JoinReport, JoinSink
from .cursor import PageCursor, SetCursor
from .mpmgjn import SortedInputsJoin

__all__ = ["StackTreeDescJoin", "StackTreeAncJoin", "stack_merge"]


def stack_merge(
    a: PageCursor,
    d: PageCursor,
    emit: Callable[[PBiCode, PBiCode], None],
    skips: Optional[tuple[Callable[[int], None], Callable[[int], None]]] = None,
) -> None:
    """Stack-Tree-Desc as a two-pointer merge over the current A and D page.

    Works on each page's code, doc-key, start and end lists; the
    doc keys are order- and tie-equivalent to ``doc_order_key``
    tuples, so every push/emit decision is the element-at-a-time one.
    A cursor steps only when its page is drained, so pages load where
    an element-at-a-time merge loads them.  ``skips`` (Anc_Des_B+: the
    A and D index cursors' ``skip_to``) are tried whenever the stack is
    empty: the merge ends once A is exhausted, and otherwise leapfrogs
    A past an ancestor that ends before ``d`` starts, or D up to an
    ancestor that starts after ``d``.
    """
    ends: list[int] = []  # the stack, bottom first
    codes: list[PBiCode] = []
    ai, an, a_codes, a_keys, a_starts, a_ends = a.arrays()
    di, dn, d_codes, d_keys, d_starts, _ = d.arrays()
    while di < dn:
        if skips is not None and not ends:
            if ai == an:
                break  # no ancestor can match the remaining descendants
            if a_ends[ai] < d_starts[di]:
                skips[0](a_ends[ai] + 1)
                ai, an, a_codes, a_keys, a_starts, a_ends = a.arrays()
                continue
            if d_starts[di] < a_starts[ai]:
                skips[1](a_starts[ai])
                di, dn, d_codes, d_keys, d_starts, _ = d.arrays()
                continue
        # push the ancestors at or before d (the stack is then not
        # empty, so no skip falls inside the run)
        d_key = d_keys[di]
        while ai < an and a_keys[ai] <= d_key:
            a_start = a_starts[ai]
            while ends and ends[-1] < a_start:
                ends.pop()
                codes.pop()
            ends.append(a_ends[ai])
            codes.append(a_codes[ai])
            ai += 1
            if ai == an:
                a.step()
                ai, an, a_codes, a_keys, a_starts, a_ends = a.arrays()
        d_start = d_starts[di]
        while ends and ends[-1] < d_start:
            ends.pop()
            codes.pop()
        d_code = d_codes[di]
        for s_code in codes:
            if s_code != d_code:
                emit(s_code, d_code)
        di += 1
        if di == dn:
            d.step()
            di, dn, d_codes, d_keys, d_starts, _ = d.arrays()


class StackTreeDescJoin(SortedInputsJoin):
    """Stack-Tree-Desc: output sorted by descendant."""

    name = "STACKTREE"
    sort_span = "stacktree.sort"

    def _execute(self, prepared, sink: JoinSink, bufmgr: BufferManager) -> JoinReport:
        sorted_a, sorted_d = prepared
        with self.trace("stacktree.merge"):
            self._merge(SetCursor(sorted_a), SetCursor(sorted_d), sink.emit)
        return JoinReport(algorithm=self.name, result_count=sink.count)

    _merge = staticmethod(stack_merge)


class _AncStackEntry:
    """Stack entry of Stack-Tree-Anc with self and inherit lists."""

    __slots__ = ("code", "end", "self_list", "inherit_list")

    def __init__(self, code: PBiCode, end: RegionCode) -> None:
        self.code = code
        self.end = end
        self.self_list: list[PBiCode] = []
        self.inherit_list: list[tuple[PBiCode, PBiCode]] = []


class StackTreeAncJoin(SortedInputsJoin):
    """Stack-Tree-Anc: output sorted by ancestor.

    A result pair cannot be emitted when its descendant arrives,
    because an *earlier* ancestor (lower on the stack) must have all
    its pairs emitted first.  Each stack entry accumulates its own
    pairs (``self_list``); when an entry is popped, its lists migrate
    to the entry below (``inherit_list``), and only when the stack
    empties is everything flushed — in ancestor document order.
    """

    name = "STACKTREE-ANC"
    sort_span = "stacktree.sort"

    def _execute(self, prepared, sink: JoinSink, bufmgr: BufferManager) -> JoinReport:
        sorted_a, sorted_d = prepared
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
