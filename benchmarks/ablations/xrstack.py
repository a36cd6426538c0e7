"""XR-stack: stack join with XR-tree stab priming (footnote [8]).

The paper's footnote to Table 1 notes that "XR-stack has been shown to
outperform Anc_Des_B+" ([8], the authors' companion ICDE'03 paper).
Where ADB+ leapfrogs with B+-tree range probes, XR-stack exploits the
XR-tree's stabbing capability: whenever the ancestor stack runs empty,
one stab of the ancestor index with the current descendant's Start
fetches **all** of its ancestors at once, and two skips follow from the
region-nesting algebra:

* every ancestor-set element with ``Start <= d.Start`` is either in the
  stab answer (still alive, pushed) or ends before ``d.Start`` — and an
  element dead for this descendant is dead for every later one (their
  Starts only grow), so the ancestor cursor jumps to the first
  ``Start > d.Start``;
* if the stab answer is empty, no remaining ancestor can contain any
  descendant with ``Start`` below the next ancestor's Start, so the
  descendant cursor jumps there via its own B+-tree.

Between skips the algorithm is Stack-Tree-Desc.  Output is in
descendant order.  Indexes are built on the fly when not supplied,
charged as preparation.
"""

from __future__ import annotations

from repro.core import pbitree
from repro.index.bptree import BPlusTree
from repro.join.ancdes_b import _IndexCursor
from repro.join.base import JoinAlgorithm, JoinReport, JoinSink
from repro.join.inljn import build_start_index
from repro.storage.buffer import BufferManager

from .xrtree import XRTree

__all__ = ["XRStackJoin"]


class XRStackJoin(JoinAlgorithm):
    """Stack join driven by an XR-tree on the ancestor set."""

    name = "XR-STACK"

    def __init__(
        self,
        a_index: XRTree | None = None,
        d_index: BPlusTree | None = None,
    ) -> None:
        self.a_index = a_index
        self.d_index = d_index
        self._built: list = []

    def _prepare(self, ancestors, descendants, bufmgr):
        a_index = self.a_index
        d_index = self.d_index
        try:
            if a_index is None:
                a_index = XRTree.build(
                    bufmgr, ancestors.scan(), name=f"{ancestors.name}.xr"
                )
                self._built.append(a_index)
            if d_index is None:
                d_index = build_start_index(descendants, bufmgr)
                self._built.append(d_index)
        except BaseException:
            # no prepared state reaches _cleanup: free the XR-tree here
            self._cleanup(None, ancestors, descendants)
            raise
        return a_index, d_index

    def _execute(self, prepared, sink: JoinSink, bufmgr: BufferManager) -> JoinReport:
        a_index, d_index = prepared
        emit = sink.emit
        doc_key = pbitree.doc_order_key
        end_of = pbitree.end_of
        is_ancestor = pbitree.is_ancestor

        a_cursor = _IndexCursor(a_index._btree) if a_index._btree else None
        d_cursor = _IndexCursor(d_index)
        stack: list[tuple[int, int]] = []  # (end, code)
        stabs = 0

        while d_cursor.current is not None:
            d_start, d_code = d_cursor.current
            while stack and stack[-1][0] < d_start:
                stack.pop()

            if not stack:
                # prime the stack with one stab of the ancestor index
                stabs += 1
                ancestors_of_d = sorted(
                    (code for _s, _e, code in a_index.stab(d_start)),
                    key=doc_key,
                )
                if ancestors_of_d:
                    for code in ancestors_of_d:
                        stack.append((end_of(code), code))
                    if a_cursor is not None:
                        # everything with Start <= d_start is on the stack
                        # or dead forever
                        a_cursor.skip_to(d_start + 1)
                else:
                    if a_cursor is None or a_cursor.current is None:
                        break  # no ancestors remain at all
                    next_a_start = a_cursor.current[0]
                    if next_a_start > d_start:
                        # no remaining ancestor can reach descendants
                        # before next_a_start: leapfrog D
                        d_cursor.skip_to(next_a_start)
                        continue
                    # a_cursor lags (stale after pops): resynchronise
                    a_cursor.skip_to(d_start + 1)
                    d_cursor.advance()
                    continue

            # consume ancestors that start before the *next* descendant
            while (
                a_cursor is not None
                and a_cursor.current is not None
                and doc_key(a_cursor.current[1]) <= doc_key(d_code)
            ):
                a_start, a_code = a_cursor.current
                while stack and stack[-1][0] < a_start:
                    stack.pop()
                stack.append((end_of(a_code), a_code))
                a_cursor.advance()

            for _end, s_code in stack:
                if s_code != d_code and is_ancestor(s_code, d_code):
                    emit(s_code, d_code)
            d_cursor.advance()

        report = JoinReport(algorithm=self.name, result_count=sink.count)
        report.notes = f"stabs: {stabs}"
        return report

    def _cleanup(self, prepared, ancestors, descendants) -> None:
        for index in self._built:
            index.destroy()
        self._built.clear()
