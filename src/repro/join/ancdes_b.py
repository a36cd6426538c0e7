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

from typing import Callable, Optional, Sequence, cast

from ..core import batch
from ..core.pbitree import PBiCode, RegionCode
from ..index.bptree import BPlusTree, LeafCursor
from ..storage.buffer import BufferManager
from .base import JoinAlgorithm, JoinReport, JoinSink
from .cursor import PageArrays
from .inljn import build_start_index
from .stacktree import stack_merge

__all__ = ["AncDesBPlusJoin"]


class _IndexCursor(LeafCursor):
    """Leaf cursor over a Start index that always rests on an entry.

    ``keys`` are region starts and ``values`` codes; ``doc_keys`` and
    ``ends`` are the leaf's document-order keys and region ends,
    computed once per leaf (a skip landing back in the same leaf reuses
    them: the node cache hands back the same lists).  A cursor landing
    past a leaf's last entry reads on at once — the pull points of a
    lazy ``range_scan``.
    """

    __slots__ = ("doc_keys", "ends", "probes", "_derived_from")

    def __init__(self, index: BPlusTree) -> None:
        super().__init__(index)
        self.doc_keys: Sequence[int] = []
        self.ends: Sequence[int] = []
        self.probes = 0
        self._derived_from: Optional[Sequence[int]] = None
        if index.num_entries:
            self.seek(0)
            self._settle()

    @property
    def current(self) -> Optional[tuple[RegionCode, PBiCode]]:
        """``(start, code)`` under the cursor, or None when exhausted."""
        position = self.position
        if position < len(self.keys):
            return cast(
                "tuple[RegionCode, PBiCode]",
                (self.keys[position], self.values[position]),
            )
        return None

    def advance(self) -> None:
        self.position += 1
        self._settle()

    def skip_to(self, key: int) -> None:
        """Jump to the first entry with ``Start >= key`` (index descent)."""
        self.probes += 1
        self.seek(key)
        self._settle()

    def arrays(self) -> PageArrays:
        codes = cast("Sequence[PBiCode]", self.values)
        return (
            self.position, len(codes), codes, self.doc_keys, self.keys,
            self.ends,
        )

    def step(self) -> None:
        self.position = len(self.keys)
        self._settle()

    def _settle(self) -> None:
        while self.position == len(self.keys) and self.next_leaf():
            pass
        if self.values is not self._derived_from:
            self._derived_from = self.values
            self.doc_keys = batch.doc_order_keys(self.values)
            self.ends = batch.ends(self.values)


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
        try:
            if a_index is None:
                with self.trace("adb.build_index", side="A"):
                    a_index = build_start_index(ancestors, bufmgr)
                self._built.append(a_index)
            if d_index is None:
                with self.trace("adb.build_index", side="D"):
                    d_index = build_start_index(descendants, bufmgr)
                self._built.append(d_index)
        except BaseException:
            # no prepared state reaches _cleanup: free A's index here
            self._cleanup(None, ancestors, descendants)
            raise
        return a_index, d_index

    def _execute(self, prepared, sink: JoinSink, bufmgr: BufferManager) -> JoinReport:
        a_index, d_index = prepared
        merge_span = self.trace("adb.merge")
        with merge_span:
            a_probes, d_probes = self._merge(a_index, d_index, sink.emit)
            merge_span.set("a_probes", a_probes)
            merge_span.set("d_probes", d_probes)
        report = JoinReport(algorithm=self.name, result_count=sink.count)
        report.notes = f"index probes: A={a_probes} D={d_probes}"
        return report

    @staticmethod
    def _merge(
        a_index: BPlusTree,
        d_index: BPlusTree,
        emit: Callable[[PBiCode, PBiCode], None],
    ) -> tuple[int, int]:
        """The Stack-Tree-Desc merge over the two indexes' leaves, with
        index skips while the stack is empty; returns the (A, D) skip
        counts."""
        a = _IndexCursor(a_index)
        d = _IndexCursor(d_index)
        stack_merge(a, d, emit, skips=(a.skip_to, d.skip_to))
        return a.probes, d.probes

    def _cleanup(self, prepared, ancestors, descendants) -> None:
        # on-the-fly indexes are scratch space: free their pages
        for index in self._built:
            index.destroy()
        self._built.clear()
