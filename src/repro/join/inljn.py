"""INLJN: index nested loop containment join (Section 3.1).

Iterates over the *smaller* set (the paper's heuristic, minimising
random index probes) and probes an index on the larger set:

* ancestor set smaller → probe a **B+-tree on D's region Start**: all
  descendants of ``a`` have ``Start`` within ``a``'s region, so one
  range scan per ancestor, each candidate verified in O(1) with
  Lemma 1 (ties on ``Start`` make the ancestor itself land in the
  range; verification removes it).
* descendant set smaller → probe a **disk-based interval tree on A's
  regions** with ``d.Start`` (a stabbing query), the structure the
  paper proposes for this direction because a B+-tree on compound keys
  degenerates.

When the required index does not exist, it is built on the fly (the
"naive" setting of Section 4): external sort + B+-tree bulk load, or
interval-tree bulk build.  That preparation I/O is reported separately
in the join report, and the index's pages are freed after the join.
"""

from __future__ import annotations

from itertools import chain
from typing import Protocol

from ..core import batch, pbitree
from ..core.pbitree import PBiCode, RegionCode
from ..index.bptree import BPlusTree
from ..index.interval_tree import IntervalTree
from ..sort.external_sort import external_sort_set
from ..storage.buffer import BufferManager
from ..storage.elementset import ElementSet
from .base import JoinAlgorithm, JoinReport, JoinSink

__all__ = [
    "IndexNestedLoopJoin",
    "StabIndex",
    "build_start_index",
    "build_interval_index",
]


class StabIndex(Protocol):
    """An ancestor-side index INLJN can probe: an :class:`IntervalTree`
    or any structure answering the same stabbing query."""

    def stab_codes(self, point: RegionCode) -> list[PBiCode]: ...

    def destroy(self) -> None: ...


def build_start_index(
    elements: ElementSet, bufmgr: BufferManager, name: str = ""
) -> BPlusTree:
    """B+-tree on region ``Start`` (value = code), built by sort + bulk load.

    A failed build frees the sorted copy (and ``bulk_load`` its partial
    tree), so only the input's pages remain allocated.
    """
    sorted_set = external_sort_set(elements)
    pages = sorted_set.scan_code_arrays()
    # one starts() kernel call per page; the zipped ints are pulled
    # while the page is pinned (the next page is pinned only once the
    # load has drained this page's zip)
    entries = chain.from_iterable(
        zip(batch.starts(fields), fields) for fields in pages
    )
    try:
        return BPlusTree.bulk_load(
            bufmgr, entries, name=name or f"{elements.name}.start"
        )
    finally:
        pages.close()  # unpin the page a failed load stopped on
        sorted_set.destroy()


def build_interval_index(
    elements: ElementSet, bufmgr: BufferManager, name: str = ""
) -> IntervalTree:
    """Interval tree over the regions of an element set."""
    intervals: list[tuple[RegionCode, RegionCode, PBiCode]] = []
    for code in elements.scan():
        start, end = pbitree.region_of(code)
        intervals.append((start, end, code))
    return IntervalTree.build(
        bufmgr, intervals, name=name or f"{elements.name}.intervals"
    )


class IndexNestedLoopJoin(JoinAlgorithm):
    """Index nested loop join with the smaller set as the outer relation."""

    name = "INLJN"

    def __init__(
        self,
        d_index: BPlusTree | None = None,
        a_index: StabIndex | None = None,
        force_outer: str | None = None,
    ) -> None:
        """Pre-built indexes may be supplied; otherwise they are built on
        the fly during ``_prepare`` (and torn down afterwards): a
        B+-tree on D's Start, or an interval tree on A's regions.

        ``force_outer`` pins the outer relation to ``'A'`` or ``'D'``
        instead of using the smaller-set heuristic (for the ablation
        benchmarks).
        """
        if force_outer not in (None, "A", "D"):
            raise ValueError(
                f"force_outer must be None, 'A' or 'D', not {force_outer!r}"
            )
        self.d_index = d_index
        self.a_index = a_index
        self.force_outer = force_outer
        self._built_index = None

    def _outer_side(self, ancestors: ElementSet, descendants: ElementSet) -> str:
        if self.force_outer is not None:
            return self.force_outer
        return "A" if ancestors.num_pages <= descendants.num_pages else "D"

    def _prepare(self, ancestors, descendants, bufmgr):
        outer = self._outer_side(ancestors, descendants)
        if outer == "A" and self.d_index is None:
            with self.trace("inljn.build", index="start", side="D"):
                self._built_index = build_start_index(descendants, bufmgr)
        elif outer == "D" and self.a_index is None:
            with self.trace("inljn.build", index="interval", side="A"):
                self._built_index = build_interval_index(ancestors, bufmgr)
        return ancestors, descendants, outer

    def _execute(self, prepared, sink: JoinSink, bufmgr: BufferManager) -> JoinReport:
        ancestors, descendants, outer = prepared
        with self.trace("inljn.probe", outer=outer):
            if outer == "A":
                index = self.d_index or self._built_index
                self._probe_descendant_index(ancestors, index, sink)
            else:
                index = self.a_index or self._built_index
                self._probe_ancestor_index(descendants, index, sink)
        return JoinReport(algorithm=self.name, result_count=sink.count)

    @staticmethod
    def _probe_descendant_index(
        ancestors: ElementSet, index: BPlusTree, sink: JoinSink
    ) -> None:
        """Probe a whole outer page's regions with one
        ``range_values_many`` batch, then verify each ancestor's
        candidates with one ``descendants_in`` kernel call (a ``semi-d``
        sink takes them with one ``set.update``)."""
        emit = sink.emit
        probe = index.range_values_many
        descendants_in = batch.descendants_in
        keep_d = sink.survivors.update if sink.mode == "semi-d" else None
        for a_page in ancestors.scan_pages():
            for a_code, candidates in zip(a_page, probe(batch.regions(a_page))):
                if keep_d is not None:
                    keep_d(descendants_in(a_code, candidates))
                    continue
                for d_code in descendants_in(a_code, candidates):
                    emit(a_code, d_code)

    @staticmethod
    def _probe_ancestor_index(
        descendants: ElementSet, index: StabIndex, sink: JoinSink
    ) -> None:
        """Bulk starts per page; each descendant's stab candidates are
        verified with one ``ancestors_in`` kernel call."""
        emit = sink.emit
        for d_page in descendants.scan_pages():
            for d_code, point in zip(d_page, batch.starts(d_page)):
                for a_code in batch.ancestors_in(d_code, index.stab_codes(point)):
                    emit(a_code, d_code)

    def _cleanup(self, prepared, ancestors, descendants) -> None:
        # an on-the-fly index is scratch space: free its pages
        if self._built_index is not None:
            self._built_index.destroy()
            self._built_index = None
