"""INLJN: index nested loop containment join (Section 3.1).

Iterates over the *smaller* set (the paper's heuristic, minimising
random index probes) and probes a **B+-tree on region Start** built
over the larger set:

* ancestor set smaller → probe the index on D: all descendants of
  ``a`` have ``Start`` within ``a``'s region, so one range scan per
  ancestor, each candidate verified in O(1) with Lemma 1 (ties on
  ``Start`` make the ancestor itself land in the range; verification
  removes it).
* descendant set smaller → probe the index on A by code algebra: the
  ancestors of ``d`` in A are exactly ``F(d, h)`` for the heights ``h``
  of A above ``d``'s (Property 1, heights read off A's histogram), so
  each is one point lookup of ``start(F(d, h))``.  Codes sharing a
  Start differ in height, so a hit is kept only when ``F`` itself is
  among the returned codes.  The paper probes an interval tree on A's
  regions here; the point lookups read fewer pages and need no second
  index type (the interval-tree INLJN is ablation A6's baseline,
  ``benchmarks/ablations/stabprobe.py``).

When the required index does not exist, it is built on the fly (the
"naive" setting of Section 4): external sort + B+-tree bulk load.  That
preparation I/O is reported separately in the join report, and the
index's pages are freed after the join.
"""

from __future__ import annotations

from itertools import chain

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
    "build_start_index",
    "build_interval_index",
]


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
    """Interval tree over the regions of an element set.

    The engine's INLJN never probes one; this builder and
    :class:`IntervalTree` stay importable here because the perf ledger
    (``benchmarks/ledger/lineup.py``) times their build and stab probes
    for its ``index.interval_build_s`` / ``index.stab_probe_us`` metrics.
    """
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
        a_index: BPlusTree | None = None,
        force_outer: str | None = None,
    ) -> None:
        """Pre-built Start indexes on D and A may be supplied; otherwise
        the inner side's is built on the fly during ``_prepare`` (and
        torn down afterwards).

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
            with self.trace("inljn.build", index="start", side="A"):
                self._built_index = build_start_index(ancestors, bufmgr)
        return ancestors, descendants, outer

    def _execute(self, prepared, sink: JoinSink, bufmgr: BufferManager) -> JoinReport:
        ancestors, descendants, outer = prepared
        # `or` would skip a supplied index that is empty (len 0)
        given = self.d_index if outer == "A" else self.a_index
        index = self._built_index if given is None else given
        with self.trace("inljn.probe", outer=outer):
            if outer == "A":
                self._probe_descendant_index(ancestors, index, sink)
            else:
                self._probe_ancestor_points(ancestors, descendants, index, sink)
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
    def _probe_ancestor_points(
        ancestors: ElementSet,
        descendants: ElementSet,
        index: BPlusTree,
        sink: JoinSink,
    ) -> None:
        """Turn a whole outer page into its ``F(d, h)`` candidates with
        one ``ancestor_points`` kernel call and look them all up with
        one ``range_values_many`` batch; a candidate is an ancestor iff
        its lookup returns it."""
        emit = sink.emit
        probe = index.range_values_many
        heights = ancestors.known_heights
        for d_page in descendants.scan_pages():
            candidates, points = batch.ancestor_points(d_page, heights)
            for (a_code, d_code), found in zip(candidates, probe(points)):
                if a_code in found:
                    emit(a_code, d_code)

    def _cleanup(self, prepared, ancestors, descendants) -> None:
        # an on-the-fly index is scratch space: free its pages
        if self._built_index is not None:
            self._built_index.destroy()
            self._built_index = None
