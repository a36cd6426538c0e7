"""Spatial containment join via R-trees (paper Section 5, [5][16]).

Each element's region code ``(Start, End)`` is a point in the plane;
``a`` is an ancestor of ``d`` iff ``d``'s point lies inside the axis
rectangle ``[a.Start, a.End] x [a.Start, a.End]`` (equivalently: in the
quadrant with ``a``'s point as origin, below the diagonal).  Two
evaluation strategies are provided:

* :class:`RTreeProbeJoin` — index nested loop over an R-tree of the
  descendant points, one window query per ancestor (the McHugh/Widom
  style adaptation).  The R-tree is bulk-loaded on the fly (STR) when
  not supplied.
* :class:`SynchronizedRTreeJoin` — build R-trees on both sides and join
  them by synchronized traversal (Brinkhoff et al. [3]): descend both
  trees simultaneously, pruning node pairs whose bounding rectangles
  cannot produce a result.

These algorithms are not part of the paper's evaluated set — it
compares against B+-tree-based INLJN — but Section 5 discusses them as
the natural spatial interpretation; ablation A3 compares them to INLJN.
"""

from __future__ import annotations

from repro.core import pbitree
from repro.join.base import JoinAlgorithm, JoinReport, JoinSink
from repro.storage.buffer import BufferManager
from repro.storage.elementset import ElementSet

from .rtree import Rect, RTree

__all__ = [
    "RTreeProbeJoin",
    "SynchronizedRTreeJoin",
    "build_point_rtree",
    "point_of",
    "probe_window",
]


def point_of(code: int) -> Rect:
    """The (Start, End) point of an element, as a degenerate rectangle."""
    start, end = pbitree.region_of(code)
    return Rect.point(start, end)


def probe_window(code: int) -> Rect:
    """Rectangle holding the points of all descendants of ``code``.

    A descendant's Start and End both lie inside the ancestor's region.
    The ancestor's own point is also inside; Lemma 1 verification
    removes it (and nothing else can collide — regions nest).
    """
    start, end = pbitree.region_of(code)
    return Rect(start, start, end, end)


def build_point_rtree(
    elements: ElementSet, bufmgr: BufferManager, name: str = ""
) -> RTree:
    """STR bulk load of an element set's (Start, End) points."""
    entries = [(point_of(code), code) for code in elements.scan()]
    return RTree.bulk_load(
        bufmgr, entries, name=name or f"{elements.name}.rtree"
    )


class RTreeProbeJoin(JoinAlgorithm):
    """Index nested loop with an R-tree on the descendant points."""

    name = "RTREE-INL"

    def __init__(self, d_index: RTree | None = None) -> None:
        self.d_index = d_index
        self._built: RTree | None = None

    def _prepare(self, ancestors, descendants, bufmgr):
        index = self.d_index
        if index is None:
            index = build_point_rtree(descendants, bufmgr)
            self._built = index
        return ancestors, index

    def _execute(self, prepared, sink: JoinSink, bufmgr: BufferManager) -> JoinReport:
        ancestors, index = prepared
        emit = sink.emit
        is_ancestor = pbitree.is_ancestor
        for a_code in ancestors.scan():
            for _rect, d_code in index.search(probe_window(a_code)):
                if is_ancestor(a_code, d_code):
                    emit(a_code, d_code)
        return JoinReport(algorithm=self.name, result_count=sink.count)

    def _cleanup(self, prepared, ancestors, descendants) -> None:
        if self._built is not None:
            self._built.destroy()
            self._built = None


class SynchronizedRTreeJoin(JoinAlgorithm):
    """Brinkhoff-style synchronized traversal of two R-trees."""

    name = "RTREE-SYNC"

    def __init__(
        self, a_index: RTree | None = None, d_index: RTree | None = None
    ) -> None:
        self.a_index = a_index
        self.d_index = d_index
        self._built: list[RTree] = []

    def _prepare(self, ancestors, descendants, bufmgr):
        a_index = self.a_index
        d_index = self.d_index
        try:
            if a_index is None:
                a_index = build_point_rtree(ancestors, bufmgr, "sync.A")
                self._built.append(a_index)
            if d_index is None:
                d_index = build_point_rtree(descendants, bufmgr, "sync.D")
                self._built.append(d_index)
        except BaseException:
            # no prepared state reaches _cleanup: free A's tree here
            self._cleanup(None, ancestors, descendants)
            raise
        return a_index, d_index

    def _execute(self, prepared, sink: JoinSink, bufmgr: BufferManager) -> JoinReport:
        a_index, d_index = prepared
        report = JoinReport(algorithm=self.name, result_count=0)
        if a_index.root_page is None or d_index.root_page is None:
            return report
        emit = sink.emit
        is_ancestor = pbitree.is_ancestor

        # node pair (a_page, a_is_node, d_page, d_is_node); descend the
        # taller side first so levels stay roughly aligned
        stack = [(a_index.root_page, a_index.height, d_index.root_page, d_index.height)]
        while stack:
            a_page, a_level, d_page, d_level = stack.pop()
            a_node = a_index._read_node(a_page)
            d_node = d_index._read_node(d_page)
            if a_node.is_leaf and d_node.is_leaf:
                for a_rect, a_code in zip(a_node.rects, a_node.children):
                    window = probe_window(a_code)
                    for d_rect, d_code in zip(d_node.rects, d_node.children):
                        if window.intersects(d_rect) and is_ancestor(a_code, d_code):
                            emit(a_code, d_code)
                continue
            descend_a = not a_node.is_leaf and (d_node.is_leaf or a_level >= d_level)
            if descend_a:
                for a_rect, a_child in zip(a_node.rects, a_node.children):
                    if _may_join(_window_of_mbr(a_rect), d_node.mbr()):
                        stack.append((a_child, a_level - 1, d_page, d_level))
            else:
                for d_rect, d_child in zip(d_node.rects, d_node.children):
                    if _may_join(_window_of_mbr(a_node.mbr()), d_rect):
                        stack.append((a_page, a_level, d_child, d_level - 1))
        return report

    def _cleanup(self, prepared, ancestors, descendants) -> None:
        for index in self._built:
            index.destroy()
        self._built.clear()


def _window_of_mbr(mbr: Rect) -> Rect:
    """Widest descendant window any ancestor point inside ``mbr`` can probe.

    An ancestor point (s, e) probes [s, s] x [e... the union over the
    MBR is [xmin, ymax] in both axes.
    """
    return Rect(mbr.xmin, mbr.xmin, mbr.ymax, mbr.ymax)


def _may_join(window: Rect, d_mbr: Rect) -> bool:
    return window.intersects(d_mbr)
