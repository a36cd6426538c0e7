"""Disk-based R-tree over 2-D points/rectangles (ablation A3).

Grust [5] and McHugh/Widom [16] (paper Section 5) view a region code
``(Start, End)`` as a point in two-dimensional space: ``a`` contains
``d`` iff ``d``'s point lies inside the quadrant query rectangle
``[a.Start, a.End] x [a.Start, a.End]`` below the diagonal — so a
containment join becomes a spatial join.  This module provides the
R-tree the spatial joins build on the fly: STR (sort-tile-recursive)
bulk loading and rectangle window queries.

Nodes live on buffer-managed pages (one node per page) so probe costs
surface in the I/O counters like every other access method here.
"""

from __future__ import annotations

import math
import struct
from typing import Iterator, Sequence

from repro.storage.buffer import BufferManager

__all__ = ["Rect", "RTree"]

_HEADER = struct.Struct("<BxH")  # type (0 leaf, 1 internal), count
_ENTRY = struct.Struct("<qqqqQ")  # xmin, ymin, xmax, ymax, child/payload
_HEADER_SIZE = 4
_LEAF, _INTERNAL = 0, 1


class Rect:
    """An axis-aligned rectangle (inclusive bounds)."""

    __slots__ = ("xmin", "ymin", "xmax", "ymax")

    def __init__(self, xmin: int, ymin: int, xmax: int, ymax: int) -> None:
        if xmin > xmax or ymin > ymax:
            raise ValueError(f"degenerate rect {(xmin, ymin, xmax, ymax)}")
        self.xmin = xmin
        self.ymin = ymin
        self.xmax = xmax
        self.ymax = ymax

    @classmethod
    def point(cls, x: int, y: int) -> "Rect":
        return cls(x, y, x, y)

    def intersects(self, other: "Rect") -> bool:
        return not (
            other.xmin > self.xmax
            or other.xmax < self.xmin
            or other.ymin > self.ymax
            or other.ymax < self.ymin
        )

    def enlarged(self, other: "Rect") -> "Rect":
        return Rect(
            min(self.xmin, other.xmin),
            min(self.ymin, other.ymin),
            max(self.xmax, other.xmax),
            max(self.ymax, other.ymax),
        )

    def center(self) -> tuple[float, float]:
        return (self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0

    def as_tuple(self) -> tuple[int, int, int, int]:
        return self.xmin, self.ymin, self.xmax, self.ymax

    def __repr__(self) -> str:
        return f"Rect{self.as_tuple()}"


class _Node:
    __slots__ = ("page_id", "is_leaf", "rects", "children")

    def __init__(self, page_id: int, is_leaf: bool) -> None:
        self.page_id = page_id
        self.is_leaf = is_leaf
        self.rects: list[Rect] = []
        self.children: list[int] = []  # payloads (leaf) or page ids

    def mbr(self) -> Rect:
        out = self.rects[0]
        for rect in self.rects[1:]:
            out = out.enlarged(rect)
        return out


class RTree:
    """An R-tree whose nodes occupy one buffer page each."""

    def __init__(self, bufmgr: BufferManager, name: str = "") -> None:
        self.bufmgr = bufmgr
        self.name = name
        self.capacity = (bufmgr.disk.page_size - _HEADER_SIZE) // _ENTRY.size
        if self.capacity < 4:
            raise ValueError("page size too small for an R-tree node")
        self.root_page: int | None = None
        self.height = 0
        self.num_entries = 0
        self._page_ids: list[int] = []

    def destroy(self) -> None:
        """Free every node page (no I/O charged); the tree is empty
        afterwards."""
        for page_id in self._page_ids:
            self.bufmgr.discard_page(page_id)
            self.bufmgr.disk.deallocate(page_id)
        self._page_ids = []
        self.root_page = None
        self.height = 0
        self.num_entries = 0

    # ------------------------------------------------------------------
    # node I/O
    # ------------------------------------------------------------------
    def _read_node(self, page_id: int) -> _Node:
        frame = self.bufmgr.pin(page_id)
        try:
            node_type, count = _HEADER.unpack_from(frame.data, 0)
            node = _Node(page_id, node_type == _LEAF)
            offset = _HEADER_SIZE
            for _ in range(count):
                xmin, ymin, xmax, ymax, child = _ENTRY.unpack_from(
                    frame.data, offset
                )
                node.rects.append(Rect(xmin, ymin, xmax, ymax))
                node.children.append(child)
                offset += _ENTRY.size
            return node
        finally:
            self.bufmgr.unpin(page_id)

    def _write_node(self, node: _Node) -> None:
        frame = self.bufmgr.pin(node.page_id)
        try:
            _HEADER.pack_into(
                frame.data, 0, _LEAF if node.is_leaf else _INTERNAL,
                len(node.rects),
            )
            offset = _HEADER_SIZE
            for rect, child in zip(node.rects, node.children):
                _ENTRY.pack_into(
                    frame.data, offset,
                    rect.xmin, rect.ymin, rect.xmax, rect.ymax, child,
                )
                offset += _ENTRY.size
        finally:
            self.bufmgr.unpin(node.page_id, dirty=True)

    def _new_node(self, is_leaf: bool) -> _Node:
        frame = self.bufmgr.new_page()
        try:
            self._page_ids.append(frame.page_id)
            return _Node(frame.page_id, is_leaf)
        finally:
            self.bufmgr.unpin(frame.page_id, dirty=True)

    # ------------------------------------------------------------------
    # STR bulk loading
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(
        cls,
        bufmgr: BufferManager,
        entries: Sequence[tuple[Rect, int]],
        name: str = "",
    ) -> "RTree":
        """Sort-Tile-Recursive packing of ``(rect, payload)`` entries; a
        failed load frees the nodes it wrote."""
        tree = cls(bufmgr, name)
        if not entries:
            return tree
        try:
            level = tree._pack_level(entries, is_leaf=True)
            tree.height = 1
            while len(level) > 1:
                level = tree._pack_level(level, is_leaf=False)
                tree.height += 1
        except BaseException:
            tree.destroy()
            raise
        tree.num_entries = len(entries)
        tree.root_page = level[0][1]
        return tree

    def _pack_level(
        self, entries: Sequence[tuple[Rect, int]], is_leaf: bool
    ) -> list[tuple[Rect, int]]:
        """Write one level's STR tiles; ``(mbr, page id)`` per node."""
        level = []
        for rects, children in _str_tiles(entries, self.capacity):
            node = self._new_node(is_leaf)
            node.rects = rects
            node.children = children
            self._write_node(node)
            level.append((node.mbr(), node.page_id))
        return level

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def search(self, window: Rect) -> Iterator[tuple[Rect, int]]:
        """Yield every entry whose rectangle intersects ``window``."""
        if self.root_page is None:
            return
        stack = [self.root_page]
        while stack:
            node = self._read_node(stack.pop())
            for rect, child in zip(node.rects, node.children):
                if not window.intersects(rect):
                    continue
                if node.is_leaf:
                    yield rect, child
                else:
                    stack.append(child)

    def __len__(self) -> int:
        return self.num_entries

    def __repr__(self) -> str:
        return (
            f"<RTree {self.name!r} entries={self.num_entries} "
            f"height={self.height} nodes={len(self._page_ids)}>"
        )


def _str_tiles(
    entries: Sequence[tuple[Rect, int]], per_node: int
) -> Iterator[tuple[list[Rect], list[int]]]:
    """Sort-Tile-Recursive grouping of one level into node-sized runs."""
    num_nodes = max(1, -(-len(entries) // per_node))
    num_slices = max(1, int(math.ceil(math.sqrt(num_nodes))))
    by_x = sorted(entries, key=lambda entry: entry[0].center()[0])
    slice_size = -(-len(by_x) // num_slices)
    for start in range(0, len(by_x), slice_size):
        column = sorted(
            by_x[start:start + slice_size],
            key=lambda entry: entry[0].center()[1],
        )
        for node_start in range(0, len(column), per_node):
            chunk = column[node_start:node_start + per_node]
            yield (
                [rect for rect, _payload in chunk],
                [payload for _rect, payload in chunk],
            )
