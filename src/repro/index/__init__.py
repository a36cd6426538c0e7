"""Disk-based indexes: B+-tree, static interval tree, R-tree, XR-tree."""

from .bptree import BPlusTree
from .interval_tree import IntervalTree
from .rtree import Rect, RTree
from .staleness import StaleGuard, StaleIndexError
from .xrtree import XRTree

__all__ = [
    "BPlusTree",
    "IntervalTree",
    "RTree",
    "Rect",
    "StaleGuard",
    "StaleIndexError",
    "XRTree",
]
