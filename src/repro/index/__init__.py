"""Disk-based indexes: B+-tree, static interval tree, and flat variants."""

from .bptree import BPlusTree
from .flat import FlatIntervalTree, FlatStartIndex, flat_enabled
from .interval_tree import IntervalTree
from .rtree import Rect, RTree
from .staleness import StaleGuard, StaleIndexError
from .xrtree import XRTree

__all__ = [
    "BPlusTree",
    "FlatIntervalTree",
    "FlatStartIndex",
    "IntervalTree",
    "RTree",
    "Rect",
    "StaleGuard",
    "StaleIndexError",
    "XRTree",
    "flat_enabled",
]
