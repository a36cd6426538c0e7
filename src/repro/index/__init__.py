"""Disk-based indexes: the Start B+-tree and a static interval tree."""

from .bptree import BPlusTree
from .interval_tree import IntervalTree
from .staleness import StaleGuard, StaleIndexError

__all__ = [
    "BPlusTree",
    "IntervalTree",
    "StaleGuard",
    "StaleIndexError",
]
