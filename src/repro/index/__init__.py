"""Disk-based indexes: B+-tree and static interval tree."""

from .bptree import BPlusTree
from .interval_tree import IntervalTree
from .staleness import StaleGuard, StaleIndexError

__all__ = [
    "BPlusTree",
    "IntervalTree",
    "StaleGuard",
    "StaleIndexError",
]
