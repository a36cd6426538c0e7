"""External merge sort (on-the-fly preparation for merge-based joins)."""

from .external_sort import external_sort_set, merge_cost_estimate

__all__ = ["external_sort_set", "merge_cost_estimate"]
