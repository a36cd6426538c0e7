"""PBiTree-based statistics for element sets (paper Section 6).

"The regular structure of the PBiTree brings about new possibilities to
maintain the statistics of the corresponding data tree, which can be in
turn exploited in query processing."  This module realises that remark:

* :class:`SetStatistics` — per-height counts, the code span, and (when
  the PBiTree height is known) a small **positional histogram**: counts
  per (height, top-level slice) where a slice is one of 64 equal
  divisions of the coding space.  Because the coding space is shared by
  every set of the same document, slices align across sets — the
  property an arbitrary region coding does not give you.  Its source is
  the histogram every element set carries and every writer keeps exact
  (:class:`~repro.storage.histogram.PositionHistogram`), read by
  :meth:`SetStatistics.from_histogram` in O(cells) with no I/O;
  :meth:`SetStatistics.from_set`, a full scan, survives as the oracle
  that maintained histogram is tested against;
* :func:`estimate_join_cardinality` — containment-join selectivity
  estimation.  Nodes of one height form an arithmetic progression of
  known density inside any slice, so "how many ancestors at height h
  dominate a random element of slice s" is a closed-form occupancy
  ratio; summing ``occupancy * |D below h in s|`` over the histogram
  captures placement correlation (e.g. all ancestors living in one
  subtree) that span-level statistics cannot see.

:mod:`repro.join.pipeline` consumes these to order a chain of joins;
the planner prices rollup's co-bucket pairs from the same histograms
(:func:`repro.join.mhcj.rollup_candidate_pairs`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..core import pbitree
from ..core.pbitree import Height, PBiCode
from ..storage.elementset import ElementSet
from ..storage.histogram import NUM_SLICES, PositionHistogram, slice_shift

__all__ = ["SetStatistics", "estimate_join_cardinality", "NUM_SLICES"]


@dataclass
class SetStatistics:
    """Summary of one element set: size, per-height counts, code span,
    and optionally a positional (height, slice) histogram."""

    count: int = 0
    height_counts: dict[Height, int] = field(default_factory=dict)
    #: lowest and highest code, read only by the span fallback (set by
    #: :meth:`from_codes`, unset by :meth:`from_histogram`)
    min_code: int = 0
    max_code: int = 0
    tree_height: Optional[int] = None
    #: (height, slice) -> count; present when tree_height was known
    position_counts: dict[tuple[int, int], int] = field(default_factory=dict)

    @classmethod
    def from_codes(
        cls, codes: Iterable[PBiCode], tree_height: Optional[int] = None
    ) -> "SetStatistics":
        stats = cls(tree_height=tree_height)
        height_of = pbitree.height_of
        space_slice = pbitree.coding_space_slice
        shift = None if tree_height is None else slice_shift(tree_height)
        lo = None
        hi = 0
        counts: dict[Height, int] = {}
        positions: dict[tuple[int, int], int] = {}
        n = 0
        for code in codes:
            n += 1
            height = height_of(code)
            counts[height] = counts.get(height, 0) + 1
            if lo is None or code < lo:
                lo = code
            if code > hi:
                hi = code
            if shift is not None:
                key = (height, space_slice(code, shift))
                positions[key] = positions.get(key, 0) + 1
        stats.count = n
        stats.height_counts = counts
        stats.min_code = lo or 0
        stats.max_code = hi
        stats.position_counts = positions
        return stats

    @classmethod
    def from_set(cls, elements: ElementSet) -> "SetStatistics":
        """One full scan — the oracle for :meth:`from_histogram`."""
        return cls.from_codes(elements.scan(), elements.tree_height)

    @classmethod
    def from_histogram(cls, histogram: PositionHistogram) -> "SetStatistics":
        """The same summary read off a maintained histogram in O(cells).
        The code span stays unset: with a tree height every estimate
        takes the positional path, which never reads it."""
        counts: dict[Height, int] = {}
        for (height, _slice), count in histogram.counts.items():
            key = Height(height)
            counts[key] = counts.get(key, 0) + count
        return cls(
            count=sum(counts.values()),
            height_counts=counts,
            tree_height=histogram.tree_height,
            position_counts=dict(histogram.counts),
        )

    # ------------------------------------------------------------------
    @property
    def heights(self) -> list[Height]:
        return sorted(self.height_counts)

    @property
    def num_heights(self) -> int:
        return len(self.height_counts)

    @property
    def span(self) -> tuple[int, int]:
        """Code span covered by the set (start of the lowest region to
        end of the highest)."""
        if not self.count:
            return 0, 0
        return pbitree.start_of(self.min_code), pbitree.end_of(self.max_code)

    def count_at_or_below(self, height: int) -> int:
        return sum(
            count for h, count in self.height_counts.items() if h <= height
        )

    def slice_counts_below(self, height: int) -> dict[int, int]:
        """Per-slice totals of elements strictly below ``height``."""
        out: dict[int, int] = {}
        for (h, slice_index), count in self.position_counts.items():
            if h < height:
                out[slice_index] = out.get(slice_index, 0) + count
        return out

    def merge(self, other: "SetStatistics") -> "SetStatistics":
        merged = SetStatistics(
            count=self.count + other.count,
            min_code=min(self.min_code or other.min_code,
                         other.min_code or self.min_code),
            max_code=max(self.max_code, other.max_code),
            tree_height=self.tree_height
            if self.tree_height == other.tree_height else None,
        )
        merged.height_counts = dict(self.height_counts)
        for height, count in other.height_counts.items():
            merged.height_counts[height] = (
                merged.height_counts.get(height, 0) + count
            )
        if merged.tree_height is not None:
            merged.position_counts = dict(self.position_counts)
            for key, count in other.position_counts.items():
                merged.position_counts[key] = (
                    merged.position_counts.get(key, 0) + count
                )
        return merged


def _slots_at_height(span_size: int, height: int) -> int:
    """How many PBiTree nodes of ``height`` exist inside a code range.

    Nodes of one height form an arithmetic progression with stride
    ``2**(height+1)``; this density argument is what the PBiTree's
    regular structure buys over an arbitrary region coding.
    """
    return max(1, span_size >> (height + 1))


def estimate_join_cardinality(
    a_stats: SetStatistics, d_stats: SetStatistics
) -> float:
    """Expected |A <| D|.

    With positional histograms (both sides built with the same tree
    height): per ancestor height ``h`` and slice ``s``, a descendant in
    ``s`` below ``h`` has exactly one ancestor slot at ``h`` (``F`` is
    a function); that slot lies in the same slice (slices are wider
    than any realistic subtree stride) and is occupied with probability
    ``|A_{h,s}| / slots_h(s)``.  Without positional data — statistics
    built by :meth:`SetStatistics.from_codes` without a tree height,
    never the planner's, which come from the histograms — falls back to
    the span-overlap model.
    """
    if not a_stats.count or not d_stats.count:
        return 0.0
    same_tree = (
        a_stats.tree_height is not None
        and a_stats.tree_height == d_stats.tree_height
        and a_stats.position_counts
    )
    if same_tree:
        return _positional_estimate(a_stats, d_stats)
    return _span_estimate(a_stats, d_stats)


def _positional_estimate(
    a_stats: SetStatistics, d_stats: SetStatistics
) -> float:
    tree_height = a_stats.tree_height
    assert tree_height is not None
    shift = slice_shift(tree_height)
    slice_size = 1 << shift

    # group A's positional counts by height
    a_by_height: dict[int, dict[int, int]] = {}
    for (height, slice_index), count in a_stats.position_counts.items():
        a_by_height.setdefault(height, {})[slice_index] = count

    expected = 0.0
    for height, slices in a_by_height.items():
        d_slices = d_stats.slice_counts_below(height)
        if not d_slices:
            continue
        if height < shift:
            # the ancestor slot of a descendant stays inside its slice
            slots = _slots_at_height(slice_size, height)
            for slice_index, a_count in slices.items():
                d_count = d_slices.get(slice_index, 0)
                if d_count:
                    expected += min(1.0, a_count / slots) * d_count
        else:
            # the whole slice shares ONE ancestor node at this height;
            # its slice index is F applied to slice indices (slices are
            # codes shifted right, and F commutes with the shift here)
            for slice_index, d_count in d_slices.items():
                anchor_slice = pbitree.f_ancestor(
                    slice_index, height - shift
                )
                a_count = slices.get(anchor_slice, 0)
                expected += min(1.0, float(a_count)) * d_count
    return expected


def _span_estimate(a_stats: SetStatistics, d_stats: SetStatistics) -> float:
    a_lo, a_hi = a_stats.span
    d_lo, d_hi = d_stats.span
    overlap = (max(a_lo, d_lo), min(a_hi, d_hi))
    if overlap[1] < overlap[0]:
        return 0.0
    d_span_size = max(1, d_hi - d_lo + 1)
    d_fraction = (overlap[1] - overlap[0] + 1) / d_span_size

    expected = 0.0
    span_size = overlap[1] - overlap[0] + 1
    for height, a_count in a_stats.height_counts.items():
        slots = _slots_at_height(span_size, height)
        occupancy = min(1.0, a_count / slots)
        descendants_below = d_stats.count_at_or_below(height - 1)
        expected += occupancy * descendants_below * d_fraction
    return expected
