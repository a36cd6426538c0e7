"""The positional join estimate summed the plain way, one scan per height.

:func:`repro.join.pipeline.estimate_join_cardinality` reads the
descendant step's cells once and shares per-height counts.  The float
sum it returns depends on the order its terms are added in, so it must
add them in exactly this function's order: ancestor heights in the
ancestor cells' order; below the slice shift, each height's slices in
that order; from the shift up, the descendant slices in the order the
descendant cells first show them.  Here every ancestor height rescans
the descendant cells.
"""

from __future__ import annotations

__all__ = ["positional_estimate"]

Cells = dict[tuple[int, int], int]


def _f_ancestor(code: int, height: int) -> int:
    return (code & -(1 << (height + 1))) | (1 << height)


def positional_estimate(a_cells: Cells, d_cells: Cells, tree_height: int) -> float:
    """Expected ``|A <| D|`` from two sets' ``(height, slice) -> count``
    cells (nonzero totals) in a height-``tree_height`` PBiTree."""
    shift = max(0, tree_height - 6)
    slice_size = 1 << shift
    a_by_height: dict[int, dict[int, int]] = {}
    for (height, slice_index), count in a_cells.items():
        a_by_height.setdefault(height, {})[slice_index] = count
    expected = 0.0
    for height, slices in a_by_height.items():
        d_slices: dict[int, int] = {}
        for (h, slice_index), count in d_cells.items():
            if h < height:
                d_slices[slice_index] = d_slices.get(slice_index, 0) + count
        if height < shift:
            slots = max(1, slice_size >> (height + 1))
            for slice_index, a_count in slices.items():
                d_count = d_slices.get(slice_index, 0)
                if d_count:
                    expected += min(1.0, a_count / slots) * d_count
        else:
            for slice_index, d_count in d_slices.items():
                anchor = _f_ancestor(slice_index, height - shift)
                expected += min(1.0, float(slices.get(anchor, 0))) * d_count
    return expected
