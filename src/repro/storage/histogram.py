"""The positional histogram every element set carries (paper Section 6).

"The regular structure of the PBiTree brings about new possibilities to
maintain the statistics of the corresponding data tree."  The statistic
kept here is the count of a set's codes per ``(height, slice)``, where a
slice is one of :data:`NUM_SLICES` equal divisions of the ``H``-bit
coding space: ``slice = code >> max(0, H - 6)``, the code's top six
bits.  Slices line up across every set of one document, which is what
lets the planner price co-located pairs without reading a page.

The histogram is exact and cheap to keep so: building it is a bulk
count over the codes a writer already holds, an insert or delete moves one
count, and a tree growth — every code shifted left by ``delta`` while
``H`` grows by ``delta`` — moves every count to ``(h + delta, s)``: the
top six bits of a shifted code are the top six bits of the original.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence, cast

from ..core import batch
from ..core.pbitree import PBiCode, coding_space_slice, height_of

__all__ = ["NUM_SLICES", "PositionHistogram", "slice_shift"]

#: top-level divisions of the coding space
NUM_SLICES = 64
_SLICE_BITS = NUM_SLICES.bit_length() - 1


def slice_shift(tree_height: int) -> int:
    """The right shift that maps a code of a height-``tree_height``
    PBiTree to its slice."""
    return max(0, tree_height - _SLICE_BITS)


class PositionHistogram:
    """``(height, slice) -> count`` of one element set's codes.

    ``tree_height`` is the height of the PBiTree the codes live in; it
    defines the slicing, so it belongs to the histogram (and the set
    reads its own tree height from here).  Mutate it only through
    :meth:`add` and :meth:`grow`: they drop the cached :meth:`heights`,
    which every plan reads several times.
    """

    __slots__ = ("tree_height", "counts", "_heights")

    def __init__(
        self,
        tree_height: int,
        counts: Optional[dict[tuple[int, int], int]] = None,
    ) -> None:
        self.tree_height = tree_height
        self.counts: dict[tuple[int, int], int] = {} if counts is None else counts
        self._heights: Optional[frozenset[int]] = None

    @classmethod
    def of_codes(
        cls, codes: Sequence[int], tree_height: int
    ) -> "PositionHistogram":
        """One bulk heights pass, one slices pass, one C-level count."""
        shift = slice_shift(tree_height)
        slices = [
            coding_space_slice(code, shift) for code in cast("Sequence[PBiCode]", codes)
        ]
        counts: Counter[tuple[int, int]] = Counter(zip(batch.heights(codes), slices))
        return cls(tree_height, dict(counts))

    # ------------------------------------------------------------------
    def add(self, code: int, delta: int = 1) -> None:
        """Count ``delta`` more (or, negative, fewer) copies of ``code``."""
        pbi = PBiCode(code)
        key = (height_of(pbi), coding_space_slice(pbi, slice_shift(self.tree_height)))
        count = self.counts.get(key, 0) + delta
        if count:
            self.counts[key] = count
        else:
            del self.counts[key]
        self._heights = None

    def grow(self, delta: int) -> None:
        """The tree grew by ``delta`` levels: every code shifted left by
        ``delta``, so its height rises by ``delta``.  From six levels up
        the slice is unchanged; below six a slice is the whole code, so
        it shifts along until the tree reaches six levels."""
        old = slice_shift(self.tree_height)
        self.tree_height += delta
        moved = delta - (slice_shift(self.tree_height) - old)
        self.counts = {
            (height + delta, position << moved): count
            for (height, position), count in self.counts.items()
        }
        self._heights = None

    def heights(self) -> frozenset[int]:
        """The distinct node heights present."""
        if self._heights is None:
            self._heights = frozenset(height for height, _slice in self.counts)
        return self._heights

    def copy(self) -> "PositionHistogram":
        duplicate = PositionHistogram(self.tree_height, dict(self.counts))
        duplicate._heights = self._heights
        return duplicate

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PositionHistogram):
            return NotImplemented
        return self.tree_height == other.tree_height and self.counts == other.counts

    def __repr__(self) -> str:
        return (
            f"<PositionHistogram H={self.tree_height} "
            f"cells={len(self.counts)} n={sum(self.counts.values())}>"
        )
