"""The positional histogram counted the plain way: one scan, one ``Counter``.

:class:`~repro.storage.histogram.PositionHistogram` builds its
``(height, slice) -> count`` cells with a bulk heights pass and then
keeps them exact by maintenance rules (one count per insert or delete,
a shift per tree growth).  The functions here count the same cells from
the codes alone — the height as the code's trailing zero bits, the
slice as its top six bits — so those rules have something independent
to agree with.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

__all__ = ["position_counts", "scanned_counts"]


def position_counts(
    codes: Iterable[int], tree_height: int
) -> dict[tuple[int, int], int]:
    """``(height, slice) -> count`` of ``codes`` in a height-``tree_height``
    PBiTree."""
    shift = max(0, tree_height - 6)
    return dict(
        Counter(((code & -code).bit_length() - 1, code >> shift) for code in codes)
    )


def scanned_counts(elements) -> dict[tuple[int, int], int]:
    """The cells a full scan of an element set's pages gives."""
    return position_counts(elements.scan(), elements.tree_height)
