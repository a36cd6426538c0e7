"""Independent reference implementations the suites check ``repro`` against.

Nothing under ``src/`` imports these modules: each one is a second way
to compute what the engine computes, kept only so differential tests
have something to disagree with.
"""

from repro.core.binarize import binarize
from repro.core.update import UpdatableEncoding
from repro.datatree.node import DataTree

from .nested_intervals import NestedIntervalEncoding

__all__ = ["ENCODINGS", "NestedIntervalEncoding", "pbitree_encoding"]


def pbitree_encoding(
    tree: DataTree, *, min_height: int = 1, allow_growth: bool = True
) -> UpdatableEncoding:
    """The engine's encoding, built the way ``db.load_tree`` builds it,
    behind the oracle's constructor signature."""
    return UpdatableEncoding(
        binarize(tree, min_height=min_height), allow_growth=allow_growth
    )


#: both labellings by test id: the paper's PBiTree codes and the
#: nested-interval oracle; each is ``encode(tree, *, min_height,
#: allow_growth)`` and announces its mutations to ``listeners``
ENCODINGS = {
    "pbitree": pbitree_encoding,
    "nested-intervals": NestedIntervalEncoding,
}
