"""Element sets of a data tree as code lists, and the reference join.

XML queries with structural conditions decompose into chains of
containment joins ([12] in the paper; e.g. ``//a//b//c`` is two joins).
This module provides the in-memory inputs and the oracle of one such
join:

* :func:`select_by_tag` — the element *set* (ancestor set / descendant
  set) a containment join consumes, as a list of PBiTree codes;
* :func:`brute_force_join` — the O(|A|·|D|) containment join on code
  lists every operator is checked against.

Paths themselves are parsed by :class:`repro.datatree.xpath.XPath` and
run by :class:`repro.join.pipeline.PathPipeline`.
"""

from __future__ import annotations

from typing import Sequence

from ..core import pbitree
from .node import DataTree

__all__ = ["select_by_tag", "brute_force_join"]


def select_by_tag(tree: DataTree, tag: str) -> list[int]:
    """PBiTree codes of all elements with ``tag``, in document order.

    The tree must have been encoded (see :func:`repro.core.binarize.binarize`).
    """
    return [tree.codes[node] for node in tree.iter_by_tag(tag)]


def brute_force_join(
    ancestors: Sequence[int], descendants: Sequence[int]
) -> list[tuple[int, int]]:
    """O(|A|·|D|) reference containment join on code lists.

    The correctness oracle the join suites compare every operator with.
    """
    return [
        (a, d)
        for a in ancestors
        for d in descendants
        if pbitree.is_ancestor(a, d)
    ]
