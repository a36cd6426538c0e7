"""Containment-query decomposition over data trees.

XML queries with structural conditions decompose into chains of
containment joins ([12] in the paper; e.g. ``//a//b//c`` is two joins).
This module provides:

* :func:`select_by_tag` — build the element *sets* (ancestor set /
  descendant set) a containment join consumes, as lists of PBiTree
  codes;
* :class:`PathQuery` — parse a ``//a//b//c`` style descendant-axis path
  and evaluate it either navigationally (ground truth) or as a chain of
  containment joins through a user-supplied join function.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Sequence

from ..core import pbitree
from .node import DataTree

__all__ = ["select_by_tag", "PathQuery", "XPathSyntaxError", "brute_force_join"]

JoinFunc = Callable[[Sequence[int], Sequence[int]], Iterable[tuple[int, int]]]


def select_by_tag(tree: DataTree, tag: str) -> list[int]:
    """PBiTree codes of all elements with ``tag``, in document order.

    The tree must have been encoded (see :func:`repro.core.binarize.binarize`).
    """
    return [tree.codes[node] for node in tree.iter_by_tag(tag)]


#: an element name as :func:`repro.datatree.xml_parser.parse_xml` reads
#: one (``str.isalnum()`` characters, ``_``, ``-``, ``.`` and ``:``); the
#: one tag rule of the parser, :class:`PathQuery` and the XPath grammar
TAG_NAME = r"[\w.:-]+"
_TAG = re.compile(TAG_NAME)


class XPathSyntaxError(ValueError):
    """Raised on unsupported or malformed path syntax."""


class PathQuery:
    """A descendant-axis path query like ``//section//figure``.

    Only the containment (``//``) axis is supported — the operation the
    paper addresses.  ``steps`` is the tag chain, outermost first; a
    step that is not an element name (a child axis, a predicate, a
    wildcard) raises :class:`XPathSyntaxError`.
    """

    def __init__(self, path: str) -> None:
        if not path.startswith("//"):
            raise ValueError(f"only descendant-axis paths are supported: {path!r}")
        steps = [step for step in path.split("//") if step]
        if not steps:
            raise ValueError(f"empty path: {path!r}")
        for step in steps:
            if _TAG.fullmatch(step) is None:
                raise XPathSyntaxError(
                    f"step {step!r} of {path!r} is not an element name "
                    "(only //name//name chains run as containment joins)"
                )
        self.steps = steps
        self.path = path

    # ------------------------------------------------------------------
    def evaluate_navigational(self, tree: DataTree) -> list[int]:
        """Ground-truth evaluation by tree navigation.

        Returns the codes of elements matching the final step, in
        document order, de-duplicated.
        """
        frontier = list(tree.iter_by_tag(self.steps[0]))
        for tag in self.steps[1:]:
            next_frontier: list[int] = []
            seen: set[int] = set()
            for node in frontier:
                for desc in tree.descendants_of(node):
                    if tree.tags[desc] == tag and desc not in seen:
                        seen.add(desc)
                        next_frontier.append(desc)
            frontier = sorted(next_frontier)
        return [tree.codes[node] for node in frontier]

    def evaluate_with_joins(self, tree: DataTree, join: JoinFunc) -> list[int]:
        """Evaluate the path as a chain of containment joins.

        ``join(ancestors, descendants)`` must yield ``(a, d)`` code pairs
        with ``a`` an ancestor of ``d`` — any algorithm from
        :mod:`repro.join` (via a small adapter) qualifies.  Returns the
        final-step codes sorted in code order.
        """
        current = select_by_tag(tree, self.steps[0])
        for tag in self.steps[1:]:
            descendants = select_by_tag(tree, tag)
            matched = {d for _, d in join(current, descendants)}
            current = sorted(matched)
        return current

    def containment_join_pairs(self, tree: DataTree) -> list[tuple[list[int], list[int]]]:
        """The (ancestor set, descendant set) inputs of each join step."""
        pairs = []
        for anc_tag, desc_tag in zip(self.steps, self.steps[1:]):
            pairs.append((select_by_tag(tree, anc_tag), select_by_tag(tree, desc_tag)))
        return pairs

    def __repr__(self) -> str:
        return f"PathQuery({self.path!r})"


def brute_force_join(
    ancestors: Sequence[int], descendants: Sequence[int]
) -> list[tuple[int, int]]:
    """O(|A|·|D|) reference containment join on code lists.

    The correctness oracle used in tests and by
    :meth:`PathQuery.evaluate_with_joins` demos.
    """
    return [
        (a, d)
        for a in ancestors
        for d in descendants
        if pbitree.is_ancestor(a, d)
    ]


__all__.append("brute_force_join")
