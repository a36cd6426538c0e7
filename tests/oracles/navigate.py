"""Path matches found by navigating the data tree, live nodes only.

Every front door (``db.query``, the service in process and over TCP, a
saved image) runs a path as semijoins over PBiTree codes.  The function
here never looks at a code: it walks parent/child pointers the way an
XPath processor over a DOM would, step by step from the whole document,
and skips every node an update deleted.  It is the reference the
path suites compare the engine with, and it is deliberately slow.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.datatree.node import DataTree
from repro.datatree.xpath import Predicate, XPath

__all__ = ["navigate"]


def navigate(
    tree: DataTree,
    path: "str | XPath",
    alive: Optional[Callable[[int], bool]] = None,
) -> list[int]:
    """Node ids matching the final step of ``path``, in id order.

    ``alive(node)`` restricts the walk to the live nodes of an updated
    document (``UpdatableEncoding.is_alive``); without it every node of
    ``tree`` counts.  ``*`` matches any element: not the parser's
    ``@name`` attribute and ``#text`` pseudo-nodes, as in XPath.
    """
    xpath = path if isinstance(path, XPath) else XPath(path)
    live = alive if alive is not None else (lambda node: True)

    def children(node: int) -> Iterable[int]:
        return (child for child in tree.children[node] if live(child))

    def descendants(node: int) -> Iterable[int]:
        # a delete tombstones a whole subtree, so a dead node has no
        # live descendant and filtering the walk loses nothing
        return (child for child in tree.descendants_of(node) if live(child))

    def axis(node: int, name: str) -> Iterable[int]:
        return children(node) if name == "child" else descendants(node)

    def matches(node: int, tag: str) -> bool:
        if tag == "*":
            return not tree.tags[node].startswith(("@", "#"))
        return tree.tags[node] == tag

    def holds(node: int, predicate: Predicate) -> bool:
        return any(
            matches(other, predicate.tag) for other in axis(node, predicate.axis)
        )

    def selected(node: int, step_index: int) -> bool:
        step = xpath.steps[step_index]
        return matches(node, step.tag) and all(
            holds(node, predicate) for predicate in step.predicates
        )

    frontier = sorted(
        node for node in tree.iter_preorder() if live(node) and selected(node, 0)
    )
    for index in range(1, len(xpath.steps)):
        found = {
            candidate
            for node in frontier
            for candidate in axis(node, xpath.steps[index].axis)
            if selected(candidate, index)
        }
        frontier = sorted(found)
    return frontier
