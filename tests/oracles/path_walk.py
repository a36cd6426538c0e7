"""Descendant-axis path matches found by walking parent pointers.

:class:`~repro.join.pipeline.PathPipeline` answers ``//t1//t2//...//tn``
with a chain of containment semijoins over PBiTree codes.  The function
here never looks at a code's bits: for every node tagged ``tn`` it
walks up the data tree's parent pointers and matches ``t_{n-1}, ...,
t1`` greedily, nearest ancestor first — a subsequence test, for which
taking the nearest match is always safe.
"""

from __future__ import annotations

from typing import Sequence

from repro.datatree.node import DataTree

__all__ = ["path_matches"]


def path_matches(tree: DataTree, tags: Sequence[str]) -> list[int]:
    """Sorted codes of the ``tags[-1]`` nodes with a proper-ancestor
    chain tagged ``tags[0], ..., tags[-2]`` in that order, top down."""
    matches = []
    for node, tag in enumerate(tree.tags):
        if tag != tags[-1]:
            continue
        wanted = len(tags) - 2
        parent = tree.parents[node]
        while wanted >= 0 and parent >= 0:
            if tree.tags[parent] == tags[wanted]:
                wanted -= 1
            parent = tree.parents[parent]
        if wanted < 0:
            matches.append(tree.codes[node])
    return sorted(matches)
