"""The seed-driven document shared by ``service_closed`` and ``update_mix``.

Every seed gets the same 2000-node *shape* — ``random_tree(nodes,
max_fanout=5, seed=SHAPE_SEED)`` — and its own *labelling*: the run
seed shuffles a balanced multiset of the four tags over the nodes.  The
root is pinned to ``a`` and its first three children to ``b``, ``c``,
``d``.

Why not ``random_tree(2000, 5, seed)`` as is: it draws shape and tags
together, and which tag lands on the root decides which paths of the
mix roll their ancestors up to full height and verify hundreds of false
hits per result.  Measured over ten seeds that alone moved service
throughput between 11.6 and 18.1 queries/s (IQR 23 % of the median) —
no 10-20 % regression bound survives it.  Pinning the shape and the top
of each tag fixes the *cost class* of every path; the seed still moves
which elements match, every result count and every false-hit count.
"""

from __future__ import annotations

import random

from repro.datatree.builder import random_tree
from repro.datatree.node import DataTree

__all__ = ["PATH_MIX", "TAGS", "seeded_corpus", "brute_force_matches"]

TAGS = ("a", "b", "c", "d")
#: Figure 6(b)-style descendant chains (scripts/bench_service.py's mix)
PATH_MIX = ("//a//b", "//a//b//c", "//b//d", "//c//d", "//a//c//d")
SHAPE_SEED = 2003


def seeded_corpus(seed: int, nodes: int) -> DataTree:
    """The shared shape, labelled by ``seed`` (see module docstring)."""
    tree = random_tree(nodes, max_fanout=5, seed=SHAPE_SEED, tags=TAGS)
    pinned = [tree.root, *tree.children[tree.root][: len(TAGS) - 1]]
    if len(pinned) != len(TAGS):
        raise ValueError(f"a {nodes}-node shape whose root has under 3 children")
    free = [node for node in range(len(tree)) if node not in pinned]
    labels = [TAGS[index % len(TAGS)] for index in range(len(free))]
    random.Random(seed).shuffle(labels)
    for node, tag in zip(pinned + free, list(TAGS) + labels):
        tree.tags[node] = tag
    return tree


def brute_force_matches(tree: DataTree, alive, path: str) -> set[int]:
    """Node ids a ``//x//y//z`` chain selects, by walking parent links.

    Greedy prefix matching down each root-to-node path (earliest match
    is optimal for a subsequence); node ids grow away from the root, so
    one ascending sweep sees every parent before its children.
    """
    steps = path.strip("/").split("//")
    last = len(steps) - 1
    #: steps matched by the strict ancestors of each node (capped at ``last``)
    above = [0] * len(tree)
    matches = set()
    for node in range(len(tree)):
        if not alive(node):
            continue
        parent = tree.parents[node]
        if parent >= 0:
            matched = above[parent]
            if matched < last and tree.tags[parent] == steps[matched]:
                matched += 1
            above[node] = matched
        if above[node] == last and tree.tags[node] == steps[last]:
            matches.add(node)
    return matches
