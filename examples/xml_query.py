#!/usr/bin/env python3
"""Evaluate path queries as chains of semijoins over stored element sets.

Generates an XMark-like auction site document, then answers

    //open_auctions//bidder//increase

twice: navigationally (the slow, pointer-chasing ground truth) and
through ``ContainmentDatabase.query``, which runs the path as two
containment semijoins through the storage engine, the way an XML query
processor built on the paper's framework would.  Prints per-step
operator choices and I/O costs, and verifies both answers agree.

The same front door takes the rest of the path grammar: a child step
(``/``) joins on the parent's code, a predicate (``[t]`` / ``[.//t]``)
filters its step first, and ``*`` is any element.
"""

import time

from repro import ContainmentDatabase
from repro.workloads import xmark

QUERY = "//open_auctions//bidder//increase"
EXTENDED = (
    "//open_auction/bidder/increase",
    "//open_auction[.//increase]/initial",
    "//bidder/*",
)


def navigate(tree, tags):
    """Nodes tagged ``tags[-1]`` below a ``tags[-2]`` below ... a
    ``tags[0]``, by walking the tree from every ``tags[0]``."""
    frontier = list(tree.iter_by_tag(tags[0]))
    for tag in tags[1:]:
        frontier = sorted({
            node
            for ancestor in frontier
            for node in tree.descendants_of(ancestor)
            if tree.tags[node] == tag
        })
    return frontier


def main() -> None:
    tree = xmark.generate_tree(scale=0.5, seed=7)
    db = ContainmentDatabase(page_size=1024, buffer_pages=64)
    document = db.load_tree(tree, name="auction")
    print(
        f"XMark-like document: {len(tree):,} nodes, height {tree.height()}, "
        f"PBiTree H = {document.tree_height}"
    )

    # --- navigational ground truth --------------------------------------
    start = time.perf_counter()
    expected = navigate(tree, QUERY.strip("/").split("//"))
    nav_seconds = time.perf_counter() - start
    print(f"\nnavigational evaluation: {len(expected)} matches "
          f"in {nav_seconds * 1e3:.1f} ms")

    # --- join-based evaluation ------------------------------------------
    print(f"\njoin-based evaluation of {QUERY}:")
    start = time.perf_counter()
    result = db.query(document, QUERY)
    join_seconds = time.perf_counter() - start
    for step, report in enumerate(result.reports, 1):
        print(
            f"  step {step}: {report.result_count:>6,} survivors  "
            f"[{report.algorithm}, {report.total_pages} page I/Os, "
            f"false hits {report.false_hits}]"
        )
    got = sorted(node.id for node in result)
    print(f"join evaluation: {len(got)} matches in {join_seconds * 1e3:.1f} ms")

    assert got == expected, "join-based answer diverged from navigation!"
    print("\nanswers agree ✓")

    print("\nthe rest of the grammar, same front door:")
    for path in EXTENDED:
        extended = db.query(document, path)
        steps = ", ".join(report.algorithm for report in extended.reports)
        print(f"  {path:<38} {len(extended):>6,} matches  [{steps}]")
    print(
        f"\ntotal simulated disk traffic: {db.disk.stats.reads} page reads, "
        f"{db.disk.stats.writes} page writes"
    )


if __name__ == "__main__":
    main()
