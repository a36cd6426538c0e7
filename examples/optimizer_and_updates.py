#!/usr/bin/env python3
"""The extended toolkit: EXPLAIN and in-place updates.

Demonstrates the two Section-6 "future work" directions this library
implements beyond the paper's evaluated core:

1. **EXPLAIN** — the plan ``db.query`` follows for each join step:
   Table 1's cell, the cost model's ranking of the candidates inside
   it, and every other algorithm's estimate with why it was not
   considered;
2. **updates through virtual nodes** — inserting new publications into
   a live document without rebuilding the coding, then re-running the
   same query.
"""

from repro.db import ContainmentDatabase
from repro.workloads import dblp


def main() -> None:
    db = ContainmentDatabase(buffer_pages=32)
    tree = dblp.generate_tree(num_publications=3000, seed=11)
    doc = db.load_tree(tree, name="dblp")
    print(f"loaded {doc}: {len(tree):,} nodes\n")

    # --- EXPLAIN ---------------------------------------------------------
    path = "//article//author"
    print(f"EXPLAIN {path}")
    print(db.explain(doc, path))

    result = db.query(doc, path)
    print(
        f"\nexecuted: {len(result):,} matches, "
        f"{result.reports[0].algorithm} chosen, "
        f"{result.total_io} page I/Os\n"
    )

    # --- updates ----------------------------------------------------------
    print("inserting 500 new articles (virtual-node fast path) ...")
    for i in range(500):
        article = db.insert_element(doc, tree.root, "article")
        db.insert_element(doc, article, "title")
        db.insert_element(doc, article, "author")
    stats = doc.updatable.stats
    print(
        f"  update stats: {stats.inserts} inserts, "
        f"{stats.local_relabels} local relabels "
        f"({stats.relabelled_nodes} nodes touched), "
        f"{stats.tree_growths} tree growths"
    )

    before = len(result)
    result = db.query(doc, path)
    print(
        f"re-ran {path}: {len(result):,} matches "
        f"(+{len(result) - before} from the inserted articles)"
    )

    # --- deletes -----------------------------------------------------------
    victim = next(tree.iter_by_tag("article"))
    removed = db.delete_element(doc, victim)
    result = db.query(doc, path)
    print(f"deleted one article subtree ({removed} elements); "
          f"query now returns {len(result):,} matches")


if __name__ == "__main__":
    main()
