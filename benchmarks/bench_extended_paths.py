"""Child steps, predicates and ``*`` on the one path pipeline.

Runs ``//a/b``, ``//a/b/c``, ``//a[b]//c``, ``//a[.//b]`` and
``//a//*`` — plus the descendant chain ``//a//b//c`` they are compared
with — through ``db.query`` on the ledger's seeded corpus
(``benchmarks/ledger/corpus.py``) at 2,000 and 20,000 nodes, a 64-page
pool.  Each path gets a fresh database, one warm-up query (it
materialises the element sets) and one measured query.

The committed table (``benchmarks/results/extended_paths.txt``) holds
what is deterministic: matches, the steps' operators and their page
I/O.  Wall times (median of five in-process runs) are printed, never
written.  At 2,000 nodes every answer is checked against the
navigational oracle::

    PYTHONPATH=src python -m pytest -s benchmarks/bench_extended_paths.py
    git diff --exit-code benchmarks/results/extended_paths.txt
"""

import statistics
import time

import pytest

from repro.db import ContainmentDatabase
from repro.experiments.report import format_table
from tests.oracles.navigate import navigate

from .common import SEED, save_result
from .ledger.corpus import seeded_corpus

PATHS = ("//a//b//c", "//a/b", "//a/b/c", "//a[b]//c", "//a[.//b]", "//a//*")
SIZES = (2_000, 20_000)
BUFFER_PAGES = 64
RUNS = 5

ROWS: list[list[object]] = []
WALLS: list[str] = []


@pytest.mark.parametrize("nodes", SIZES)
def test_extended_paths(benchmark, nodes):
    walls = {}

    def run_all():
        for path in PATHS:
            db = ContainmentDatabase(buffer_pages=BUFFER_PAGES)
            document = db.load_tree(seeded_corpus(SEED, nodes))
            db.query(document, path)
            result = db.query(document, path)
            timings = []
            for _ in range(RUNS):
                started = time.perf_counter()
                db.query(document, path)
                timings.append(time.perf_counter() - started)
            walls[path] = statistics.median(timings)
            if nodes == SIZES[0]:
                assert sorted(node.id for node in result) == navigate(
                    document.tree, path
                ), path
            ROWS.append([
                nodes,
                path,
                len(result),
                " + ".join(report.algorithm for report in result.reports),
                result.total_io,
            ])

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    reference = walls["//a//b//c"]
    for path in PATHS:
        WALLS.append(
            f"{nodes:>6} {path:<10} {walls[path] * 1e3:8.1f} ms  "
            f"{walls[path] / reference:4.2f}x //a//b//c"
        )


@pytest.fixture(scope="module", autouse=True)
def emit_table():
    yield
    if ROWS:
        save_result(
            "extended_paths",
            format_table(
                ["nodes", "path", "matches", "steps", "page io"],
                ROWS,
                title=(
                    "Child steps, predicates and * as path-pipeline "
                    f"semijoins (ledger corpus, {BUFFER_PAGES}-page pool)"
                ),
            ),
        )
        print("\nin-process wall, median of", RUNS, "(not committed):")
        print("\n".join(WALLS))
