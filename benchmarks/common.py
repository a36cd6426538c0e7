"""Shared configuration and helpers for the benchmark suite.

Every benchmark regenerates one table or figure and writes its rows to
``benchmarks/results/<name>.txt`` (in addition to pytest-benchmark's
timing table); the paper's Section 4 is the experiment table in
:mod:`benchmarks.paper`.  Scale is controlled by the
``REPRO_BENCH_SCALE`` environment variable (default 1.0 = 50k/500
element sets, the paper's 100:1 Large/Small ratio at laptop size).
"""

from __future__ import annotations

import os
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

#: paper experimental constants (Section 4): 500-page buffer pool; we
#: scale the pool with the data so buffer/data proportions match the
#: paper's 1M-elements-vs-500-pages setup.
DEFAULT_BUFFER_PAGES = 50
DEFAULT_PAGE_SIZE = 1024
SEED = 2003  # the year of the paper


#: the paper's Figure 6(g)/(h) base unit: sizes grow as k*B, B = 50000,
#: so the k = 8 rung joins 400k-element sets on both sides
PAPER_BASE_UNIT = 50_000


def scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def paper_sizes() -> bool:
    """``REPRO_BENCH_PAPER_SIZES=1`` restores the paper's set sizes.

    The scalability sweeps (Figure 6(g)/(h)) then climb k*B with the
    paper's B = 50,000 instead of the laptop-scale default — minutes
    of wall time per sweep, so it is opt-in like ``REPRO_BENCH_SCALE``.
    """
    return bool(os.environ.get("REPRO_BENCH_PAPER_SIZES"))


def large_size(factor: float) -> int:
    return max(1000, int(50_000 * factor))


def small_size(factor: float) -> int:
    return max(50, int(500 * factor))


def save_result(name: str, text: str, directory: Path = RESULTS_DIR) -> Path:
    """Persist a rendered table as ``<directory>/<name>.txt``."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[saved to {path}]")
    return path
