#!/usr/bin/env python3
"""Regenerate every table and figure of the paper's Section 4, without pytest.

A thin CLI over the experiment table that ``benchmarks/bench_paper.py``
runs (``benchmarks/paper.py``)::

    python scripts/run_experiments.py                     # default scale
    python scripts/run_experiments.py --scale 0.3         # quicker
    python scripts/run_experiments.py --only fig6a fig6e  # a subset

Writes and prints the same result files, into ``--out`` (default
``experiment_output/``); ``REPRO_BENCH_PAPER_SIZES=1`` works as under
pytest.  The paper's shape is reported, not asserted: below the default
scale the data fits the buffer pool and partitioning has nothing to win.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.paper import EXPERIMENTS, run, write  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", default="experiment_output")
    parser.add_argument("--only", nargs="*", default=None, choices=list(EXPERIMENTS))
    args = parser.parse_args(argv)

    out_dir = Path(args.out)
    written = 0
    for key in args.only or EXPERIMENTS:
        experiment = EXPERIMENTS[key]
        start = time.perf_counter()
        rows = run(experiment, args.scale)
        written += len(write(experiment, rows, out_dir))
        try:
            experiment.check(rows)
            shape = "the paper's shape holds"
        except AssertionError as failure:
            shape = f"the paper's shape does not hold: {failure}"
        print(f"[{key}: {time.perf_counter() - start:.1f}s; {shape}]")
    print(f"\nwrote {written} result files to {out_dir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
