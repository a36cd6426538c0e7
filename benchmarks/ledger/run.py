"""The ``command`` of ``BENCHMARK.json``: ``python3 benchmarks/ledger/run.py``.

The driver appends ``--workload <name> --seed <n> --seconds <s> --trace
<0|1>``; this is ``python -m benchmarks.ledger run`` with the checkout's
own ``src`` on the import path.  In a directory that holds only the
benchmark, the ``repro`` import fails and the exit status is non-zero.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

if __name__ == "__main__":
    from benchmarks.ledger.cli import main

    sys.exit(main(["run", *sys.argv[1:]]))
