"""The paper's Section 4: one benchmark per experiment of :mod:`.paper`.

Each test runs every point of its experiment inside
``benchmark.pedantic``, asserts the per-point result counts and the
paper's shape, and only then writes the experiment's result files to
``benchmarks/results/`` — a failed or interrupted run leaves the
committed files as they were.  ``REPRO_BENCH_SCALE`` scales the data;
``REPRO_BENCH_PAPER_SIZES=1`` gives fig6g/fig6h the paper's sizes.
"""

import pytest

from .common import scale
from .paper import EXPERIMENTS, run, write


@pytest.mark.parametrize("key", EXPERIMENTS)
def test_experiment(benchmark, key):
    experiment = EXPERIMENTS[key]
    rows = run(
        experiment,
        scale(),
        lambda job: benchmark.pedantic(job, rounds=1, iterations=1),
    )
    experiment.check(rows)
    write(experiment, rows)
