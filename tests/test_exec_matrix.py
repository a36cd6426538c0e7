"""The execution-mode matrix: one line-up, every configuration.

No value of :class:`~repro.core.execconfig.ExecConfig` and no fan-out
mode may change what a join computes or what it reads — only how fast.
Every cell of

    {batch 0 | 1024} x {flat off | on} x {sanitize off | on}
        x {serial, workers=2, shards=2}

runs the Figure 6(b) line-up and is held field-for-field equal to the
scalar, pointer-index, unsanitized serial reference; the Figure 6(a)
single-height line-up (SHCJ in place of MHCJ+Rollup) rides along on the
batch axis, the only one with SHCJ-specific code.  (Sharded
reports are comparable only to sharded ones — each slot runs cold on a
private bench — so those cells compare against ``shards=1`` under the
reference configuration.)  This replaces the per-feature copies of the
same test in the batch / flat-index / sanitizer suites.
"""

import functools
import itertools

import pytest

from repro.core.execconfig import ExecConfig, current, exec_scope
from repro.experiments import harness
from repro.experiments.harness import make_lineup, run_lineup
from repro.obs.metrics import MetricsRegistry
from repro.parallel.pool import WorkerPool
from repro.parallel.tasks import SlotJoinTask, run_slot_join_task
from repro.storage.faults import FaultConfig, RetryPolicy

from .differential import assert_lineups_equal, lineup_inputs

REFERENCE = ExecConfig(batch_size=0)

CONFIGS = [
    ExecConfig(batch_size=batch_size, flat_index=flat_index, sanitize=sanitize)
    for batch_size, flat_index, sanitize in itertools.product(
        (0, 1024), (False, True), (False, True)
    )
]

#: (configuration, single-height line-up?)
CELLS = [(cfg, False) for cfg in CONFIGS] + [
    (ExecConfig(batch_size=batch_size), True) for batch_size in (0, 1024)
]

#: fan-out mode -> (run_lineup kwargs, shard count of the reference run)
MODES = {
    "serial": ({}, 0),
    "workers=2": ({"workers": 2}, 0),
    "shards=2": ({"shards": 2}, 1),
}


def cell_id(cell):
    cfg, single_height = cell
    return (
        f"{'SH' if single_height else 'MH'}-batch{cfg.batch_size}-"
        f"{'flat' if cfg.flat_index else 'pointer'}-"
        f"{'sanitized' if cfg.sanitize else 'plain'}"
    )


def lineup(single_height, cfg, metrics=None, **mode):
    a_codes, d_codes, tree_height = lineup_inputs(single_height)
    return run_lineup(
        "matrix",
        a_codes,
        d_codes,
        tree_height,
        buffer_pages=8,
        page_size=128,
        algorithms=make_lineup(single_height),
        collect=True,
        metrics=metrics,
        exec=cfg,
        **mode,
    )


@functools.lru_cache(maxsize=None)
def reference(single_height, shards):
    return lineup(single_height, REFERENCE, shards=shards)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_every_cell_equals_the_scalar_serial_reference(cell, mode):
    cfg, single_height = cell
    mode_kwargs, reference_shards = MODES[mode]
    metrics = MetricsRegistry()
    actual = lineup(single_height, cfg, metrics=metrics, **mode_kwargs)
    expected = reference(single_height, reference_shards)
    assert_lineups_equal(actual, expected, f"under {cfg} / {mode}")
    gauges = metrics.as_dict()
    assert gauges["batch.size"] == float(cfg.batch_size)
    assert gauges["flat.index"] == float(cfg.flat_index)
    assert gauges["sanitize.enabled"] == float(cfg.sanitize)


def test_exec_defaults_to_the_callers_scope():
    metrics = MetricsRegistry()
    with exec_scope(batch_size=256, flat_index=True):
        lineup(False, None, metrics=metrics)
    assert metrics.gauge("batch.size").value == 256.0
    assert metrics.gauge("flat.index").value == 1.0


@pytest.mark.parametrize("mode", MODES)
def test_bench_gauges_recorded_in_every_mode(mode):
    """``shards=N`` used to drop the slot benches' buffer/fault gauges."""
    metrics = MetricsRegistry()
    a_codes, d_codes, tree_height = lineup_inputs()
    kwargs = dict(MODES[mode][0])
    if "workers" in kwargs:
        kwargs["parallel_mode"] = "inline"
    run_lineup(
        "gauges",
        a_codes,
        d_codes,
        tree_height,
        buffer_pages=8,
        page_size=128,
        single_height=False,
        metrics=metrics,
        faults=FaultConfig(seed=5, read_error_rate=0.02),
        retry=RetryPolicy(max_attempts=8),
        **kwargs,
    )
    names = {
        name
        for name in metrics.names()
        if name.startswith(("buffer.", "faults.", "batch.", "flat.", "sanitize."))
    }
    assert names == {
        "batch.size",
        "flat.index",
        "sanitize.enabled",
        "buffer.hits",
        "buffer.misses",
        "buffer.hit_rate",
        "buffer.resident",
        "buffer.pinned",
        "faults.injected",
        "faults.read_errors",
        "faults.write_errors",
        "faults.torn_reads",
    }
    hits = metrics.gauge("buffer.hits").value
    misses = metrics.gauge("buffer.misses").value
    assert hits > 0 and misses > 0
    assert metrics.gauge("buffer.hit_rate").value == pytest.approx(
        hits / (hits + misses)
    )
    assert metrics.gauge("faults.injected").value > 0


# ----------------------------------------------------------------------
# the configuration reaches process workers as task data
# ----------------------------------------------------------------------
def _run_and_observe(task):
    """Worker side: run the task, report the configuration the join ran
    under and the one left behind afterwards."""
    seen = []
    original = harness.run_algorithm

    def spy(*args, **kwargs):
        seen.append(current())
        return original(*args, **kwargs)

    harness.run_algorithm = spy  # this (forked) process only
    try:
        result = run_slot_join_task(task)
    finally:
        harness.run_algorithm = original
    return seen, current(), result["report"].result_count


def test_non_default_config_reaches_process_worker_without_module_state():
    a_codes, d_codes, tree_height = lineup_inputs()
    shipped = ExecConfig(batch_size=7, flat_index=True, sanitize=True)
    task = SlotJoinTask(
        label="ship",
        algorithm="INLJN",
        a_codes=a_codes,
        d_codes=d_codes,
        tree_height=tree_height,
        buffer_pages=8,
        page_size=128,
        collect=False,
        faults=None,
        retry=None,
        traced=False,
        exec=shipped,
    )
    before = current()
    assert before != shipped
    pool = WorkerPool(2, mode="process")
    try:
        future = pool.submit(_run_and_observe, task)
        seen, after, count = pool.resolve(future, _run_and_observe, task)
    finally:
        pool.close()
    assert seen == [shipped]  # the join ran under the task's config ...
    assert after == before  # ... which was scoped, not written anywhere
    assert current() == before
    assert count == reference(False, 0).result_count
