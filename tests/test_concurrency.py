"""Regression tests for the concurrency bugs the service tier flushed out.

Each class pins one fix:

* :class:`TestMetricsHammer` — MetricsRegistry counters/gauges/
  histograms were plain ``+=`` read-modify-write; N threads hammering
  one registry must produce *exact* totals, not approximately-right
  ones that pass on a lucky interleaving.
* :class:`TestStaleGuardAtomicity` — a probe of a retired index
  raises instead of answering from pre-update pages.  (Queries and
  updates are serialized by the service's storage lock, so a retire
  never lands inside a probe.)
* :class:`TestLazyScanRetire` — the lazy ``range_scan`` generators
  only checked freshness at the descent, so a retire landing mid-scan
  let the leaf-chain walk silently complete with pre-retirement
  entries; freshness is now checked leaf-at-a-time.
"""

import threading

import pytest

from repro.index.bptree import BPlusTree
from repro.index.staleness import StaleGuard, StaleIndexError
from repro.obs.metrics import MetricsRegistry
from repro.storage.buffer import BufferManager
from repro.storage.disk import DiskManager

THREADS = 8
ROUNDS = 2_000


def run_threads(targets):
    """Start all targets, join all, re-raise the first worker error."""
    errors = []

    def wrap(fn):
        def inner():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - test harness
                errors.append(exc)

        return inner

    threads = [threading.Thread(target=wrap(fn)) for fn in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestMetricsHammer:
    def test_counter_totals_are_exact(self):
        registry = MetricsRegistry()
        barrier = threading.Barrier(THREADS)

        def hammer():
            barrier.wait()
            for _ in range(ROUNDS):
                # same counter object from every thread, plus a fresh
                # lookup each round to stress _get_or_create as well
                registry.counter("hammer.shared").inc()
                registry.counter("hammer.shared").inc(3)

        run_threads([hammer] * THREADS)
        assert registry.counter("hammer.shared").value == THREADS * ROUNDS * 4

    def test_gauge_add_is_atomic(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("hammer.gauge")
        barrier = threading.Barrier(THREADS)

        def hammer():
            barrier.wait()
            for _ in range(ROUNDS):
                gauge.add(1.0)

        run_threads([hammer] * THREADS)
        assert gauge.value == float(THREADS * ROUNDS)

    def test_histogram_count_and_total_are_exact(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("hammer.hist")
        barrier = threading.Barrier(THREADS)

        def hammer():
            barrier.wait()
            for value in range(ROUNDS):
                histogram.observe(float(value % 7))

        run_threads([hammer] * THREADS)
        assert histogram.count == THREADS * ROUNDS
        expected_total = THREADS * sum(value % 7 for value in range(ROUNDS))
        assert histogram.total == pytest.approx(float(expected_total))
        assert sum(histogram.bucket_counts) == THREADS * ROUNDS

    def test_registry_creation_race_yields_one_metric(self):
        registry = MetricsRegistry()
        barrier = threading.Barrier(THREADS)
        seen = []
        lock = threading.Lock()

        def create():
            barrier.wait()
            counter = registry.counter("race.single")
            counter.inc()
            with lock:
                seen.append(counter)

        run_threads([create] * THREADS)
        assert len({id(c) for c in seen}) == 1
        assert registry.counter("race.single").value == THREADS


class _GuardedIndex(StaleGuard):
    """Minimal probe host: the probe checks freshness first."""

    def __init__(self):
        self.answer = "fresh"

    def probe(self):
        self.check_fresh()
        return self.answer


class TestStaleGuardAtomicity:
    def test_probe_after_retire_raises(self):
        index = _GuardedIndex()
        assert index.probe() == "fresh"
        index.mark_stale("element set changed")
        assert index.is_stale
        with pytest.raises(StaleIndexError, match="element set changed"):
            index.probe()


# ----------------------------------------------------------------------
class TestLazyScanRetire:
    """A lazy range scan must not silently outlive a retirement.

    ``range_scan`` is a generator, so one check at its first pull
    does not cover the pulls after it; the fix re-checks freshness
    before every leaf access.  Pre-fix, only the descent was checked:
    a ``mark_stale`` landing while the scan was suspended let the
    leaf-chain walk run to completion and silently yield
    pre-retirement answers.
    """

    ENTRIES = 500  # page_size=128 -> ~7 leaf entries/page, many leaves

    def _index(self):
        bufmgr = BufferManager(DiskManager(page_size=128), 32)
        entries = [(i, i * 10) for i in range(self.ENTRIES)]
        return BPlusTree.bulk_load(bufmgr, entries, name="ptr")

    def test_retire_mid_scan_raises_at_next_leaf(self):
        index = self._index()
        scan = index.range_scan(0, 1 << 62)
        consumed = [next(scan)]
        index.mark_stale("element set changed mid-scan")
        with pytest.raises(StaleIndexError):
            for entry in scan:
                consumed.append(entry)
        # the scan died at the next leaf boundary — everything it
        # produced was read while the index was still fresh
        assert 0 < len(consumed) < self.ENTRIES

    def test_scan_started_after_retire_raises_on_first_pull(self):
        index = self._index()
        index.mark_stale("retired before the scan ran")
        scan = index.range_scan(0, 1 << 62)
        with pytest.raises(StaleIndexError):
            next(scan)
