"""Metrics registry: one namespace for every counter the system keeps.

:class:`IOStats`, the buffer pool's hit/miss counters, the fault
injector's retry/giveup tallies and per-operator output cardinalities
each live on their own object; :class:`MetricsRegistry` unifies them
behind three metric kinds —

* :class:`Counter` — monotonically increasing integer (``inc``);
* :class:`Gauge` — last-written float (``set``);
* :class:`Histogram` — bucketed distribution (``observe``), used for
  seek distances and per-run I/O;

— plus ``record_*`` adapters that fold the existing sources in.  A
registry can also :meth:`~MetricsRegistry.attach_disk` to a
:class:`~repro.storage.disk.DiskManager` to observe every page transfer
live (per-op counters and a seek-distance histogram, the observable
behind the sequential/random split).

Everything is dependency-free and renders to a plain dict
(:meth:`~MetricsRegistry.as_dict`) for the JSON exporters.

Every metric is **thread-safe**: ``inc``/``set``/``observe`` are
read-modify-write sequences (``self.value += amount`` is three
bytecodes), so two threads incrementing the same counter can lose
updates without a lock.  The service tier hammers one registry from
many concurrent queries; each metric therefore carries its own lock
and the registry guards its name table, so concurrent totals are
exact (see tests/test_concurrency.py).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Optional, Sequence, TypeVar, Union, cast

from ..storage.stats import IOSnapshot

if TYPE_CHECKING:
    from ..join.base import JoinReport
    from ..storage.buffer import BufferManager
    from ..storage.disk import DiskManager

__all__ = ["Counter", "Gauge", "Histogram", "Metric", "MetricsRegistry"]


class Counter:
    """Monotonic integer counter (thread-safe)."""

    kind = "counter"
    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self.value += amount

    def as_value(self) -> object:
        return self.value


class Gauge:
    """Last-written float value (thread-safe)."""

    kind = "gauge"
    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def add(self, amount: float) -> None:
        """Atomic read-modify-write delta (per-tenant accumulators)."""
        with self._lock:
            self.value += amount

    def as_value(self) -> object:
        return self.value


#: default histogram bucket upper bounds (page distances / page counts)
DEFAULT_BUCKETS = (1, 4, 16, 64, 256, 1024, 4096)


class Histogram:
    """Fixed-bucket histogram with count/total/min/max (thread-safe)."""

    kind = "histogram"
    __slots__ = (
        "name", "bounds", "bucket_counts", "count", "total", "min", "max",
        "_lock",
    )

    def __init__(self, name: str, bounds: Sequence[int] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.bounds = tuple(sorted(bounds))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        # one count per bound plus the overflow bucket
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            self.min = min(self.min, value)
            self.max = max(self.max, value)
            for index, bound in enumerate(self.bounds):
                if value <= bound:
                    self.bucket_counts[index] += 1
                    return
            self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_value(self) -> object:
        buckets: dict[str, int] = {
            f"<={bound}": count
            for bound, count in zip(self.bounds, self.bucket_counts)
        }
        buckets["inf"] = self.bucket_counts[-1]
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "buckets": buckets,
        }


Metric = Union[Counter, Gauge, Histogram]

_M = TypeVar("_M", Counter, Gauge, Histogram)


class MetricsRegistry:
    """Named metrics plus adapters for the system's existing counters."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._disk_head: int = -1
        # registry lock: guards the name table (get-or-create races) and
        # the disk-head position of the attach_disk observer; individual
        # metric mutation is covered by the per-metric locks.
        self._lock = threading.RLock()

    # -- get-or-create ---------------------------------------------------
    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge(name))

    def histogram(
        self, name: str, bounds: Sequence[int] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get_or_create(name, Histogram(name, bounds))

    def _get_or_create(self, name: str, fresh: _M) -> _M:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is None:
                self._metrics[name] = fresh
                return fresh
        if existing.kind != fresh.kind:
            raise ValueError(
                f"metric {name!r} already registered as a {existing.kind}, "
                f"requested as a {fresh.kind}"
            )
        return cast("_M", existing)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    # -- adapters over the existing observability sources ---------------
    def record_io(self, snapshot: IOSnapshot, prefix: str = "io") -> None:
        """Fold an :class:`IOSnapshot` (or delta) into counters."""
        self.counter(f"{prefix}.reads").inc(snapshot.reads)
        self.counter(f"{prefix}.writes").inc(snapshot.writes)
        self.counter(f"{prefix}.random_reads").inc(snapshot.random_reads)
        self.counter(f"{prefix}.sequential_reads").inc(snapshot.sequential_reads)
        self.counter(f"{prefix}.allocations").inc(snapshot.allocations)
        self.counter(f"{prefix}.retries").inc(snapshot.retries)
        self.counter(f"{prefix}.giveups").inc(snapshot.giveups)

    def record_buffer(self, bufmgr: "BufferManager") -> None:
        """Current buffer-pool hit/miss counts and hit rate, as gauges."""
        self.gauge("buffer.hits").set(bufmgr.hits)
        self.gauge("buffer.misses").set(bufmgr.misses)
        self.gauge("buffer.hit_rate").set(bufmgr.hit_rate)
        self.gauge("buffer.resident").set(bufmgr.num_resident)
        self.gauge("buffer.pinned").set(bufmgr.num_pinned)

    def record_report(self, report: "JoinReport", dataset: str = "") -> None:
        """Per-operator output cardinality and I/O from a join report."""
        prefix = f"join.{report.algorithm}"
        self.counter(f"{prefix}.runs").inc()
        self.counter(f"{prefix}.results").inc(report.result_count)
        self.counter(f"{prefix}.false_hits").inc(report.false_hits)
        total = report.total_io
        self.counter(f"{prefix}.io").inc(total.total)
        self.counter(f"{prefix}.prep_io").inc(report.prep_io.total)
        self.counter(f"{prefix}.join_io").inc(report.join_io.total)
        self.counter(f"{prefix}.random_reads").inc(total.random_reads)
        self.counter(f"{prefix}.retries").inc(total.retries)
        self.counter(f"{prefix}.giveups").inc(total.giveups)
        self.counter(f"{prefix}.buffer_hits").inc(report.buffer_hits)
        self.counter(f"{prefix}.buffer_misses").inc(report.buffer_misses)
        self.histogram(f"{prefix}.io_per_run").observe(total.total)
        if dataset:
            self.counter(f"{prefix}.{dataset}.io").inc(total.total)

    def attach_disk(self, disk: "DiskManager") -> None:
        """Observe every page transfer of ``disk`` live.

        Registers per-operation counters (``disk.reads`` /
        ``disk.writes`` / ``disk.allocations``) and a seek-distance
        histogram (``disk.seek_distance``, in pages, 0 = the head did
        not move between consecutive transfers).
        """
        reads = self.counter("disk.reads")
        writes = self.counter("disk.writes")
        allocations = self.counter("disk.allocations")
        seeks = self.histogram("disk.seek_distance", (0, 1, 4, 16, 64, 256, 1024))

        def observe(operation: str, page_id: int) -> None:
            if operation == "read":
                reads.inc()
            elif operation == "write":
                writes.inc()
            else:
                allocations.inc()
                return  # allocations are not head movement
            with self._lock:
                if self._disk_head >= 0:
                    seeks.observe(abs(page_id - self._disk_head))
                self._disk_head = page_id

        disk.set_observer(observe)

    # -- export ----------------------------------------------------------
    def as_dict(self) -> dict[str, object]:
        """Flat name -> value mapping (histograms expand to sub-dicts)."""
        return {name: self._metrics[name].as_value() for name in self.names()}

    def render(self) -> str:
        """Human-readable listing, one metric per line."""
        lines = []
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                lines.append(
                    f"{name:<40} histogram count={metric.count} "
                    f"mean={metric.mean:.1f} max={metric.max if metric.count else 0:.0f}"
                )
            else:
                value = metric.value
                rendered = f"{value:.3f}" if isinstance(value, float) else str(value)
                lines.append(f"{name:<40} {metric.kind} {rendered}")
        return "\n".join(lines)
