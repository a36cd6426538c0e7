"""Plan cache for the query service: skip re-planning warm paths.

A miss now costs microseconds and no I/O: the direction decision
(:func:`repro.join.pipeline.plan_direction`) reads the positional
histograms every element set carries directly (the ``pipeline.plan``
span; ``planning_io`` is 0 whether the plan was cached or not).  What a hit
still saves is that arithmetic, for a service answering the same
handful of paths thousands of times over a corpus that changes rarely.

The cache therefore keys on everything the plan depends on, following
the stats-driven selection discipline of Table 1 (and of Bouros et
al.'s revisit of containment-join selection):

* the document and path;
* the **document-store version** — bumped every time buffered updates
  apply to pages (``DocumentStore.pending_updates`` draining), which is
  exactly when cached statistics go stale;
* a cheap **per-step fingerprint** (cardinality, page count, sort
  order, height profile) — a second line of defence that catches any
  mutation path the version counter might miss;
* the per-step planner **Table-1 cell** (:func:`repro.join.planner.
  cell_of`, what ``Plan.cell`` holds), so a plan cached when a set
  was index-free is never replayed after an index appears.

A hit replays the cached pipeline *direction*, which makes the
pipeline skip direction planning entirely: no ``pipeline.plan`` span.
Per-step operator selection is re-derived from
set metadata at execution time (it is I/O-free), so the cache never
stores live algorithm objects — those carry per-run tracer state and
must not be shared across queries.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from ..obs.metrics import MetricsRegistry
from ..storage.elementset import ElementSet

__all__ = ["PlanKey", "PlanEntry", "PlanCache", "step_fingerprint"]

#: one step's cheap statistics fingerprint (no I/O to compute)
StepFingerprint = Tuple[int, int, Optional[str], frozenset[int]]

#: full cache key — see module docstring for the fields
PlanKey = Tuple[
    str,  # document name
    str,  # path
    int,  # document-store version
    Tuple[StepFingerprint, ...],
    Tuple[str, ...],  # per-step Table-1 cells
]


def step_fingerprint(elements: ElementSet) -> StepFingerprint:
    """A cheap (I/O-free) stats fingerprint of one element set."""
    return (
        len(elements),
        elements.num_pages,
        elements.sorted_by,
        elements.known_heights,
    )


@dataclass(frozen=True)
class PlanEntry:
    """A cached plan: the pipeline direction plus observability context.

    ``cells`` records the Table-1 cell of each base step at caching
    time (they are also part of the key, so a replayed entry is always
    consistent with the current cells).
    """

    direction: str
    cells: Tuple[str, ...]
    estimated_cost: float = 0.0


class PlanCache:
    """A bounded LRU of :class:`PlanEntry` keyed by :data:`PlanKey`.

    Thread-safe; ``capacity=0`` disables caching entirely (every
    lookup misses, nothing is stored) — the differential tests use
    that to keep cold and warm runs byte-identical.  Hit/miss/eviction
    counts surface as ``service.plan_cache.*`` metrics.
    """

    def __init__(self, capacity: int, metrics: MetricsRegistry) -> None:
        if capacity < 0:
            raise ValueError("plan cache capacity cannot be negative")
        self.capacity = capacity
        self.metrics = metrics
        self._lock = threading.Lock()
        self._entries: "OrderedDict[PlanKey, PlanEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def get(self, key: PlanKey) -> Optional[PlanEntry]:
        """The cached entry for ``key``, bumping hit/miss counters."""
        if not self.enabled:
            self.metrics.counter("service.plan_cache.misses").inc()
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is None:
            self.metrics.counter("service.plan_cache.misses").inc()
        else:
            self.metrics.counter("service.plan_cache.hits").inc()
        return entry

    def put(self, key: PlanKey, entry: PlanEntry) -> None:
        """Insert (or refresh) one entry, evicting the LRU at capacity."""
        if not self.enabled:
            return
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.metrics.counter("service.plan_cache.evictions").inc()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
