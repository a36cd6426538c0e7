"""The query service: one query at a time over the shared pool.

:class:`QueryService` wraps a loaded
:class:`~repro.db.ContainmentDatabase` and answers path queries from
many threads.  The paper's algorithms are single-threaded page-I/O
procedures and every query is pure Python, so the service runs each
admitted query start to finish under its one **storage lock**, on the
database's own disk and buffer pool:

1. the element-set access drains the document's pending updates;
2. the pool is evicted and the disk head parked, so every query starts
   cold — its hits, misses and seeks do not depend on what ran before;
3. the plan cache is looked up;
4. one :class:`~repro.join.pipeline.PathPipeline` runs the path — the
   path :meth:`ContainmentDatabase.query
   <repro.db.ContainmentDatabase.query>` runs — with a per-query
   :class:`~repro.obs.tracer.Tracer`;
5. the last step's survivors are the answer, returned as codes and not
   filtered: step 1's drain leaves only live elements in the sets, and
   a stale code raises where it is decoded instead of being dropped.

Requests that arrive while the lock is held wait on it.  Overload and
tenant limits are handled before that by the
:class:`~repro.service.admission.AdmissionController`, whose
``max_in_flight`` bounds the admitted (waiting plus running) queries.
A :class:`~repro.storage.buffer.BufferPoolExhaustedError` that escapes
a join is converted into a typed
:class:`~repro.service.admission.BackpressureRejection` rather than
crashing the connection.  Warm paths skip direction planning through
the :class:`~repro.service.plancache.PlanCache`.  Out-of-band mutation
goes through :meth:`QueryService.exclusive`, which takes the same
lock, so updates and queries are serialized.

Chaos testing: a service built with a ``chaos`` fault config attaches
an injector seeded from (base seed, document, path) to the disk for
the query's execute, and puts the disk's own injector back afterwards,
so a given query always draws the same fault stream whatever ran
before it.
"""

from __future__ import annotations

import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

from ..datatree.xpath import XPath
from ..db import ContainmentDatabase, Document
from ..join.base import JoinReport
from ..join.pipeline import PathPipeline
from ..join.planner import SetProperties, cell_of
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer
from ..storage.buffer import BufferPoolExhaustedError
from ..storage.elementset import ElementSet
from ..storage.faults import FaultConfig, FaultInjector
from .admission import AdmissionController, BackpressureRejection, TenantQuota
from .plancache import PlanCache, PlanEntry, PlanKey, step_fingerprint

__all__ = ["QueryOutcome", "QueryService"]


@dataclass
class QueryOutcome:
    """One answered query: matches plus the full execution evidence."""

    tenant: str
    document: str
    path: str
    codes: list[int]
    direction: str
    cache_hit: bool
    #: pages read to plan: always 0 (planning reads the sets'
    #: histograms); a field of the wire reply
    planning_io: int
    reports: list[JoinReport] = field(default_factory=list)
    wall_seconds: float = 0.0
    tracer: Optional[Tracer] = None

    @property
    def count(self) -> int:
        return len(self.codes)

    @property
    def total_io(self) -> int:
        return self.planning_io + sum(r.total_pages for r in self.reports)

    def span_names(self) -> list[str]:
        """Flat list of every span name this query's tracer recorded."""
        if self.tracer is None:
            return []
        names: list[str] = []
        stack = list(self.tracer.roots)
        while stack:
            span = stack.pop()
            names.append(span.name)
            stack.extend(span.children)
        return names


def _derived_seed(base_seed: int, document: str, path: str) -> int:
    """Deterministic per-query fault seed: interleaving-invariant.

    (crc32 is already non-negative on Python 3, so the digest is a
    valid seed as-is.)
    """
    return zlib.crc32(f"{base_seed}:{document}:{path}".encode())


class QueryService:
    """Thread-safe multi-tenant query front end over one database.

    ``max_in_flight`` bounds the admitted queries (the one running
    plus those waiting for the storage lock); ``quotas`` /
    ``default_quota`` configure per-tenant admission;
    ``plan_cache_size`` bounds the plan cache (0 disables it);
    ``chaos`` attaches deterministic per-query fault injection (the
    config's seed is the *base* seed; requires the database to have
    checksums when the config tears pages).
    """

    def __init__(
        self,
        db: ContainmentDatabase,
        max_in_flight: int = 4,
        quotas: Optional[dict[str, TenantQuota]] = None,
        default_quota: Optional[TenantQuota] = None,
        plan_cache_size: int = 128,
        chaos: Optional[FaultConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.db = db
        self.metrics = (
            metrics
            if metrics is not None
            else (db.metrics if db.metrics is not None else MetricsRegistry())
        )
        self.admission = AdmissionController(
            max_in_flight,
            self.metrics,
            quotas=quotas,
            default_quota=default_quota,
        )
        self.plan_cache = PlanCache(plan_cache_size, self.metrics)
        self.chaos = chaos
        #: serializes every use of the database: each query's whole
        #: run, and exclusive() mutation
        self._storage_lock = threading.Lock()

    @contextmanager
    def exclusive(self, document: str) -> Iterator[Document]:
        """Hold ``document`` for out-of-band mutation.

        Takes the storage lock, so no query runs while updates are
        applied inside this block (``insert_element`` /
        ``delete_element`` / ``flush``).  All out-of-band mutation of a
        served database must go through this method.  Do not nest
        ``exclusive`` blocks — the storage lock is not reentrant.
        """
        with self._storage_lock:
            yield self.db.document(document)

    # ------------------------------------------------------------------
    def _plan_key(
        self,
        document: Document,
        path: str,
        steps: list[ElementSet],
        props: list[SetProperties],
    ) -> PlanKey:
        fingerprints = tuple(step_fingerprint(step) for step in steps)
        cells = tuple(cell_of(a, d) for a, d in zip(props, props[1:]))
        return (
            document.name,
            path,
            document.store.version,
            fingerprints,
            cells,
        )

    # ------------------------------------------------------------------
    def execute(
        self,
        tenant: str,
        document: str,
        path: str,
        use_cache: bool = True,
    ) -> QueryOutcome:
        """Answer one path query for ``tenant``.

        Raises :class:`~repro.service.admission.ServiceRejection`
        subclasses for overload/quota (typed, retryable; the per-tenant
        ``rejected`` counter is bumped) — any other exception is a real
        error and bumps ``service.tenant.<tenant>.errors``.
        """
        started = time.perf_counter()
        with self.admission.admit(tenant):
            try:
                outcome = self._run(tenant, document, path, use_cache)
            except BackpressureRejection:
                # keep the global breakdown consistent with the
                # per-tenant counters (admission-time rejections bump
                # both; this is the mid-join conversion path)
                self.metrics.counter("service.rejected.backpressure").inc()
                self.metrics.counter(f"service.tenant.{tenant}.rejected").inc()
                raise
            except Exception:
                self.metrics.counter("service.errors").inc()
                self.metrics.counter(f"service.tenant.{tenant}.errors").inc()
                raise
        outcome.wall_seconds = time.perf_counter() - started
        self.metrics.counter("service.queries").inc()
        self.metrics.counter(f"service.tenant.{tenant}.completed").inc()
        self.metrics.counter(f"service.tenant.{tenant}.results").inc(
            outcome.count
        )
        self.metrics.histogram("service.latency_ms").observe(
            outcome.wall_seconds * 1000.0
        )
        return outcome

    def _run(
        self, tenant: str, document: str, path: str, use_cache: bool
    ) -> QueryOutcome:
        db = self.db
        doc = db.document(document)
        query = XPath(path)
        with self._storage_lock:
            # the element-set access drains the pending log, so the
            # index peeks behind it surface whichever persistent
            # indexes survived the updates
            steps, props, filters = db.path_inputs(doc, query)
            # every query starts cold: evict_all writes back dirty
            # pages (charged before the query's reports start) and the
            # first read is a seek wherever the last query stopped
            db.bufmgr.evict_all()
            db.disk.stats.park_head()
            # a single step has no join to plan: no lookup, no entry,
            # so the hit/miss counters describe planned queries only
            use_cache = use_cache and len(steps) > 1
            key = self._plan_key(doc, path, steps, props)
            cached = self.plan_cache.get(key) if use_cache else None
            tracer = Tracer()
            pipeline = PathPipeline(
                db.bufmgr,
                props,
                direction=cached.direction if cached is not None else None,
                tracer=tracer,
                axes=query.axes,
                filters=filters,
                parent_codes=doc.updatable.parent_codes,
            )
            own_faults = db.disk.faults
            db.disk.set_faults(self._query_faults(document, path))
            try:
                with tracer.span("service.query", tenant=tenant, path=path):
                    result = pipeline.execute(steps)
            except BufferPoolExhaustedError as exc:
                raise BackpressureRejection(
                    f"buffer pool exhausted mid-join ({exc.num_pages} pages)",
                    retry_after=self.admission.retry_after,
                ) from exc
            finally:
                db.disk.set_faults(own_faults)

            if use_cache and cached is None:
                self.plan_cache.put(
                    key,
                    PlanEntry(
                        direction=result.direction,
                        cells=key[-1],
                        estimated_cost=result.estimated_cost,
                    ),
                )
        return QueryOutcome(
            tenant=tenant,
            document=document,
            path=path,
            codes=result.codes,
            direction=result.direction,
            cache_hit=cached is not None,
            planning_io=0,
            reports=result.reports,
            tracer=tracer,
        )

    def _query_faults(self, document: str, path: str) -> Optional[FaultInjector]:
        """The injector a query's execute runs under: ``None`` without
        ``chaos``, else one seeded per (document, path)."""
        if self.chaos is None:
            return None
        return FaultInjector(
            replace(self.chaos, seed=_derived_seed(self.chaos.seed, document, path))
        )

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, object]:
        """A snapshot of the service-level metrics (for the protocol)."""
        names = [
            name
            for name in self.metrics.names()
            if name.startswith("service.")
        ]
        out: dict[str, object] = {}
        for name in names:
            metric = self.metrics.get(name)
            if metric is not None:
                out[name] = metric.as_value()
        return out
