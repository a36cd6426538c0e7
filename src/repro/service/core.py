"""The query service: concurrent containment joins over one corpus.

:class:`QueryService` wraps a loaded
:class:`~repro.db.ContainmentDatabase` and answers path queries from
many threads at once.  The existing machinery is single-threaded by
design (one disk, one buffer pool, one I/O ledger), so the service
builds every admitted query a **session**:

* a :class:`~repro.storage.disk.SessionDiskView` — the shared page
  table with session-private :class:`~repro.storage.stats.IOStats`
  and fault injector, so concurrent queries cannot corrupt each
  other's :class:`~repro.join.base.JoinReport` I/O deltas;
* a session-private :class:`~repro.storage.buffer.BufferManager`
  (every query starts cold — deterministic hit/miss accounting, no
  cross-query frame contention and no pool locking);
* the corpus element sets rebound through the session pool
  (:meth:`~repro.storage.elementset.ElementSet.with_bufmgr`);
* a per-query :class:`~repro.obs.tracer.Tracer` (the shared tracer's
  span stack is not thread-safe).

Sessions are *views*, not snapshots: a session reads the shared page
table live, so any in-place mutation of a document's pages while one
of its queries is executing could produce a torn mix of old and new
pages.  The service therefore gates mutation on a per-document
reader/writer latch: every admitted query holds a *reader* slot on
its document for the whole execute phase, and the two mutation paths
— the *prepare* phase when it drains a non-empty pending-update log,
and :meth:`QueryService.exclusive` — run under the global storage
lock **and** wait for the document's readers to drain first.  Prepare
phases that have nothing to apply never wait, so queries on the same
document still execute fully concurrently; queries on *other*
documents are untouched by a document's page patches and keep running
through an update.  Overload and tenant limits are handled by the
:class:`~repro.service.admission.AdmissionController`; any
:class:`~repro.storage.buffer.BufferPoolExhaustedError` that still
escapes a session pool is converted into a typed
:class:`~repro.service.admission.BackpressureRejection` rather than
crashing the connection.  Warm paths skip direction planning through
the :class:`~repro.service.plancache.PlanCache`.

Chaos testing: a service built with a ``chaos`` fault config derives
each session's injector seed from (base seed, document, path), so a
given query always draws the same fault stream no matter how many
other queries run beside it — fault behaviour is replayable under
concurrency, which the differential suite relies on.

Index-accelerated queries: when a document has a persistent index
(the Start B+-tree), the prepare phase peeks them under the
storage lock and the execute phase probes **session views**
(``session_view``) — the same index pages rebound through the
session's private buffer pool, with staleness delegated to the base
index — so index probes never pin through the owning document's
shared pool and are session-safe.  (This closes the v1 limitation of
planning from set metadata only.)

Every query runs the one path :meth:`ContainmentDatabase.query
<repro.db.ContainmentDatabase.query>` runs — a
:class:`~repro.join.pipeline.PathPipeline` over the document's element
sets — so the service and the library execute identical algorithm
sequences.  Shard-parallel execution lives in the shard executor
(:mod:`repro.shard`), not here.
"""

from __future__ import annotations

import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

from ..datatree.paths import PathQuery
from ..db import ContainmentDatabase, Document
from ..join.base import JoinReport
from ..join.pipeline import PathPipeline
from ..join.planner import SetProperties, cell_of
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer
from ..storage.buffer import BufferManager, BufferPoolExhaustedError
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


class _DocGate:
    """Reader latch for one document's shared pages.

    Execute phases hold a reader slot; mutation paths (update-draining
    prepares, :meth:`QueryService.exclusive`) wait for readers to
    drain *while holding the service storage lock*, which blocks new
    readers from registering — so draining always terminates, and a
    steady query stream cannot starve an update (writer preference by
    construction).
    """

    __slots__ = ("_cond", "_readers")

    def __init__(self) -> None:
        self._cond = threading.Condition(threading.Lock())
        self._readers = 0

    @property
    def readers(self) -> int:
        with self._cond:
            return self._readers

    def reader_enter(self) -> None:
        with self._cond:
            self._readers += 1

    def reader_exit(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def await_drained(self) -> None:
        """Block until no execute phase holds this document's pages."""
        with self._cond:
            while self._readers:
                self._cond.wait()


class QueryService:
    """Thread-safe multi-tenant query front end over one database.

    ``max_in_flight`` bounds concurrent sessions (total frame memory is
    ``max_in_flight * session_pages``); ``session_pages`` sizes each
    session's private pool (defaults to the database pool's size);
    ``quotas`` / ``default_quota`` configure per-tenant admission;
    ``plan_cache_size`` bounds the plan cache (0 disables it);
    ``chaos`` attaches deterministic per-session fault injection (the
    config's seed is the *base* seed; requires the database to have
    checksums when the config tears pages).
    """

    def __init__(
        self,
        db: ContainmentDatabase,
        max_in_flight: int = 4,
        session_pages: Optional[int] = None,
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
        self.session_pages = (
            session_pages if session_pages is not None else db.bufmgr.num_pages
        )
        if self.session_pages < 3:
            raise ValueError("session pools need at least 3 pages")
        self.admission = AdmissionController(
            max_in_flight,
            self.metrics,
            quotas=quotas,
            default_quota=default_quota,
        )
        self.plan_cache = PlanCache(plan_cache_size, self.metrics)
        self.chaos = chaos
        #: serializes every shared-storage phase: prepares, exclusive()
        #: mutation, and the shared-pool flush they both perform
        self._storage_lock = threading.Lock()
        self._doc_gates: dict[str, _DocGate] = {}
        self._doc_gates_guard = threading.Lock()

    # ------------------------------------------------------------------
    def _doc_gate(self, name: str) -> _DocGate:
        with self._doc_gates_guard:
            gate = self._doc_gates.get(name)
            if gate is None:
                gate = _DocGate()
                self._doc_gates[name] = gate
            return gate

    @contextmanager
    def exclusive(self, document: str) -> Iterator[Document]:
        """Quiesce ``document`` for out-of-band mutation.

        Holds the storage lock (no prepare phase runs anywhere) and
        waits for every in-flight *execute* phase on ``document`` to
        finish before yielding — sessions read the shared page table
        live, so updates applied inside this block (``insert_element``
        / ``delete_element`` / ``flush``) would otherwise interleave
        with a running join's page reads and tear its answers.
        Queries on other documents keep executing: their pages are
        untouched by this document's patches.  All out-of-band
        mutation of a served database must go through this method.
        Do not nest ``exclusive`` blocks — the storage lock is not
        reentrant.
        """
        gate = self._doc_gate(document)
        with self._storage_lock:
            gate.await_drained()
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
        doc = self.db.document(document)
        query = PathQuery(path)
        gate = self._doc_gate(document)

        # -- prepare: shared-state access under the storage lock -------
        with self._storage_lock:
            if doc.store.pending_updates():
                # draining the log patches this document's pages in
                # place; an execute phase on the same document reads
                # those pages live through the shared page table, so
                # its sessions must finish first (new ones are held
                # off by the storage lock we already hold)
                gate.await_drained()
            # the element-set access drains the pending log, so the
            # index peeks behind it are pure cache reads: they surface
            # whichever persistent indexes survived the updates
            base_steps, base_props = self.db.step_inputs(doc, query.steps)
            # session pools read the disk page table directly, so any
            # corpus page still dirty in the shared pool must hit the
            # table first (write-back is charged to the shared ledger,
            # not to any session's report)
            self.db.bufmgr.flush_all()
            key = self._plan_key(doc, path, base_steps, base_props)
            session = self._open_session(document, path)
            steps = [step.with_bufmgr(session) for step in base_steps]
            # rebind every surfaced index through the session pool too:
            # probing the base index would pin pages in the shared pool
            # from a concurrent execute phase (and charge the wrong
            # ledger).  Views delegate staleness to the base index.
            def rebound(index):
                return None if index is None else index.session_view(session)

            props = [
                replace(base, start_index=rebound(base.start_index))
                for base in base_props
            ]
            gate.reader_enter()

        # a single step has no join to plan: no lookup, no entry, so the
        # hit/miss counters describe planned queries only
        use_cache = use_cache and len(steps) > 1
        try:
            cached: Optional[PlanEntry] = None
            if use_cache:
                cached = self.plan_cache.get(key)

            # -- execute: concurrent, reader slot held on the document -
            tracer = Tracer()
            pipeline = PathPipeline(
                session,
                props,
                direction=cached.direction if cached is not None else None,
                tracer=tracer,
            )
            try:
                with tracer.span("service.query", tenant=tenant, path=path):
                    result = pipeline.execute(steps)
            except BufferPoolExhaustedError as exc:
                raise BackpressureRejection(
                    f"session pool exhausted mid-join ({exc.num_pages} "
                    "pages); retry with less concurrency",
                    retry_after=self.admission.retry_after,
                ) from exc
            finally:
                session.evict_all()

            if use_cache and cached is None:
                self.plan_cache.put(
                    key,
                    PlanEntry(
                        direction=result.direction,
                        cells=key[-1],
                        estimated_cost=result.estimated_cost,
                    ),
                )

            codes = [
                code
                for code in result.codes
                if doc.updatable.node_of(code) is not None
            ]
        finally:
            gate.reader_exit()
        return QueryOutcome(
            tenant=tenant,
            document=document,
            path=path,
            codes=codes,
            direction=result.direction,
            cache_hit=cached is not None,
            planning_io=0,
            reports=result.reports,
            tracer=tracer,
        )

    def _open_session(self, document: str, path: str) -> BufferManager:
        """A session-private buffer pool over a view of the shared disk;
        with ``chaos`` its injector is seeded per (document, path)."""
        faults = None
        if self.chaos is not None:
            faults = FaultInjector(
                replace(
                    self.chaos,
                    seed=_derived_seed(self.chaos.seed, document, path),
                )
            )
        view = self.db.disk.session_view(faults=faults)
        return BufferManager(
            view,
            self.session_pages,
            self.db.bufmgr.policy,
            retry=self.db.bufmgr.retry,
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
