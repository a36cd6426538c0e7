"""``service_closed``: the TCP query service under a closed loop.

Two ``ServiceClient`` connections (= ``nproc`` here) each send their
next request only when the previous reply has arrived; three tenants
and the five-path mix rotate round-robin.  ``max_in_flight`` (4) is
above the client count, so no request is refused by design and every
refusal counts as a failure.  Page I/O is ~10 pages a query; the time
goes to the wire, admission, the prepare phase under the storage lock,
and rollup plans that verify hundreds of false hits per result.

The unit of work is one *sweep* — a client's pass over the five paths —
because single requests are bimodal (two-step vs three-step chains) and
a median that falls between two modes jumps with the noise.
Per-request percentiles are per-layer metrics.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from statistics import fmean
from time import perf_counter
from typing import Any, Optional

from repro.db import ContainmentDatabase, Document
from repro.service import QueryService, ServerThread, ServiceClient
from repro.service.client import ServiceProtocolError

from .corpus import PATH_MIX, seeded_corpus
from .harness import Measurement, median, percentile
from .spans import SpanRecorder

__all__ = ["ServiceWorkload", "SERVICE_CLOSED"]

NODES = 2_000
BUFFER_PAGES = 64
MAX_IN_FLIGHT = 4
CLIENTS = 2
TENANTS = 3
DOCUMENT = "corpus"
#: sweeps per client measured even when the window is shorter
MIN_SWEEPS = 2
PROBE_SWEEPS = 3


@dataclass
class _State:
    db: ContainmentDatabase
    document: Document
    service: QueryService
    server: ServerThread
    clients: list[ServiceClient]
    encode_s: float
    nodes: int
    #: serial ``db.query`` answer per path, and its join reports
    truth: Optional[list[int]] = None
    rows: list[tuple[str, str, Any]] = field(default_factory=list)


@dataclass
class _Reply:
    path: int
    seconds: float
    status: str
    count: int = -1
    pages: int = 0


def _mix_mean_ms(samples: list[tuple[int, float]]) -> float:
    """Mean over the paths of each path's median latency, in ms.

    The mix is bimodal (two-step vs three-step chains), so differences
    between configurations are taken path by path, never between two
    medians that may fall in different modes.
    """
    by_path: dict[int, list[float]] = {}
    for path, seconds in samples:
        by_path.setdefault(path, []).append(seconds)
    return fmean(median(values) for values in by_path.values()) * 1e3


class ServiceWorkload:
    name = "service_closed"

    def setup(self, seed: int, scale: float) -> _State:
        nodes = max(200, int(NODES * scale))
        tree = seeded_corpus(seed, nodes)
        db = ContainmentDatabase(buffer_pages=BUFFER_PAGES)
        started = perf_counter()
        document = db.load_tree(tree, name=DOCUMENT)
        encode_s = perf_counter() - started
        service = QueryService(db, max_in_flight=MAX_IN_FLIGHT)
        server = ServerThread(service).start()
        clients: list[ServiceClient] = []
        try:
            for _ in range(CLIENTS):
                clients.append(ServiceClient(port=server.port))
            # warm-up: every connection plans every path once
            for client in clients:
                for path in PATH_MIX:
                    reply = client.query(DOCUMENT, path, tenant="warmup")
                    if reply.get("status") != "ok":
                        raise RuntimeError(f"warm-up {path} failed: {reply}")
        except BaseException:
            for client in clients:
                client.close()
            server.stop()
            raise
        return _State(db, document, service, server, clients, encode_s, nodes)

    def teardown(self, state: _State) -> None:
        for client in state.clients:
            client.close()
        state.server.stop()

    # -- the timed window -----------------------------------------------
    @staticmethod
    def _request(
        client: ServiceClient, state: _State, index: int, rec: SpanRecorder
    ) -> _Reply:
        path = index % len(PATH_MIX)
        with rec.span("service.request", "service") as span:
            started = perf_counter()
            try:
                reply = client.query(
                    DOCUMENT, PATH_MIX[path], tenant=f"tenant{index % TENANTS}"
                )
            except (OSError, ServiceProtocolError) as exc:
                return _Reply(path, perf_counter() - started, f"transport: {exc}")
            ended = perf_counter()
        if span is not None and isinstance(reply.get("wall_seconds"), float):
            # the server's own execute wall, centred in the round trip:
            # what is left of the request span is wire + queue
            slack = max(0.0, (ended - started - reply["wall_seconds"]) / 2)
            rec.child(span, "service.execute", "service", started + slack, ended - slack)
        if reply.get("status") != "ok":
            return _Reply(path, ended - started, str(reply.get("status")))
        pages = int(reply["planning_io"]) + sum(
            int(report["total_pages"]) for report in reply["reports"]
        )
        return _Reply(path, ended - started, "ok", int(reply["count"]), pages)

    def _client_loop(
        self, state: _State, who: int, deadline: float, rec: SpanRecorder,
        sweeps: list[list[_Reply]],
    ) -> None:
        width = len(PATH_MIX)
        while len(sweeps) < MIN_SWEEPS or perf_counter() < deadline:
            sweep: list[_Reply] = []
            sweeps.append(sweep)
            with rec.span("op", request=who * 1_000_000 + len(sweeps)):
                for step in range(width):
                    # the clients start their sweeps two paths apart
                    index = 2 * who + (len(sweeps) - 1) * width + step
                    reply = self._request(state.clients[who], state, index, rec)
                    sweep.append(reply)
                    if reply.status.startswith("transport"):
                        return  # the connection is gone; the failure is counted

    def _truth(self, state: _State) -> list[int]:
        if state.truth is None:
            state.truth = []
            for path in PATH_MIX:
                result = state.db.query(state.document, path)
                state.truth.append(len(result))
                state.rows += [
                    (f"{path}#{step}", DOCUMENT, report)
                    for step, report in enumerate(result.reports, 1)
                ]
        return state.truth

    def measure(self, state: _State, seconds: float, rec: SpanRecorder) -> Measurement:
        per_client: list[list[list[_Reply]]] = [[] for _ in state.clients]
        started = perf_counter()
        threads = [
            threading.Thread(
                target=self._client_loop,
                args=(state, who, started + seconds, rec, per_client[who]),
            )
            for who in range(len(state.clients))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = perf_counter() - started
        sweeps = [sweep for one in per_client for sweep in one]
        replies = [reply for sweep in sweeps for reply in sweep]
        ok = [reply for reply in replies if reply.status == "ok"]
        window = Measurement(
            latencies=[sum(reply.seconds for reply in sweep) for sweep in sweeps],
            items=len(ok),
            wall=wall,
            pages_per_op=sum(reply.pages for reply in ok) / len(sweeps),
            detail={"replies": replies},
        )
        truth = self._truth(state)
        window.rows = state.rows
        for reply in replies:
            window.check(
                reply.status == "ok" and reply.count == truth[reply.path],
                f"{PATH_MIX[reply.path]}: status {reply.status}, count "
                f"{reply.count}, serial db.query says {truth[reply.path]}",
            )
        return window

    # -- per-layer probes -----------------------------------------------
    def layers(
        self, state: _State, rec: SpanRecorder, untraced: Measurement, traced: Measurement
    ) -> dict[str, float]:
        out: dict[str, float] = {"core.encode_us_per_node": state.encode_s / state.nodes * 1e6}
        replies: list[_Reply] = untraced.detail["replies"]
        latencies = [reply.seconds for reply in replies]
        out["service.query_p50_ms"] = median(latencies) * 1e3
        # 100+ requests a window: the 90th is the highest percentile
        # that keeps ten samples beyond it
        out["service.query_p90_ms"] = percentile(latencies, 0.90) * 1e3
        out["service.qps"] = untraced.items / untraced.wall
        out["service.rejected_share"] = (
            sum(reply.status == "rejected" for reply in replies) / len(replies)
        )
        counters = state.service.stats()
        hits = float(counters.get("service.plan_cache.hits", 0))  # type: ignore[arg-type]
        misses = float(counters.get("service.plan_cache.misses", 0))  # type: ignore[arg-type]
        out["service.plan_cache_hit_rate"] = hits / (hits + misses)

        sweep = [
            index for _ in range(PROBE_SWEEPS) for index in range(len(PATH_MIX))
        ]
        # db: the serial floor under the service (no sessions, no wire)
        serial = []
        for index in sweep:
            with rec.span("db.query", "db"):
                started = perf_counter()
                state.db.query(state.document, PATH_MIX[index])
                serial.append((index, perf_counter() - started))
        out["db.query_ms"] = _mix_mean_ms(serial)

        # service, in process and on one thread: warm, then planning cold
        def in_process(use_cache: bool, label: str) -> tuple[list, list]:
            samples, outcomes = [], []
            for index in sweep:
                with rec.span(label, "service") as span:
                    started = perf_counter()
                    outcome = state.service.execute(
                        "tenant0", DOCUMENT, PATH_MIX[index], use_cache=use_cache
                    )
                    samples.append((index, perf_counter() - started))
                if span is not None and outcome.tracer is not None:
                    for root in outcome.tracer.roots:
                        rec.adopt(span, root)
                outcomes.append(outcome)
            return samples, outcomes

        warm, outcomes = in_process(True, "service.inproc")
        cold, _ = in_process(False, "service.inproc_cold")
        inproc_ms = _mix_mean_ms(warm)
        out["service.inproc_p50_ms"] = inproc_ms
        out["service.cold_plan_ms"] = _mix_mean_ms(cold) - inproc_ms
        out["join.false_hits_per_result"] = (
            sum(report.false_hits for o in outcomes for report in o.reports)
            / sum(o.count for o in outcomes)
        )
        out["join.pages_per_query"] = fmean(o.total_io for o in outcomes)

        # one TCP client: the wire, without a second client to contend with
        single = []
        reply_bytes = []
        for index in sweep:
            reply = self._request(state.clients[0], state, index, rec)
            traced.check(reply.status == "ok", f"1-client probe: {reply.status}")
            single.append((reply.path, reply.seconds))
        for path in PATH_MIX:
            raw = state.clients[0].query(DOCUMENT, path, tenant="tenant0")
            reply_bytes.append(len(json.dumps(raw)) + 1)
        single_ms = _mix_mean_ms(single)
        out["service.wire_overhead_ms"] = single_ms - inproc_ms
        out["service.contention_ms"] = (
            _mix_mean_ms([(reply.path, reply.seconds) for reply in replies]) - single_ms
        )
        out["service.reply_bytes_per_query"] = fmean(reply_bytes)
        return out


SERVICE_CLOSED = ServiceWorkload()
