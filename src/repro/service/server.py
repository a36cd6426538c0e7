"""TCP front end: an asyncio acceptor over a thread pool of requests.

The wire protocol is JSON lines (one request object per line, one
response object per line, UTF-8):

Requests::

    {"op": "query", "tenant": "t1", "document": "doc", "path": "//a//b"}
    {"op": "page", "cursor": "c0"}
    {"op": "ping"}
    {"op": "stats"}
    {"op": "close"}

``tenant`` must match ``[A-Za-z0-9_-]{1,64}`` (:data:`TENANT_RE`) —
tenant names feed dotted metric keys, so the charset keeps one tenant
from forging another's ``service.tenant.<t>.*`` entries and the cap
bounds metric cardinality.

Responses always carry ``status``:

* ``{"status": "ok", ...}`` — op-specific payload; a query reply has
  ``count`` (exact), ``codes`` (the first ``MAX_WIRE_CODES``),
  ``direction``, ``cache_hit``, ``planning_io``, ``wall_seconds`` and
  a per-step ``reports`` summary.  When the result set overflows the
  cap, the reply also carries a ``cursor`` token: each ``page`` op
  drains the next ``MAX_WIRE_CODES`` codes and repeats the token
  until the set is exhausted (the final page omits ``cursor``).
  Cursors are connection-scoped, at most :data:`MAX_CURSORS` live at
  once (oldest evicted first), and die with the connection —
  continuation is a courtesy window, not a durable snapshot handle;
* ``{"status": "rejected", "code": "backpressure"|"quota",
  "retry_after": seconds, "error": msg}`` — typed backpressure, the
  client should retry after the hint;
* ``{"status": "error", "error": msg}`` — the request failed (a
  malformed line, bytes that are not UTF-8, an unknown op, a query
  error); the connection stays usable.  A request line longer than
  :data:`MAX_LINE_BYTES` gets this reply too, and then the server
  closes the connection.

The asyncio loop only parses lines and schedules; every query is
handed to a :class:`~concurrent.futures.ThreadPoolExecutor` worker
(``max_in_flight + 2`` of them) that calls
:meth:`~repro.service.core.QueryService.execute`.  Its admission
controller — not the socket layer — decides how many queries are
admitted; the admitted ones run one at a time under the service's
storage lock.  :class:`ServerThread` hosts the whole loop in a daemon
thread for tests, benchmarks and the CLI.
"""

from __future__ import annotations

import asyncio
import json
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from ..join.base import JoinReport
from .admission import ServiceRejection
from .core import QueryOutcome, QueryService

__all__ = [
    "ContainmentServer",
    "ServerThread",
    "MAX_CURSORS",
    "MAX_LINE_BYTES",
    "MAX_WIRE_CODES",
]

#: result codes included inline in a query (or page) response; larger
#: result sets continue through connection-scoped ``page`` cursors
MAX_WIRE_CODES = 1000

#: paging cursors kept per connection; opening more evicts the oldest
#: (bounds the undelivered-codes memory a client can park serverside)
MAX_CURSORS = 8

#: longest request line read, its newline not counted (asyncio's
#: default stream limit); a longer one is answered with an error and
#: the connection closed
MAX_LINE_BYTES = 2**16


class _ConnectionState:
    """Per-connection paging state: cursor token -> undelivered codes."""

    __slots__ = ("cursors", "_next_token")

    def __init__(self) -> None:
        self.cursors: dict[str, list[int]] = {}
        self._next_token = 0

    def park(self, codes: list[int]) -> str:
        """Stash overflow codes; returns the continuation token."""
        token = f"c{self._next_token}"
        self._next_token += 1
        self.cursors[token] = codes
        while len(self.cursors) > MAX_CURSORS:
            self.cursors.pop(next(iter(self.cursors)))
        return token

    def page(self, token: str) -> tuple[list[int], bool]:
        """Next chunk for ``token`` plus whether more pages remain.

        Raises :class:`KeyError` for unknown (or evicted) tokens.  A
        token with remaining codes is re-parked under the same name,
        which also refreshes its eviction recency.
        """
        remaining = self.cursors.pop(token)
        chunk = remaining[:MAX_WIRE_CODES]
        rest = remaining[MAX_WIRE_CODES:]
        if rest:
            self.cursors[token] = rest
        return chunk, bool(rest)

#: tenant names accepted at the wire boundary.  Tenant strings are
#: interpolated into dotted metric names (``service.tenant.<t>.*``),
#: so a client-supplied name containing a dot (e.g. ``"a.completed"``)
#: could forge or collide with another tenant's metric keys exposed by
#: the ``stats`` op; the length cap bounds metric cardinality.
TENANT_RE = re.compile(r"^[A-Za-z0-9_-]{1,64}$")


def _report_summary(report: JoinReport) -> dict[str, object]:
    return {
        "algorithm": report.algorithm,
        "result_count": report.result_count,
        "total_pages": report.total_pages,
        "false_hits": report.false_hits,
    }


def _ok_payload(
    outcome: QueryOutcome, state: _ConnectionState
) -> dict[str, object]:
    payload: dict[str, object] = {
        "status": "ok",
        "count": outcome.count,
        "codes": outcome.codes[:MAX_WIRE_CODES],
        "direction": outcome.direction,
        "cache_hit": outcome.cache_hit,
        "planning_io": outcome.planning_io,
        "wall_seconds": outcome.wall_seconds,
        "reports": [_report_summary(r) for r in outcome.reports],
    }
    if outcome.count > MAX_WIRE_CODES:
        payload["cursor"] = state.park(outcome.codes[MAX_WIRE_CODES:])
    return payload


async def _reply(writer: asyncio.StreamWriter, response: dict[str, object]) -> None:
    writer.write(json.dumps(response, sort_keys=True).encode() + b"\n")
    await writer.drain()


async def _skip_line(reader: asyncio.StreamReader) -> None:
    """Drop input through the next newline (or to end of input), a
    buffer at a time: closing with the rest of an overlong line unread
    could reset the connection before the client reads the reply."""
    while True:
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.IncompleteReadError:
            return
        except asyncio.LimitOverrunError as overrun:
            await reader.readexactly(overrun.consumed)


class ContainmentServer:
    """Asyncio TCP server over one :class:`QueryService`."""

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._executor: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting; resolves the actual port."""
        # two threads beyond the admission bound, so admission (not
        # the pool) sees and refuses concurrent arrivals past it
        self._executor = ThreadPoolExecutor(
            max_workers=self.service.admission.max_in_flight + 2,
            thread_name_prefix="repro-join",
        )
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=MAX_LINE_BYTES
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI entry point)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        state = _ConnectionState()
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as eof:
                    line = eof.partial  # an unterminated last line, or b""
                except asyncio.LimitOverrunError:
                    await _reply(writer, {
                        "status": "error",
                        "error": f"request line longer than {MAX_LINE_BYTES}"
                        " bytes; closing the connection",
                    })
                    await _skip_line(reader)
                    break
                if not line:
                    break
                response = await self._dispatch(line, state)
                if response is None:  # clean close requested
                    break
                await _reply(writer, response)
        except (asyncio.CancelledError, ConnectionError):
            # server shutdown reaps idle connections, and a client that
            # reset its socket is gone: drop the connection either way
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _dispatch(
        self, line: bytes, state: _ConnectionState
    ) -> Optional[dict[str, object]]:
        try:
            request = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # ValueError covers bytes that are not UTF-8 as well as bad
            # JSON; RecursionError, arrays nested past the parser's depth
            return {"status": "error", "error": f"bad request line: {exc}"}
        if not isinstance(request, dict):
            return {"status": "error", "error": "request must be an object"}
        op = request.get("op")
        if op == "close":
            return None
        if op == "ping":
            return {"status": "ok", "pong": True}
        if op == "stats":
            return {"status": "ok", "stats": self.service.stats()}
        if op == "page":
            token = request.get("cursor")
            if not isinstance(token, str) or token not in state.cursors:
                return {
                    "status": "error",
                    "error": f"unknown cursor {token!r} (expired or evicted)",
                }
            chunk, more = state.page(token)
            payload: dict[str, object] = {
                "status": "ok",
                "codes": chunk,
                "count": len(chunk),
            }
            if more:
                payload["cursor"] = token
            return payload
        if op != "query":
            return {"status": "error", "error": f"unknown op {op!r}"}
        tenant = request.get("tenant", "default")
        document = request.get("document")
        path = request.get("path")
        if not isinstance(tenant, str) or not isinstance(document, str) \
                or not isinstance(path, str):
            return {
                "status": "error",
                "error": "query needs string tenant/document/path",
            }
        if not TENANT_RE.match(tenant):
            return {
                "status": "error",
                "error": "invalid tenant: must match [A-Za-z0-9_-]{1,64}",
            }
        loop = asyncio.get_running_loop()
        assert self._executor is not None
        try:
            outcome = await loop.run_in_executor(
                self._executor, self.service.execute, tenant, document, path
            )
        except ServiceRejection as rejection:
            return {
                "status": "rejected",
                "code": rejection.code,
                "retry_after": rejection.retry_after,
                "error": str(rejection),
            }
        except Exception as exc:  # noqa: BLE001 - the wire boundary
            return {"status": "error", "error": f"{type(exc).__name__}: {exc}"}
        return _ok_payload(outcome, state)


class ServerThread:
    """Host a :class:`ContainmentServer` on a daemon thread.

    ``with ServerThread(service) as server:`` yields a started server
    whose ``port`` is bound; tests and the load generator connect
    blocking clients against it.
    """

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.server = ContainmentServer(service, host=host, port=port)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def start(self, timeout: float = 10.0) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("server failed to start in time")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)

        async def boot() -> None:
            await self.server.start()
            self._started.set()

        loop.run_until_complete(boot())
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.server.stop())
            # connections whose clients vanished without a close op still
            # have a _handle task parked on readline; reap them so the
            # loop closes without "task was destroyed" warnings
            pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

    def stop(self, timeout: float = 10.0) -> None:
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
        self._loop = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
