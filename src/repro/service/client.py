"""Blocking JSON-lines client for the containment query service.

A thin socket wrapper over the protocol documented in
:mod:`repro.service.server`.  One client holds one connection; it is
not itself thread-safe — the load generator opens one per worker
thread, which also exercises the server's concurrent connections.
"""

from __future__ import annotations

import json
import socket
from typing import Iterator, Optional

__all__ = ["ServiceClient", "ServiceProtocolError", "connect"]


class ServiceProtocolError(RuntimeError):
    """The server closed mid-reply or sent something unparseable."""


class ServiceClient:
    """One blocking connection to a :class:`~repro.service.server.
    ContainmentServer`."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 0, timeout: float = 30.0
    ) -> None:
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    # ------------------------------------------------------------------
    def _call(self, request: dict[str, object]) -> dict[str, object]:
        self._file.write(json.dumps(request).encode() + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ServiceProtocolError("server closed the connection")
        try:
            response = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ServiceProtocolError(f"bad response line: {exc}") from exc
        if not isinstance(response, dict):
            raise ServiceProtocolError("response was not an object")
        return response

    def query(
        self,
        document: str,
        path: str,
        tenant: str = "default",
    ) -> dict[str, object]:
        """Run one path query; returns the raw response dict.

        ``response["status"]`` is ``"ok"``, ``"rejected"`` (typed
        backpressure — retry after ``response["retry_after"]``) or
        ``"error"``.
        """
        return self._call(
            {"op": "query", "tenant": tenant, "document": document, "path": path}
        )

    def page(self, cursor: str) -> dict[str, object]:
        """Fetch the next page of a paged result set (raw response)."""
        return self._call({"op": "page", "cursor": cursor})

    def query_all(
        self,
        document: str,
        path: str,
        tenant: str = "default",
    ) -> dict[str, object]:
        """Like :meth:`query` but follows continuation cursors.

        The returned response carries the *complete* ``codes`` list
        and no ``cursor`` key, no matter how far past the wire cap the
        result set runs.  Non-``ok`` first responses are returned
        as-is (rejections stay typed and retryable); a page fetch that
        fails mid-iteration raises :class:`ServiceProtocolError` — the
        result would otherwise be silently truncated.
        """
        response = self.query(document, path, tenant=tenant)
        if response.get("status") != "ok":
            return response
        codes = list(response.get("codes") or [])
        cursor = response.get("cursor")
        while isinstance(cursor, str):
            page = self.page(cursor)
            if page.get("status") != "ok":
                raise ServiceProtocolError(
                    f"page fetch failed mid-result: {page.get('error')}"
                )
            codes.extend(page.get("codes") or [])
            cursor = page.get("cursor")
        response["codes"] = codes
        response.pop("cursor", None)
        return response

    def iter_codes(
        self,
        document: str,
        path: str,
        tenant: str = "default",
    ) -> Iterator[int]:
        """Stream a query's codes page by page (constant client memory).

        Raises :class:`ServiceProtocolError` when the query itself is
        rejected or errors — an iterator cannot return a typed
        rejection, so callers who need retry semantics use
        :meth:`query` / :meth:`query_all` instead.
        """
        response = self.query(document, path, tenant=tenant)
        while True:
            if response.get("status") != "ok":
                raise ServiceProtocolError(
                    f"query failed: {response.get('error')}"
                )
            for code in response.get("codes") or []:
                yield int(code)
            cursor = response.get("cursor")
            if not isinstance(cursor, str):
                return
            response = self.page(cursor)

    def ping(self) -> bool:
        return self._call({"op": "ping"}).get("status") == "ok"

    def stats(self) -> dict[str, object]:
        response = self._call({"op": "stats"})
        stats = response.get("stats")
        return stats if isinstance(stats, dict) else {}

    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self._file.write(b'{"op": "close"}\n')
            self._file.flush()
        except (OSError, ValueError):
            pass
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<ServiceClient {self.host}:{self.port}>"


def connect(
    host: str = "127.0.0.1", port: int = 0, timeout: float = 30.0
) -> Optional[ServiceClient]:
    """Try to connect; ``None`` when the server is not accepting."""
    try:
        return ServiceClient(host, port, timeout=timeout)
    except OSError:
        return None
