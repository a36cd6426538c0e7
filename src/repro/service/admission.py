"""Admission control for the multi-tenant query service.

Admitted queries run one at a time under the service's storage lock,
so every admitted query but one is waiting for it: the in-flight bound
caps that queue, and with it how long a request can wait.  The
controller enforces the bound *before* a query touches storage,
converting overload into typed, retryable rejections instead of an
ever-longer wait:

* **Backpressure** — the global in-flight limit is reached.  The
  client receives :class:`BackpressureRejection` with a ``retry_after``
  hint: the controller's fixed ``retry_after``,
  :data:`DEFAULT_RETRY_AFTER` (0.05 s) unless configured.
* **Quota** — a tenant exceeded its own concurrency or total-query
  allowance (:class:`TenantQuota`).  Other tenants are unaffected;
  that is the point of per-tenant admission.

Admission is a context manager (:meth:`AdmissionController.admit`), so
a slot is always returned — on success, rejection or a query that
dies downstream.  All counters go through the (thread-safe)
:class:`~repro.obs.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

from ..obs.metrics import MetricsRegistry

__all__ = [
    "ServiceRejection",
    "BackpressureRejection",
    "QuotaExceededRejection",
    "TenantQuota",
    "AdmissionController",
]

#: default retry hint (seconds) for rejected queries
DEFAULT_RETRY_AFTER = 0.05


class ServiceRejection(Exception):
    """A query was refused admission (typed, retryable backpressure).

    Not an internal error: the query never ran, no storage state was
    touched, and the client may retry after ``retry_after`` seconds.
    """

    code = "rejected"

    def __init__(self, message: str, retry_after: float = DEFAULT_RETRY_AFTER) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class BackpressureRejection(ServiceRejection):
    """The service is at its global in-flight query limit."""

    code = "backpressure"


class QuotaExceededRejection(ServiceRejection):
    """The tenant exhausted its own concurrency or query allowance."""

    code = "quota"


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission limits (``None`` = unlimited).

    ``max_in_flight`` bounds the tenant's concurrent queries;
    ``max_queries`` bounds its lifetime total (a hard budget for
    metered tenants).
    """

    max_in_flight: Optional[int] = None
    max_queries: Optional[int] = None


class AdmissionController:
    """Bounds the admitted queries: the one running plus the waiting.

    ``max_in_flight`` is the global ceiling.  ``quotas`` maps tenant
    name to :class:`TenantQuota`; unknown tenants get
    ``default_quota``.
    """

    def __init__(
        self,
        max_in_flight: int,
        metrics: MetricsRegistry,
        quotas: Optional[dict[str, TenantQuota]] = None,
        default_quota: Optional[TenantQuota] = None,
        retry_after: float = DEFAULT_RETRY_AFTER,
    ) -> None:
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")
        self.max_in_flight = max_in_flight
        self.metrics = metrics
        self.quotas = dict(quotas or {})
        self.default_quota = default_quota
        self.retry_after = retry_after
        self._lock = threading.Lock()
        self._in_flight = 0
        self._tenant_in_flight: dict[str, int] = {}
        self._tenant_issued: dict[str, int] = {}

    # ------------------------------------------------------------------
    def quota_for(self, tenant: str) -> Optional[TenantQuota]:
        """The quota governing ``tenant`` (explicit, default, or none)."""
        return self.quotas.get(tenant, self.default_quota)

    @property
    def in_flight(self) -> int:
        """Currently admitted queries (all tenants)."""
        return self._in_flight

    # ------------------------------------------------------------------
    @contextmanager
    def admit(self, tenant: str) -> Iterator[None]:
        """Hold one admission slot for the ``with`` body.

        Raises :class:`BackpressureRejection` when the service is
        saturated and :class:`QuotaExceededRejection` when the tenant
        is over its own limits; in both cases nothing is held and the
        rejection counters are bumped.
        """
        with self._lock:
            if self._in_flight >= self.max_in_flight:
                self.metrics.counter("service.rejected.backpressure").inc()
                self.metrics.counter(f"service.tenant.{tenant}.rejected").inc()
                raise BackpressureRejection(
                    f"service at capacity ({self.max_in_flight} in-flight "
                    "queries); retry later",
                    retry_after=self.retry_after,
                )
            quota = self.quota_for(tenant)
            mine = self._tenant_in_flight.get(tenant, 0)
            issued = self._tenant_issued.get(tenant, 0)
            if quota is not None:
                if (
                    quota.max_in_flight is not None
                    and mine >= quota.max_in_flight
                ):
                    self.metrics.counter("service.rejected.quota").inc()
                    self.metrics.counter(
                        f"service.tenant.{tenant}.rejected"
                    ).inc()
                    raise QuotaExceededRejection(
                        f"tenant {tenant!r} at its concurrency quota "
                        f"({quota.max_in_flight}); retry later",
                        retry_after=self.retry_after,
                    )
                if (
                    quota.max_queries is not None
                    and issued >= quota.max_queries
                ):
                    self.metrics.counter("service.rejected.quota").inc()
                    self.metrics.counter(
                        f"service.tenant.{tenant}.rejected"
                    ).inc()
                    raise QuotaExceededRejection(
                        f"tenant {tenant!r} exhausted its query quota "
                        f"({quota.max_queries})",
                        retry_after=self.retry_after,
                    )
            self._in_flight += 1
            self._tenant_in_flight[tenant] = mine + 1
            self._tenant_issued[tenant] = issued + 1
        self.metrics.counter("service.admitted").inc()
        self.metrics.counter(f"service.tenant.{tenant}.admitted").inc()
        try:
            yield
        finally:
            with self._lock:
                self._in_flight -= 1
                remaining = self._tenant_in_flight.get(tenant, 1) - 1
                if remaining:
                    self._tenant_in_flight[tenant] = remaining
                else:
                    self._tenant_in_flight.pop(tenant, None)
