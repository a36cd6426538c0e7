"""Multi-tenant query service tier over the containment-join engine.

The ROADMAP's north star is a production-scale service answering
containment joins for many concurrent users; this package is that
tier.  It layers, bottom-up:

* :mod:`.admission` — in-flight bounds, per-tenant quotas, typed
  backpressure rejections;
* :mod:`.plancache` — stats-fingerprint-keyed plan reuse that skips
  the pipeline's planning scan on warm paths;
* :mod:`.core` — :class:`QueryService`, which runs each admitted
  query start to finish under one storage lock, on the database's
  own disk and buffer pool;
* :mod:`.server` / :mod:`.client` — a JSON-lines TCP protocol
  (``python -m repro serve`` / ``query --remote``).

See ``docs/service.md`` for the architecture and guarantees.
"""

from .admission import (
    AdmissionController,
    BackpressureRejection,
    QuotaExceededRejection,
    ServiceRejection,
    TenantQuota,
)
from .client import ServiceClient, ServiceProtocolError
from .core import QueryOutcome, QueryService
from .plancache import PlanCache, PlanEntry
from .server import ContainmentServer, ServerThread

__all__ = [
    "AdmissionController",
    "BackpressureRejection",
    "QuotaExceededRejection",
    "ServiceRejection",
    "TenantQuota",
    "ServiceClient",
    "ServiceProtocolError",
    "QueryOutcome",
    "QueryService",
    "PlanCache",
    "PlanEntry",
    "ContainmentServer",
    "ServerThread",
]
