"""repro.service — the always-on observatory layer.

Everything below this package is batch: build a world, run a campaign,
write a store, exit.  This package keeps the measurement *running* and
the results *served* — the ROADMAP's "recurring scans, many concurrent
readers" layer over the :mod:`repro.store` corpus:

* :mod:`repro.service.scheduler` — the deterministic scheduler daemon:
  recurring full sweeps plus targeted re-probes of recently churned or
  rebooted devices, driven entirely by an injected
  :class:`~repro.clock.Clock` (byte-identical replays under
  :class:`~repro.clock.ManualClock`), with overlap suppression,
  seeded per-job jitter, crash-safe resume from the store manifest and
  graceful drain.
* :mod:`repro.service.query` — the concurrent query service:
  snapshot-isolated reads pinned to one manifest generation, an LRU
  result cache keyed on ``(generation, query)``, per-client token-bucket
  rate limiting (shared :mod:`repro.net.ratelimit` machinery) and
  per-endpoint serving metrics.
* :mod:`repro.service.http` — a stdlib HTTP/JSON front-end over the
  query service (the ``repro.cli serve`` verb).

Blessed via :meth:`repro.api.Session.query_service` and
:meth:`repro.api.Session.scheduler`; the ``serve`` and ``schedule`` CLI
verbs drive the same objects.
"""

from repro.service.http import ServiceHttpServer
from repro.service.query import (
    DEFAULT_CACHE_ENTRIES,
    ENDPOINTS,
    CorruptStoreError,
    EndpointMetrics,
    QueryService,
    RateLimitExceeded,
    ServiceError,
    ServiceResponse,
    UnknownEndpointError,
)
from repro.service.scheduler import (
    DEFAULT_JOBS,
    REPROBE_LABEL_PREFIX,
    JobRun,
    JobSpec,
    ServiceScheduler,
)

__all__ = [
    "DEFAULT_CACHE_ENTRIES",
    "DEFAULT_JOBS",
    "ENDPOINTS",
    "REPROBE_LABEL_PREFIX",
    "CorruptStoreError",
    "EndpointMetrics",
    "JobRun",
    "JobSpec",
    "QueryService",
    "RateLimitExceeded",
    "ServiceError",
    "ServiceHttpServer",
    "ServiceResponse",
    "ServiceScheduler",
    "UnknownEndpointError",
]
