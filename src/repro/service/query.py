"""Concurrent, snapshot-isolated query serving over a :class:`Store`.

The :class:`QueryService` is the read path of the always-on observatory:
many clients ask longitudinal questions (census rollups, timelines,
address histories) while a scheduler keeps ingesting new rounds and
compacting old ones into the same store directory.  Three guarantees
hold at any interleaving:

* **Snapshot isolation** — every response is pinned to one manifest
  generation; a reader never observes a torn mix of two generations.
  Segment files are immutable and their names embed the generation that
  wrote them, so one atomic manifest read plus reads of the files it
  names *is* a consistent snapshot.  The only hazard is compaction
  deleting an obsolete part mid-query; the service catches that, adopts
  the new manifest via :meth:`Store.refresh`, and re-runs the query
  against the newer snapshot (bounded retries).
* **Cache coherence** — results are cached in an LRU keyed on
  ``(generation, endpoint, argument)``.  Ingest and compaction bump the
  generation, so stale entries can never be served; they simply age out
  of the LRU.  ``integrity`` is never cached: every request re-reads
  every listed block.
* **Overload shedding** — per-client token buckets (the shared
  :mod:`repro.net.ratelimit` machinery) refuse excess requests with
  :class:`RateLimitExceeded` instead of queueing them.

Determinism: the service reads no wall clock — latencies come from the
injected :class:`~repro.clock.Clock` (``perf_counter`` by default, a
:class:`~repro.clock.ManualClock` under test), and rate-limit decisions
advance on that same clock.
"""

from __future__ import annotations

import ipaddress
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.clock import Clock, PerfCounterClock
from repro.net.ratelimit import RateLimit, TokenBucket
from repro.scanner.wire import WireFormatError
from repro.store.query import StoreQuery
from repro.store.segment import SegmentError
from repro.store.store import MANIFEST_NAME, Store, StoreError

__all__ = [
    "DEFAULT_CACHE_ENTRIES",
    "ENDPOINTS",
    "CorruptStoreError",
    "EndpointMetrics",
    "QueryService",
    "RateLimitExceeded",
    "ServiceError",
    "ServiceResponse",
    "UnknownEndpointError",
]

#: Default LRU capacity (distinct ``(generation, endpoint, arg)`` keys).
DEFAULT_CACHE_ENTRIES = 512

#: Bounded re-runs of one query when compaction deletes a segment from
#: under it; each retry adopts the newer manifest first.
SNAPSHOT_RETRY_ATTEMPTS = 8

#: Latency samples kept per endpoint (newest win; the quantiles are over
#: this window, bounding the service's memory at any uptime).
LATENCY_WINDOW = 4096


class ServiceError(ValueError):
    """Raised when a request cannot be answered: an unknown endpoint, an
    invalid argument, or one of the subclasses below."""


class UnknownEndpointError(ServiceError):
    """Raised for an endpoint name that is not in :data:`ENDPOINTS`."""


class RateLimitExceeded(ServiceError):
    """Raised when a client's token bucket is empty (the request is shed)."""


class CorruptStoreError(ServiceError):
    """Raised when a segment the answer needs is malformed.

    The message names the segment file and, for a block that fails to
    decode, the block's index.  It is the store's fault, not the
    request's: HTTP answers it 500.
    """


@dataclass(frozen=True)
class ServiceResponse:
    """One served query: the pinned generation plus the JSON-safe value."""

    endpoint: str
    generation: int
    value: object
    cached: bool
    latency: float


@dataclass
class EndpointMetrics:
    """Per-endpoint serving counters plus a bounded latency window."""

    requests: int = 0
    hits: int = 0
    misses: int = 0
    shed: int = 0
    errors: int = 0
    latencies: list[float] = field(default_factory=list)

    def record(self, latency: float) -> None:
        window = self.latencies
        window.append(latency)
        if len(window) > LATENCY_WINDOW:
            del window[: len(window) - LATENCY_WINDOW]

    def quantile(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        position = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[position]

    @property
    def hit_ratio(self) -> float:
        served = self.hits + self.misses
        return (self.hits / served) if served else 0.0

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": round(self.hit_ratio, 4),
            "shed": self.shed,
            "errors": self.errors,
            "p50_ms": round(self.quantile(0.50) * 1e3, 3),
            "p99_ms": round(self.quantile(0.99) * 1e3, 3),
        }


def _serialize_observation(stored: object) -> dict:
    """JSON-safe form of one :class:`StoredObservation`."""
    obs = stored.observation  # type: ignore[attr-defined]
    engine = obs.engine_id
    return {
        "round": stored.round_id,  # type: ignore[attr-defined]
        "label": stored.label,  # type: ignore[attr-defined]
        "address": str(obs.address),
        "recv_time": obs.recv_time,
        "engine_id": engine.raw.hex() if engine is not None else None,
        "engine_boots": obs.engine_boots,
        "engine_time": obs.engine_time,
        "response_count": obs.response_count,
    }


def _endpoint_rounds(store: Store, query: StoreQuery, arg: "str | None") -> object:
    return store.rounds()


def _endpoint_stats(store: Store, query: StoreQuery, arg: "str | None") -> object:
    return store.stats()


def _endpoint_device_count(
    store: Store, query: StoreQuery, arg: "str | None"
) -> object:
    return query.device_count


def _endpoint_engine_ids(
    store: Store, query: StoreQuery, arg: "str | None"
) -> object:
    return [raw.hex() for raw in query.engine_ids()]


def _endpoint_vendor_census(
    store: Store, query: StoreQuery, arg: "str | None"
) -> object:
    return [[vendor, count] for vendor, count in query.vendor_census()]


def _endpoint_enterprise_census(
    store: Store, query: StoreQuery, arg: "str | None"
) -> object:
    return [[pen, count] for pen, count in query.enterprise_census()]


def _endpoint_oui_census(
    store: Store, query: StoreQuery, arg: "str | None"
) -> object:
    return [[oui, count] for oui, count in query.oui_census()]


def _endpoint_round_summary(
    store: Store, query: StoreQuery, arg: "str | None"
) -> object:
    if arg is None:
        raise ServiceError("round-summary requires a round id argument")
    try:
        round_id = int(arg)
    except ValueError:
        raise ServiceError(f"invalid round id {arg!r}") from None
    return query.round_summary(round_id)


def _endpoint_history(
    store: Store, query: StoreQuery, arg: "str | None"
) -> object:
    if arg is None:
        raise ServiceError("history requires an address argument")
    try:
        address = ipaddress.ip_address(arg)
    except ValueError:
        raise ServiceError(f"invalid address {arg!r}") from None
    return [_serialize_observation(s) for s in query.history(address)]


def _endpoint_reboot_events(
    store: Store, query: StoreQuery, arg: "str | None"
) -> object:
    return [
        {
            "engine_id": event.engine_id.hex(),
            "round": event.round_id,
            "label": event.label,
            "kind": event.kind,
            "boots_before": event.boots_before,
            "boots_after": event.boots_after,
            "reboot_time": event.reboot_time,
        }
        for event in query.reboot_events()
    ]


def _endpoint_timeline_summary(
    store: Store, query: StoreQuery, arg: "str | None"
) -> object:
    return query.timeline_summary()


def _endpoint_uptime_ecdf(
    store: Store, query: StoreQuery, arg: "str | None"
) -> object:
    return query.uptime_ecdf_inputs()


def _endpoint_integrity(
    store: Store, query: StoreQuery, arg: "str | None"
) -> object:
    """Full physical/logical audit at one pinned generation.

    Counts every scan's rows across its segment parts and checks them
    against the manifest totals.  The count comes from each block's
    validated wire frame (:meth:`Store.count_rows`): every byte of every
    listed block is read and checked as a full decode would check it,
    but no row is built, so a call costs milliseconds, not a decode of
    the whole store.  A malformed block is answered as a
    :class:`CorruptStoreError`; a count that disagrees with the manifest
    raises :class:`StoreError`.  Under concurrent ingest +
    compaction this is the torn-read detector: a reader holding a mix of
    two generations (or reading a half-deleted catalogue) cannot pass
    it.  It is never cached, so every request recounts.
    """
    scans = 0
    rows = 0
    for round_id in store.rounds():
        for label in store.labels(round_id):
            info = store.scan_info(round_id, label)
            counted = store.count_rows(round_id, label)
            if counted != info["rows"]:
                raise StoreError(
                    f"round {round_id} scan {label!r}: segment rows "
                    f"{counted} != manifest rows {info['rows']}"
                )
            scans += 1
            rows += counted
    return {"scans": scans, "rows": rows, "consistent": True}


#: The service's endpoint registry: name -> (store, query, argument) fn.
ENDPOINTS: "dict[str, Callable[[Store, StoreQuery, str | None], object]]" = {
    "rounds": _endpoint_rounds,
    "stats": _endpoint_stats,
    "device-count": _endpoint_device_count,
    "engine-ids": _endpoint_engine_ids,
    "vendor-census": _endpoint_vendor_census,
    "enterprise-census": _endpoint_enterprise_census,
    "oui-census": _endpoint_oui_census,
    "round-summary": _endpoint_round_summary,
    "history": _endpoint_history,
    "reboot-events": _endpoint_reboot_events,
    "timeline-summary": _endpoint_timeline_summary,
    "uptime-ecdf": _endpoint_uptime_ecdf,
    "integrity": _endpoint_integrity,
}

#: Endpoints answered afresh on every request, never from the cache.
_UNCACHED_ENDPOINTS = frozenset({"integrity"})


class QueryService:
    """Thread-safe serving layer over one store directory.

    All constructor arguments are keyword-only.  ``store`` may be a live
    :class:`Store` or a path (opened on the spot); the service refreshes
    its view of the manifest before every request, so a store written by
    another object — or another process — is served without restarts.

    Concurrency model: every request, a cache hit included, runs under
    the store lock (the ``Store`` object itself is not thread-safe): it
    refreshes the manifest and pins the generation there before it looks
    in the cache.  The cache and the metrics sit behind a second, short
    lock.  Snapshot isolation comes from the store's immutable segments
    plus refresh-and-retry on the compaction delete window; see the
    module docstring.  The store's cached
    :class:`~repro.store.index.StoreIndex` grows in place as new scans
    are folded, so the service reads it only under the store lock and
    every endpoint returns fresh lists, never the index's own sets.
    """

    def __init__(
        self,
        *,
        store: "Store | str | Path",
        cache_entries: int = DEFAULT_CACHE_ENTRIES,
        rate_limit: "RateLimit | None" = None,
        clock: "Clock | None" = None,
    ) -> None:
        if cache_entries < 1:
            raise ServiceError(
                f"cache_entries must be positive, got {cache_entries}"
            )
        if isinstance(store, (str, Path)):
            store = Store(root=store)
        self._store = store
        self._query = StoreQuery(store=store)
        self._manifest_path = store.root / MANIFEST_NAME
        self._cache_entries = cache_entries
        self._rate_limit = rate_limit
        self._clock: Clock = clock if clock is not None else PerfCounterClock()
        self._cache: "OrderedDict[tuple[str, object, object], object]" = (
            OrderedDict()
        )
        self._buckets: dict[str, TokenBucket] = {}
        self._metrics: dict[str, EndpointMetrics] = {}
        self._lock = threading.Lock()
        self._store_lock = threading.Lock()
        self._manifest_signature = self._stat_signature()

    # -- introspection -----------------------------------------------------

    @property
    def store(self) -> Store:
        return self._store

    @property
    def generation(self) -> int:
        """The generation the next request would be pinned to."""
        with self._store_lock:
            self._refresh_if_stale()
            return self._store.generation

    def endpoints(self) -> "list[str]":
        return sorted(ENDPOINTS)

    # -- serving -----------------------------------------------------------

    def request(
        self,
        endpoint: str,
        argument: "str | None" = None,
        *,
        client: str = "default",
    ) -> ServiceResponse:
        """Serve one query, pinned to a single manifest generation.

        Raises :class:`UnknownEndpointError` for an unknown endpoint,
        :class:`ServiceError` for a bad argument,
        :class:`RateLimitExceeded` when the client's bucket is empty, and
        :class:`CorruptStoreError` when a segment it reads is malformed.
        Every raise but a shed request counts in the endpoint's
        ``errors``.
        """
        handler = ENDPOINTS.get(endpoint)
        if handler is None:
            known = ", ".join(self.endpoints())
            raise UnknownEndpointError(
                f"unknown endpoint {endpoint!r} (known: {known})"
            )
        started = self._clock.now()
        with self._lock:
            metrics = self._metrics.get(endpoint)
            if metrics is None:
                metrics = self._metrics[endpoint] = EndpointMetrics()
            metrics.requests += 1
            if not self._admit(client, started):
                metrics.shed += 1
                raise RateLimitExceeded(
                    f"client {client!r} exceeded the request rate limit"
                )
        try:
            generation, value, cached = self._serve(handler, endpoint, argument)
        except ServiceError:
            with self._lock:
                metrics.errors += 1
            raise
        latency = self._clock.now() - started
        with self._lock:
            if cached:
                metrics.hits += 1
            else:
                metrics.misses += 1
            metrics.record(latency)
        return ServiceResponse(
            endpoint=endpoint,
            generation=generation,
            value=value,
            cached=cached,
            latency=latency,
        )

    def _serve(
        self,
        handler: "Callable[[Store, StoreQuery, str | None], object]",
        endpoint: str,
        argument: "str | None",
    ) -> "tuple[int, object, bool]":
        last_error: "Exception | None" = None
        cacheable = endpoint not in _UNCACHED_ENDPOINTS
        for _ in range(SNAPSHOT_RETRY_ATTEMPTS):
            with self._store_lock:
                self._refresh_if_stale()
                generation = self._store.generation
                key = (endpoint, argument, generation)
                if cacheable:
                    with self._lock:
                        if key in self._cache:
                            self._cache.move_to_end(key)
                            return generation, self._cache[key], True
                try:
                    value = handler(self._store, self._query, argument)
                except (SegmentError, WireFormatError) as error:
                    raise CorruptStoreError(f"corrupt store: {error}") from error
                except (FileNotFoundError, StoreError) as error:
                    # Compaction deleted an obsolete part from under this
                    # snapshot; adopt the newer manifest and re-run.  If
                    # nothing newer exists the failure is the caller's
                    # (e.g. a nonexistent round), not a snapshot hazard.
                    last_error = error
                    if not self._store.refresh():
                        raise ServiceError(str(error)) from error
                    self._manifest_signature = self._stat_signature()
                    continue
                if cacheable:
                    with self._lock:
                        self._cache[key] = value
                        self._cache.move_to_end(key)
                        while len(self._cache) > self._cache_entries:
                            self._cache.popitem(last=False)
                return generation, value, False
        raise ServiceError(
            f"query {endpoint!r} could not pin a stable snapshot after "
            f"{SNAPSHOT_RETRY_ATTEMPTS} attempts"
        ) from last_error

    # -- internals ---------------------------------------------------------

    def _stat_signature(self) -> "tuple[int, int, int] | None":
        """Cheap change detector for the manifest file (no reads)."""
        try:
            stat = os.stat(self._manifest_path)
        except FileNotFoundError:
            return None
        return (stat.st_ino, stat.st_size, stat.st_mtime_ns)

    def _refresh_if_stale(self) -> None:
        """Adopt a concurrently swapped manifest (store-lock held)."""
        signature = self._stat_signature()
        if signature != self._manifest_signature:
            self._store.refresh()
            self._manifest_signature = signature

    def _admit(self, client: str, now: float) -> bool:
        if self._rate_limit is None:
            return True
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = self._buckets[client] = TokenBucket(self._rate_limit, now)
        return bucket.admit(now)

    # -- metrics -----------------------------------------------------------

    def metrics_summary(self) -> dict:
        """JSON-safe per-endpoint counters plus service-wide rollups."""
        with self._lock:
            per_endpoint = {
                name: metrics.to_dict()
                for name, metrics in sorted(self._metrics.items())
            }
            requests = sum(m.requests for m in self._metrics.values())
            hits = sum(m.hits for m in self._metrics.values())
            misses = sum(m.misses for m in self._metrics.values())
            shed = sum(m.shed for m in self._metrics.values())
            cache_size = len(self._cache)
        served = hits + misses
        return {
            "requests": requests,
            "hits": hits,
            "misses": misses,
            "hit_ratio": round((hits / served) if served else 0.0, 4),
            "shed": shed,
            "cache_entries": cache_size,
            "endpoints": per_endpoint,
        }
