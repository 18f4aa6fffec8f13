"""The stable high-level facade over the measurement system.

One import drives the whole paper loop — build a simulated Internet,
scan it, filter the replies, resolve aliases, fingerprint vendors::

    from repro.api import Session

    session = Session(scale=300, seed=7)
    census = session.scan().filter().aliases().vendor_census()

Every stage method (:meth:`Session.scan`, :meth:`Session.filter`,
:meth:`Session.aliases`) returns the session so calls chain, and each
stage lazily runs its prerequisites — ``Session(scale=300).valid_v4``
alone builds the topology, runs the campaign and filters it.  Results
are cached on the session; rerunning a stage is a no-op.

The facade is the *supported* surface: its names are re-exported from
:mod:`repro` and covered by the deprecation policy.  Internals
(``repro.scanner.executor`` et al.) remain importable but may move.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping

from repro.alias.sets import AliasSets
from repro.alias.snmpv3 import resolve_aliases, resolve_dual_stack
from repro.fingerprint.vendor import vendor_of_alias_set
from repro.pipeline.filters import FilterPipeline, PipelineResult
from repro.pipeline.records import ValidRecord
from repro.scanner.campaign import CampaignResult, ScanCampaign, ScanStream
from repro.scanner.executor import ExecutionOptions
from repro.scanner.metrics import ExecutorMetrics
from repro.store.query import StoreQuery
from repro.store.store import Store
from repro.topology.config import TopologyConfig
from repro.topology.datasets import load_topology_file
from repro.topology.generator import build_topology
from repro.topology.lazy import LazyTopology
from repro.topology.model import Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.clock import Clock
    from repro.fingerprint.vendor import VendorInference
    from repro.net.addresses import IPAddress
    from repro.net.ratelimit import RateLimit
    from repro.scanner.records import ScanObservation, ScanResult
    from repro.service.query import QueryService
    from repro.service.scheduler import JobSpec, ServiceScheduler

__all__ = [
    "ExecutionOptions",
    "Session",
    "Store",
    "StoreQuery",
    "TopologyOptions",
]


@dataclasses.dataclass(frozen=True)
class TopologyOptions:
    """How a :class:`Session` obtains its ground-truth topology.

    The topology twin of :class:`~repro.scanner.executor.
    ExecutionOptions`: every way to shape *where devices come from* is a
    field here, never a new flat ``Session`` keyword (lint rule API002).
    The default (all fields unset) builds what the session's config
    describes: an eager :class:`~repro.topology.model.Topology` for the
    sequential layout, a :class:`~repro.topology.lazy.LazyTopology` for
    the streamed one.

    Parameters
    ----------
    lazy:
        Switch the config to the streamed layout, which derives every
        device from ``(seed, address)`` alone, and so build a
        :class:`~repro.topology.lazy.LazyTopology` view instead of
        materializing devices up front.  Campaign results over a lazy
        topology leave ``bindings`` empty — query
        ``session.topology.owner_of`` / ``binding_of`` instead.
    max_resident:
        Lazy only: cap on concurrently materialized devices, at least
        :data:`~repro.topology.lazy.MIN_RESIDENT` (512; a smaller cap
        raises ``ValueError`` when the world is built), default
        ``TopologyConfig.stream_max_resident``.  Peak memory scales with
        this window, not with the address space; a cap at or above the
        world's device count keeps every derived device resident.
    topology_file:
        Load the topology from an ITDK-style topology description file
        (see :func:`repro.topology.datasets.load_topology_file`) instead
        of generating one.  Mutually exclusive with ``lazy``.
    """

    lazy: bool = False
    max_resident: "int | None" = None
    topology_file: "str | Path | None" = None

    def __post_init__(self) -> None:
        if self.topology_file is not None and self.lazy:
            raise ValueError(
                "topology_file loads a fixed topology; it cannot be "
                "combined with lazy"
            )
        if self.max_resident is not None and not self.lazy:
            raise ValueError("max_resident only applies to lazy=True")


class Session:
    """A lazily evaluated measurement run at a chosen scale.

    The one front door: ``repro.cli``'s ``scan``/``analyze`` and
    :class:`~repro.experiments.ExperimentContext` drive a session, which
    alone turns :class:`TopologyOptions` into a world and alias sets
    into vendor verdicts.

    Parameters
    ----------
    scale:
        Scale divisor relative to the paper's Internet (``300`` ≈ 1/300
        of the real populations).  Ignored when ``config`` is given.
    seed:
        Master RNG seed; every derived stage is deterministic in it.
    config:
        A full :class:`TopologyConfig` for fine-grained control.
    options:
        An :class:`~repro.scanner.executor.ExecutionOptions` bundle — the
        one way to shape execution (workers, shard/batch/window geometry,
        retries, profiling, fault injection, link loss).  Execution knobs
        are never flat keywords here (lint rule API002 enforces this).
    reboot_threshold / skip:
        Filter-pipeline knobs (see :class:`FilterPipeline`).
    topology:
        A :class:`TopologyOptions` bundle — the supported way to shape
        where the ground-truth topology comes from (lazy derivation,
        residency cap, topology-description files).
        Like execution knobs, new topology knobs are added to the
        options object only.
    store:
        A :class:`~repro.store.store.Store` (or a path, opened/created
        on the spot).  With a store attached, every campaign round run
        through :meth:`run_campaign` (and the first implicit
        :meth:`scan`) is ingested into it automatically.
    """

    def __init__(
        self,
        *,
        scale: float = 300.0,
        seed: int = 2021,
        config: "TopologyConfig | None" = None,
        options: "ExecutionOptions | None" = None,
        reboot_threshold: "float | None" = None,
        skip: "frozenset[str] | set[str]" = frozenset(),
        store: "Store | str | Path | None" = None,
        topology: "TopologyOptions | None" = None,
    ) -> None:
        self.config = config or TopologyConfig.paper_scale(
            divisor=scale, seed=seed
        )
        self._topology_options = topology or TopologyOptions()
        if self._topology_options.lazy and self.config.layout != "streamed":
            self.config = dataclasses.replace(self.config, layout="streamed")
        self._options = options or ExecutionOptions()
        self._pipeline_kwargs: dict = {"skip": skip}
        if reboot_threshold is not None:
            self._pipeline_kwargs["reboot_threshold"] = reboot_threshold
        if isinstance(store, (str, Path)):
            store = Store(root=store)
        self._store = store
        self._topology: "Topology | LazyTopology | None" = None
        self._campaign_obj: "ScanCampaign | None" = None
        self._targeted_campaign: "ScanCampaign | None" = None
        self._campaign: "CampaignResult | None" = None
        self._pipelines: dict[int, PipelineResult] = {}
        self._alias: dict[str, AliasSets] = {}

    # -- stages (chainable) ------------------------------------------------

    def scan(self) -> "Session":
        """Run the four-scan campaign (builds the topology if needed)."""
        if self._campaign is None:
            self.run_campaign()
        return self

    def run_campaign(
        self,
        *,
        round_id: "int | None" = None,
        options: "ExecutionOptions | None" = None,
    ) -> CampaignResult:
        """Run one campaign round; with a store attached, auto-ingest it.

        Each call executes a fresh four-scan campaign over the session's
        topology — agent state (reboots) persists between calls, so
        successive rounds form a genuine longitudinal corpus.  The first
        round also becomes the session's cached campaign (what
        :meth:`scan` and the accessors consume).  ``round_id`` defaults
        to the store's next free round.  ``options`` overrides the
        session's :class:`ExecutionOptions` for this round only.
        """
        result = self._make_campaign(options=options).run()
        if self._store is not None:
            self._store.ingest_campaign(result, round_id=round_id)
        if self._campaign is None:
            self._campaign = result
        return result

    def run_targeted(
        self,
        targets: "list[IPAddress]",
        *,
        label: str,
        ip_version: int,
        start_time: float,
        rate_pps: float = 5000.0,
    ) -> "ScanResult":
        """Run one ad-hoc scan of an explicit target list.

        The service scheduler's re-probe primitive: probes exactly
        ``targets`` at virtual ``start_time`` over the session's living
        world (reboots due by then are applied first), returning the
        :class:`~repro.scanner.records.ScanResult`.  The caller decides
        whether/how to ingest it — re-probe rounds use their own labels.
        """
        if self._targeted_campaign is None:
            self._targeted_campaign = self._make_campaign()
        return self._targeted_campaign.run_targeted(
            targets,
            label=label,
            ip_version=ip_version,
            start_time=start_time,
            rate_pps=rate_pps,
        )

    def query_service(
        self,
        *,
        cache_entries: "int | None" = None,
        rate_limit: "RateLimit | None" = None,
        clock: "Clock | None" = None,
    ) -> "QueryService":
        """A :class:`~repro.service.query.QueryService` over the store.

        Snapshot-isolated concurrent reads with an LRU result cache and
        optional per-client rate limiting; see :mod:`repro.service`.
        """
        from repro.service.query import DEFAULT_CACHE_ENTRIES, QueryService

        if self._store is None:
            raise ValueError("this Session has no store attached")
        return QueryService(
            store=self._store,
            cache_entries=(
                DEFAULT_CACHE_ENTRIES if cache_entries is None else cache_entries
            ),
            rate_limit=rate_limit,
            clock=clock,
        )

    def scheduler(
        self,
        *,
        jobs: "tuple[JobSpec, ...] | list[JobSpec] | None" = None,
        seed: "int | None" = None,
        clock: "Clock | None" = None,
        waiter: "Callable[[float], object] | None" = None,
    ) -> "ServiceScheduler":
        """A :class:`~repro.service.scheduler.ServiceScheduler` over this
        session — recurring sweeps plus churn re-probes; see
        :mod:`repro.service`."""
        from repro.service.scheduler import ServiceScheduler

        return ServiceScheduler(
            session=self, jobs=jobs, seed=seed, clock=clock, waiter=waiter
        )

    def filter(
        self,
        scans: "Mapping[int, tuple[Iterable[ScanObservation], ...]] | None" = None,
    ) -> "Session":
        """Run the §4.4 pipeline over both scan pairs.

        ``scans`` (``{4: (scan 1, scan 2), 6: ...}`` observation
        iterables, e.g. :func:`repro.io.iter_scan_jsonl` readers) filters
        exported scans instead, streamed so that only the pipeline's own
        bounded state is resident; the session then never scans.
        """
        if self._pipelines:
            if scans is not None:
                raise ValueError("this Session has already filtered its scans")
            return self
        pipeline = FilterPipeline(**self._pipeline_kwargs)
        for version in (4, 6):
            if scans is not None:
                result = pipeline.run_stream(*scans[version])
            else:
                result = pipeline.run(*self.campaign.scan_pair(version))
            self._pipelines[version] = result
        return self

    def aliases(self) -> "Session":
        """Resolve single-family and dual-stack alias sets (§5.1)."""
        if not self._alias:
            self.filter()
            self._alias["v4"] = resolve_aliases(self.valid_v4)
            self._alias["v6"] = resolve_aliases(self.valid_v6)
            self._alias["dual"] = resolve_dual_stack(self.valid_v4, self.valid_v6)
        return self

    def stream_scans(self) -> Iterator[ScanStream]:
        """Yield the campaign's scans one at a time as observation streams.

        The same scans :meth:`scan` collects; the campaign result is
        *not* cached on the session (the point is not materializing it).
        """
        return self._make_campaign().run_streaming()

    # -- accessors ---------------------------------------------------------

    @property
    def topology(self) -> "Topology | LazyTopology":
        """The ground-truth Internet (built/loaded on first access).

        A ``topology_file`` (:class:`TopologyOptions`) loads the described
        topology.  Otherwise the config's layout decides: the streamed
        layout (which ``lazy=True`` selects) builds a
        :class:`~repro.topology.lazy.LazyTopology` view that derives
        devices on demand, and the sequential layout is materialized
        eagerly via :func:`build_topology`.
        """
        if self._topology is None:
            opts = self._topology_options
            if opts.topology_file is not None:
                self._topology = load_topology_file(
                    opts.topology_file, seed=self.config.seed
                )
            elif self.config.layout == "streamed":
                self._topology = LazyTopology(
                    config=self.config, max_resident=opts.max_resident
                )
            else:
                self._topology = build_topology(self.config)
        return self._topology

    @property
    def campaign(self) -> CampaignResult:
        """All four scans plus ground-truth bindings (runs scan())."""
        self.scan()
        return self._campaign

    @property
    def metrics(self) -> "dict[str, ExecutorMetrics]":
        """Per-scan :class:`ExecutorMetrics` of the cached campaign, one
        per scan label (runs scan())."""
        return self.campaign.metrics

    @property
    def options(self) -> ExecutionOptions:
        """The session's execution options."""
        return self._options

    @property
    def store(self) -> "Store | None":
        """The attached observatory store, if any."""
        return self._store

    def store_query(self) -> StoreQuery:
        """The attached store's indexed query surface."""
        if self._store is None:
            raise ValueError("this Session has no store attached")
        return self._store.query()

    def pipeline(self, version: int) -> PipelineResult:
        """Filter output for one address family (runs filter())."""
        self.filter()
        return self._pipelines[version]

    @property
    def valid_v4(self) -> "list[ValidRecord]":
        return self.pipeline(4).valid

    @property
    def valid_v6(self) -> "list[ValidRecord]":
        return self.pipeline(6).valid

    @property
    def alias_v4(self) -> AliasSets:
        self.aliases()
        return self._alias["v4"]

    @property
    def alias_v6(self) -> AliasSets:
        self.aliases()
        return self._alias["v6"]

    @property
    def alias_sets(self) -> AliasSets:
        """The final dual-stack alias sets — 'devices' in the paper's §6."""
        self.aliases()
        return self._alias["dual"]

    @cached_property
    def record_by_address(self) -> "dict[IPAddress, ValidRecord]":
        """Both families' filtered records by address (runs filter())."""
        return {r.address: r for r in self.valid_v4 + self.valid_v6}

    @cached_property
    def device_vendors(self) -> "list[tuple[frozenset[IPAddress], VendorInference]]":
        """(alias set, vendor verdict) per de-aliased device, in alias-set
        order (runs aliases()) — the one place alias sets become vendor
        verdicts, each inferred from its members' engine IDs."""
        records = self.record_by_address
        return [
            (group, vendor_of_alias_set([records[a].engine_id for a in group if a in records]))
            for group in self.alias_sets.sets
        ]

    def vendor_census(self) -> "list[tuple[str, int]]":
        """(vendor, device count) over :attr:`device_vendors`, largest
        first, ties by name — the Figure 11 quantity."""
        counts = Counter(verdict.vendor for __, verdict in self.device_vendors)
        return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))

    # -- internals ---------------------------------------------------------

    def _make_campaign(
        self, *, options: "ExecutionOptions | None" = None
    ) -> ScanCampaign:
        campaign = ScanCampaign(
            topology=self.topology,
            config=self.config,
            options=options if options is not None else self._options,
        )
        self._campaign_obj = campaign
        return campaign
