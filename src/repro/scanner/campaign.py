"""Scan-campaign orchestration.

Reproduces the paper's measurement schedule (Table 1): two IPv6 scans on
consecutive days, then two IPv4 scans roughly a week apart.  Between the
paired scans the simulated Internet keeps living:

* devices flagged ``reboot_between_scans`` restart at a random moment in
  the campaign window (feeding the "inconsistent engine boots" filter);
* DHCP-pool CPE re-address — either swapping addresses with another
  churned device in the same AS (the same IP then answers with a
  *different* engine ID: the "inconsistent engine ID" filter) or moving
  to a fresh address (shrinking the scan-overlap set).

IPv4 scans target every address in the simulated address plan (equivalent
to probing the full routable space — unassigned addresses never answer);
IPv6 scans target the IPv6 Hitlist view only, as the paper does.

Every scan runs on the sharded streaming engine of
:mod:`repro.scanner.executor`, whose results are byte-identical for any
worker count at a fixed seed.  :meth:`ScanCampaign.run_streaming` yields
each scan as an incremental observation stream; :meth:`ScanCampaign.run`
drains those same streams into a :class:`CampaignResult`, so one seed
gives one scan whichever way it is consumed.  The campaign owns no
worker processes: a parallel scan forks its own when its stream starts,
after that scan's interim events, so its workers probe the same world
the serial path does.

Probe-induced agent state is scan-scoped: the executor restores each
shard's devices after probing them.  What other clients do to a load
balancer between scans is modelled instead: the round-robin cursor of
every VIP jumps to :func:`~repro.topology.lazy.lb_cursor` at each scan
start, next to the inter-scan reboots, so a round-robin pool can answer
the two scans of a pair from different backends.

A campaign runs over one of two world modes.  An eager
:class:`~repro.topology.model.Topology` (the generated sequential layout,
or a loaded topology file) binds every fabric endpoint up front and rolls
reboots and churn from the campaign RNG.  A
:class:`~repro.topology.lazy.LazyTopology` (the streamed layout,
``TopologyConfig(layout="streamed")``) never materializes the world and
binds nothing: the executor resolves each planning window once
(:meth:`~repro.topology.lazy.LazyTopology.resolve_window`), counts the
probes nothing answers without sending them, and derives only the
devices a probe reaches; reboot/churn events are pure
functions of ``(seed, device, address)``, dataset membership is a
per-address roll, and targets stream through the windowed executor
(``execute_stream``), so peak memory is bounded by one planning window.
Golden digests in ``tests/topology/test_lazy_identity.py`` and
``tests/scanner/test_streaming_campaign.py`` pin the lazy campaigns.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

from repro.net.addresses import IPAddress
from repro.net.transport import LinkProfile, NetworkFabric
from repro.scanner.executor import (
    ExecutionOptions,
    ScanExecution,
    ShardedScanExecutor,
    StreamingScanExecution,
    _materialize,
)
from repro.scanner.metrics import ExecutorMetrics
from repro.scanner.records import ScanObservation, ScanResult
from repro.snmp.constants import SNMP_PORT
from repro.snmp.loadbalancer import AgentPool
from repro.topology import timeline
from repro.topology.config import TopologyConfig
from repro.topology.datasets import (
    RouterDatasets,
    StreamedRouterDatasets,
    build_router_datasets,
)
from repro.topology.lazy import CHURN_PROBABILITY, LazyTopology, lb_cursor
from repro.topology.model import Topology

if TYPE_CHECKING:
    from repro.scanner.executor import WindowResolver

#: Scan labels in chronological order.
SCAN_LABELS = ("v6-1", "v6-2", "v4-1", "v4-2")

_SCHEDULE = {
    "v6-1": (6, timeline.SCAN1_V6_START, 20000.0),
    "v6-2": (6, timeline.SCAN2_V6_START, 20000.0),
    "v4-1": (4, timeline.SCAN1_V4_START, 5000.0),
    "v4-2": (4, timeline.SCAN2_V4_START, 5000.0),
}

#: Probability that a DHCP-pool device re-addresses within the inter-scan
#: gap, per address family (6 days for IPv4, 1 day for IPv6).  One table
#: for both world modes: an eager world rolls it from the campaign RNG, a
#: lazy one through per-address pure functions.
_CHURN_PROB = CHURN_PROBABILITY


@dataclass
class CampaignResult:
    """All four scans plus the per-scan ground-truth address bindings."""

    scans: dict[str, ScanResult] = field(default_factory=dict)
    #: Per-scan ``address -> device id`` ground truth.  Lazy campaigns
    #: leave these empty — their ground truth is a pure function, so
    #: query ``topology.owner_of``/``binding_of`` instead of a snapshot.
    bindings: dict[str, dict[IPAddress, int]] = field(default_factory=dict)
    datasets: "RouterDatasets | StreamedRouterDatasets | None" = None
    #: Per-scan execution metrics, one per scan.
    metrics: dict[str, ExecutorMetrics] = field(default_factory=dict)

    def scan_pair(self, version: int) -> tuple[ScanResult, ScanResult]:
        """The (scan 1, scan 2) pair for one address family."""
        prefix = f"v{version}"
        return self.scans[f"{prefix}-1"], self.scans[f"{prefix}-2"]


@dataclass
class ScanStream:
    """One scan of a streaming campaign run, in schedule order.

    ``execution`` exposes the observation batches (consume before
    advancing to the next stream — the campaign mutates fabric bindings
    between scans) plus the execution metrics.
    """

    label: str
    ip_version: int
    started_at: float
    bindings: dict[IPAddress, int]
    execution: "ScanExecution | StreamingScanExecution"
    #: Batch observers attached via :meth:`attach_sink`.
    sinks: "list[Callable[[list[ScanObservation]], object]]" = field(
        default_factory=list
    )
    #: Campaign-installed hook run when the stream is exhausted (or
    #: abandoned): finalizes per-scan edge metrics such as derive time.
    finalize: "Callable[[], None] | None" = None

    def attach_sink(
        self, sink: "Callable[[list[ScanObservation]], object]"
    ) -> "ScanStream":
        """Mirror every consumed batch into ``sink`` (e.g. a JSONL writer).

        Lets one pass over the stream feed several consumers — the CLI
        tees batches to disk while a store ingests the same stream.  Sink
        time lands in the scan's ``ingest_time`` edge metric.
        """
        self.sinks.append(sink)
        return self

    def batches(self) -> Iterator[list[ScanObservation]]:
        iterator = self.execution.batches()
        if not self.sinks and self.finalize is None:
            return iterator
        metrics = self.execution.metrics

        def teed() -> Iterator[list[ScanObservation]]:
            try:
                for batch in iterator:
                    if self.sinks:
                        ingest_started = time.perf_counter()
                        for sink in self.sinks:
                            sink(batch)
                        metrics.ingest_time += (
                            time.perf_counter() - ingest_started
                        )
                    yield batch
            finally:
                if self.finalize is not None:
                    self.finalize()

        return teed()

    def observations(self) -> Iterator[ScanObservation]:
        for batch in self.batches():
            yield from batch

    def result(self) -> ScanResult:
        """Drain this stream, sinks included, into a :class:`ScanResult`."""
        return _materialize(self.execution, self.batches())


class ScanCampaign:
    """Runs the four-scan measurement campaign against a topology.

    Execution shape (workers, shard geometry, retries, fault injection,
    link loss) comes from one
    :class:`~repro.scanner.executor.ExecutionOptions`.
    """

    def __init__(
        self,
        *,
        topology: "Topology | LazyTopology",
        config: "TopologyConfig | None" = None,
        options: "ExecutionOptions | None" = None,
    ) -> None:
        options = options or ExecutionOptions()
        self.topology = topology
        self._lazy = isinstance(topology, LazyTopology)
        if config is not None:
            self.config = config
        elif self._lazy:
            self.config = topology.config  # type: ignore[union-attr]
        else:
            self.config = TopologyConfig(seed=topology.seed)
        self.options = options
        self._rng = random.Random(topology.seed ^ 0x5CA7)
        self._fabric = NetworkFabric(
            seed=topology.seed ^ 0xFAB,
            default_profile=LinkProfile(
                loss_probability=options.loss_probability,
                base_latency=0.08,
                jitter=0.04,
            ),
        )
        if options.fault_profile is not None:
            self._fabric.set_fault_profile(options.fault_profile)
        # address -> device id, the campaign's live view (mutated by churn).
        self._binding: dict[IPAddress, int] = {}
        # Ground truth overlaid with the live binding, kept in sync at the
        # two binding write sites so ``owner_of`` is a single dict lookup.
        # A lazy world derives ownership from its plan arithmetic plus a
        # churn overlay instead of materializing the whole map.
        self._owner_map: dict[IPAddress, int] = (
            {} if self._lazy else topology.address_owners()  # type: ignore[union-attr]
        )
        self._reboot_times: dict[int, float] = {}
        self._rebooted: set[int] = set()
        # Load-balancer VIPs of an eager world, whose round-robin cursors
        # drift between scans (a lazy world drifts its own on derivation).
        self._pools: "list[tuple[int, AgentPool]]" = (
            []
            if self._lazy
            else [
                (device.device_id, device.agent_pool)
                for device in topology.devices.values()
                if device.agent_pool is not None
            ]
        )
        self._datasets: "RouterDatasets | StreamedRouterDatasets | None" = None
        # Per-family sorted target lists (eager worlds only); the address
        # plan is campaign-constant, so compute each family once.
        self._target_lists: dict[int, list[IPAddress]] = {}

    # -- public -----------------------------------------------------------------

    def run(self) -> CampaignResult:
        """Execute all four scans in chronological order.

        Drains the same per-scan streams :meth:`run_streaming` yields;
        each scan's :class:`ExecutorMetrics` lands in ``result.metrics``.
        """
        result = CampaignResult()
        for stream in self._streams(result):
            result.scans[stream.label] = stream.result()
            result.metrics[stream.label] = stream.execution.metrics
        return result

    def run_streaming(self) -> Iterator[ScanStream]:
        """Yield one :class:`ScanStream` per scan, in schedule order.

        Each stream's batches must be consumed before requesting the next
        stream: the inter-scan events (reboots, churn) rebind fabric
        endpoints in place.  A parallel stream forks its workers when its
        batches start and reaps them when they end or are closed, so a
        change the caller makes to the world between streams reaches the
        workers exactly as it reaches the serial path.
        """
        return self._streams(CampaignResult())

    def run_targeted(
        self,
        targets: "list[IPAddress]",
        *,
        label: str,
        ip_version: int,
        start_time: float,
        rate_pps: float = 5000.0,
    ) -> ScanResult:
        """One ad-hoc scan of an explicit target list over the campaign world.

        The service scheduler's re-probe primitive: scans exactly
        ``targets`` at virtual ``start_time`` without replaying the
        four-scan schedule.  The first call performs campaign setup
        (datasets, initial bindings, reboot schedule); reboots due by
        ``start_time`` are applied before probing, so successive targeted
        scans at increasing virtual times observe the world aging.
        Deterministic in ``(seed, targets, start_time)``.
        """
        if self._datasets is None:
            self._setup(CampaignResult())
        self._apply_due_reboots(start_time)
        return self._execute_scan(
            label, ip_version, start_time, rate_pps, targets
        ).result()

    def _streams(self, result: CampaignResult) -> Iterator[ScanStream]:
        """The four-scan loop: set up, then one stream per scheduled scan."""
        self._setup(result)
        for label in SCAN_LABELS:
            derive_base = (
                self.topology.derive_seconds if self._lazy else 0.0  # type: ignore[union-attr]
            )
            version, start, rate, targets = self._advance_to(label, result)
            execution = self._execute_scan(label, version, start, rate, targets)
            finalize: "Callable[[], None] | None" = None
            if self._lazy:
                topology = self.topology

                def finalize(
                    metrics: ExecutorMetrics = execution.metrics,
                    base: float = derive_base,
                    topology: LazyTopology = topology,  # type: ignore[assignment]
                ) -> None:
                    # Derivation happens while batches stream, so the
                    # edge is only known once this scan is drained.
                    metrics.derive_time = topology.derive_seconds - base

            yield ScanStream(
                label=label,
                ip_version=version,
                started_at=start,
                bindings=result.bindings[label],
                execution=execution,
                finalize=finalize,
            )

    # -- schedule ---------------------------------------------------------------

    def _setup(self, result: CampaignResult) -> None:
        """One-time campaign setup: datasets, initial bindings, reboots.

        This is the expensive half of the schedule; the workers of each
        parallel scan inherit what it builds copy-on-write.

        A lazy world has almost nothing to set up: dataset membership,
        reboot times and churn are pure functions, and nothing is bound
        on the fabric — the executor resolves each planning window.
        """
        if self._lazy:
            datasets = StreamedRouterDatasets(
                seed=self.topology.seed,
                config=self.config,
                plan=self.topology.plan,  # type: ignore[union-attr]
                membership_for=self.topology.membership_at,  # type: ignore[union-attr]
            )
            result.datasets = datasets
            self._datasets = datasets
            return
        eager_datasets = build_router_datasets(self.topology, self.config)  # type: ignore[arg-type]
        result.datasets = eager_datasets
        self._datasets = eager_datasets
        self._bind_initial()
        self._schedule_reboots()

    def _advance_to(
        self, label: str, result: CampaignResult
    ) -> "tuple[int, float, float, list[IPAddress] | Iterator[IPAddress]]":
        """Apply one scan's interim events; return its schedule and targets.

        Must be called once per label, in ``SCAN_LABELS`` order, after
        :meth:`_setup`.
        """
        version, start, rate = _SCHEDULE[label]
        if label.endswith("-2"):
            self._apply_churn(version)
        self._apply_due_reboots(start)
        assert self._datasets is not None
        targets = self._targets(version, self._datasets)
        result.bindings[label] = dict(self._binding)
        return version, start, rate, targets

    def _make_executor(self) -> ShardedScanExecutor:
        owner_of: "Callable[[IPAddress], int | None]"
        resolve_window: "WindowResolver"
        if self._lazy:
            # Plan arithmetic, the derived churn overlays and the packed
            # membership records, in one pass per planning window.
            owner_of = self.topology.owner_of  # type: ignore[union-attr]
            resolve_window = self.topology.resolve_window  # type: ignore[union-attr]
        else:
            owner_of = self._owner_map.get
            resolve_window = self._resolve_window

        return ShardedScanExecutor(
            fabric=self._fabric,
            devices=self.topology.devices,
            owner_of=owner_of,
            options=self.options,
            seed=self.topology.seed,
            resolve_window=resolve_window,
        )

    def _execute_scan(
        self,
        label: str,
        version: int,
        start: float,
        rate: float,
        targets: "list[IPAddress] | Iterator[IPAddress]",
    ) -> "ScanExecution | StreamingScanExecution":
        """One scan's execution handle: windowed for lazy worlds."""
        if self._lazy:
            return self._make_executor().execute_stream(
                targets, label=label, ip_version=version,
                start_time=start, rate_pps=rate,
            )
        return self._make_executor().execute(
            list(targets), label=label, ip_version=version,
            start_time=start, rate_pps=rate,
        )

    # -- setup -------------------------------------------------------------------

    def _bind_initial(self) -> None:
        for device in self.topology.devices.values():
            if not device.snmp_open:
                continue
            for interface in device.interfaces:
                if not interface.snmp_reachable:
                    continue
                self._binding[interface.address] = device.device_id
                self._owner_map[interface.address] = device.device_id
                self._fabric.bind(
                    interface.address, "udp", SNMP_PORT, device.snmp_handler()
                )

    def _schedule_reboots(self) -> None:
        window_start = timeline.SCAN1_V6_START
        window_end = timeline.SCAN2_V4_START + timeline.SCAN2_V4_DURATION
        for device in self.topology.devices.values():
            if device.reboot_between_scans:
                self._reboot_times[device.device_id] = self._rng.uniform(
                    window_start, window_end
                )

    # -- interim events ------------------------------------------------------------

    def _apply_due_reboots(self, now: float) -> None:
        """Age the world to ``now``: due reboots and load-balancer drift."""
        if self._lazy:
            # Live devices age now; devices derived later apply their
            # (pure-function) reboot time and cursor at materialization.
            self.topology.advance_clock(now)  # type: ignore[union-attr]
            return
        seed = self.topology.seed
        for device_id, pool in self._pools:
            pool._rr_counter = lb_cursor(seed, device_id, now)
        for device_id, when in self._reboot_times.items():
            if when <= now and device_id not in self._rebooted:
                self.topology.devices[device_id].agent.reboot(when)
                self._rebooted.add(device_id)

    def _apply_churn(self, version: int) -> None:
        """Re-address DHCP-pool devices before the family's second scan.

        An eager world rolls churn from the campaign RNG over the live
        binding map and rebinds the fabric; a lazy world derives it per
        AS from per-address pure functions, as an ownership overlay
        consulted when each window is resolved.
        """
        if self._lazy:
            self.topology.activate_churn(version)  # type: ignore[union-attr]
            return
        prob = _CHURN_PROB[version]
        pools: dict[int, list[IPAddress]] = {}
        for address, device_id in self._binding.items():
            device = self.topology.devices[device_id]
            if device.dhcp_pool and address.version == version \
                    and self._rng.random() < prob:
                pools.setdefault(device.asn, []).append(address)
        for asn, addresses in pools.items():
            if len(addresses) < 2:
                continue
            owners = [self._binding[a] for a in addresses]
            rotated = owners[1:] + owners[:1]
            for address, new_owner in zip(addresses, rotated):
                self._fabric.unbind(address, "udp", SNMP_PORT)
            for address, new_owner in zip(addresses, rotated):
                device = self.topology.devices[new_owner]
                self._binding[address] = new_owner
                self._owner_map[address] = new_owner
                self._fabric.bind(
                    address, "udp", SNMP_PORT, device.snmp_handler()
                )

    # -- targets ----------------------------------------------------------------------

    def _targets(
        self,
        version: int,
        datasets: "RouterDatasets | StreamedRouterDatasets",
    ) -> "list[IPAddress] | Iterator[IPAddress]":
        if self._lazy:
            assert isinstance(datasets, StreamedRouterDatasets)
            if version == 4:
                # The full slot sweep — every address the plan *could*
                # assign, whether or not the owning device bound it; the
                # streamed analogue of probing the routable space.
                return self.topology.plan.iter_v4_targets()  # type: ignore[union-attr]
            return datasets.iter_hitlist_targets_v6()
        assert isinstance(datasets, RouterDatasets)
        # The target list per family is fixed for the whole campaign —
        # churn rotates owners among existing addresses, never mints new
        # ones — so both scans of a pair share one sorted list.  Safe to
        # hand out repeatedly: the shard planner copies before shuffling.
        cached = self._target_lists.get(version)
        if cached is not None:
            return cached
        if version == 4:
            # Equivalent to scanning all routable IPv4 space: unassigned
            # addresses cannot answer, so only the plan's addresses matter.
            targets = sorted(
                self.topology.all_addresses(4), key=int  # type: ignore[union-attr]
            )
        else:
            targets = sorted(datasets.hitlist_targets_v6, key=int)
        self._target_lists[version] = targets
        return targets

    # -- ownership ------------------------------------------------------------------

    def _resolve_window(
        self, addresses: "list[IPAddress]"
    ) -> "tuple[list[int | None], None]":
        """Eager-world batch ownership: one C-speed map over the dict.

        Nothing to name as answering: the fabric's bound endpoints are.
        """
        return list(map(self._owner_map.get, addresses)), None
