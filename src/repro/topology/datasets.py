"""Third-party dataset views over the simulated topology.

The paper tags router IPs using CAIDA's ITDK, RIPE Atlas traceroute hops
and the IPv6 Hitlist (Table 2), and compares its alias sets with the
Router Names rDNS dataset (§5.2).  We derive the equivalent views from
ground truth, with realistic incompleteness:

* **ITDK** — a large sample of router interfaces (MIDAR/Speedtrap-seen);
* **RIPE Atlas** — a much smaller traceroute-hop sample;
* **IPv6 Hitlist** — v6 addresses of all device classes (routers *and*
  the CPE churn population, which the paper notes inflates it);
* **rDNS zone** — PTR records for a fraction of router interfaces,
  following each AS's naming convention.  Some conventions encode a
  router name (usable by the Router Names technique), some do not.

Sampling is seeded from the topology seed, so views are reproducible.
"""

from __future__ import annotations

import ipaddress
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterator

from repro.net.addresses import IPAddress
from repro.topology.config import TopologyConfig
from repro.topology.model import DeviceType, Topology

if TYPE_CHECKING:
    from pathlib import Path

    from repro.topology.lazy import DeviceSlot, SlotMembership, StreamPlan
    from repro.topology.model import Device


@dataclass(frozen=True)
class RouterDatasets:
    """Address sets mirroring Table 2's third-party datasets.

    ``hitlist_targets_v6`` is the broad IPv6 scan-target list (the paper's
    364M non-aliased hitlist addresses); ``hitlist_v6`` is the narrower
    router-tagging view — addresses observed as routed hops in hitlist
    traceroutes, which include some (but far from all) residential CPE.

    The RIPE Atlas view is deferred: under ``ripe_from_traceroutes`` it
    costs a simulated global traceroute campaign, and the scan phase
    only ever reads the hitlist (v6 target list) — so ``ripe_loader``
    runs on first access of ``ripe_v4``/``ripe_v6``, off the campaign
    wall.  The loader resumes a captured RNG state, so the deferred sets
    are value-identical to the eagerly built ones.
    """

    itdk_v4: frozenset[IPAddress]
    itdk_v6: frozenset[IPAddress]
    hitlist_v6: frozenset[IPAddress]
    hitlist_targets_v6: frozenset[IPAddress]
    ripe_loader: "Callable[[], tuple[frozenset[IPAddress], frozenset[IPAddress]]]" = field(
        repr=False, compare=False
    )

    @cached_property
    def _ripe(self) -> "tuple[frozenset[IPAddress], frozenset[IPAddress]]":
        return self.ripe_loader()

    @property
    def ripe_v4(self) -> frozenset[IPAddress]:
        return self._ripe[0]

    @property
    def ripe_v6(self) -> frozenset[IPAddress]:
        return self._ripe[1]

    @cached_property
    def union_v4(self) -> frozenset[IPAddress]:
        """The union router dataset for IPv4 (ITDK + RIPE)."""
        return self.itdk_v4 | self.ripe_v4

    @cached_property
    def union_v6(self) -> frozenset[IPAddress]:
        """The union router dataset for IPv6 (ITDK + RIPE + hitlist hops)."""
        return self.itdk_v6 | self.ripe_v6 | self.hitlist_v6

    def is_router_ip(self, address: IPAddress) -> bool:
        """Router-tagging test used throughout the evaluation."""
        if address.version == 4:
            return address in self.union_v4
        return address in self.union_v6


def build_router_datasets(topology: Topology, config: TopologyConfig) -> RouterDatasets:
    """Derive the dataset views.

    ITDK and the hitlist are sampled from ground truth; the RIPE Atlas
    view is, by default, *measured*: simulated traceroutes from a set of
    vantage networks reveal intermediate router interfaces (silent hops
    and unused paths make the view incomplete, as in reality).
    """
    rng = random.Random(topology.seed ^ 0x17DC)
    itdk_v4: set[IPAddress] = set()
    itdk_v6: set[IPAddress] = set()
    ripe_v4: set[IPAddress] = set()
    ripe_v6: set[IPAddress] = set()
    hitlist_hops: set[IPAddress] = set()
    hitlist_targets: set[IPAddress] = set()

    use_traces = config.ripe_from_traceroutes
    for device in topology.devices.values():
        is_router = device.device_type is DeviceType.ROUTER
        for interface in device.interfaces:
            if is_router:
                if interface.version == 4:
                    if rng.random() < config.itdk_router_frac:
                        itdk_v4.add(interface.address)
                    if not use_traces and rng.random() < config.ripe_router_frac:
                        ripe_v4.add(interface.address)
                else:
                    if rng.random() < config.itdk_router_frac * 0.5:
                        itdk_v6.add(interface.address)
                    if not use_traces and rng.random() < config.ripe_router_frac:
                        ripe_v6.add(interface.address)
                    if rng.random() < config.hitlist_router_frac:
                        hitlist_hops.add(interface.address)
                        hitlist_targets.add(interface.address)
                    elif rng.random() < config.hitlist_router_frac:
                        hitlist_targets.add(interface.address)
            elif interface.version == 6:
                is_cpe = device.device_type is DeviceType.CPE
                target_frac = (
                    config.hitlist_cpe_frac if is_cpe else config.hitlist_server_frac
                )
                if rng.random() < target_frac:
                    hitlist_targets.add(interface.address)
                    # Only occasionally does an end host show up as a
                    # routed hop (residential gateways in IPv6, §3.4).
                    if is_cpe and rng.random() < config.hitlist_routed_cpe_frac:
                        hitlist_hops.add(interface.address)

    if use_traces:
        # Defer the simulated Atlas campaign to first RIPE access: the
        # captured RNG state resumes exactly where the device sweep left
        # off, so the traced sets are identical to an eager run's — the
        # campaign wall just no longer pays for a view only the analysis
        # phase reads.  Churn and reboots never touch the structural
        # topology (interfaces, ASes, forwarding), so running the
        # traceroutes later sees the same world.
        rng_state = rng.getstate()

        def ripe_loader() -> "tuple[frozenset[IPAddress], frozenset[IPAddress]]":
            # Seedless construction is deliberate: setstate() replaces
            # the entire generator state on the next line.
            resumed = random.Random()  # repro-lint: disable=DET001
            resumed.setstate(rng_state)
            traced_v4, traced_v6 = _ripe_from_traceroutes(
                topology, config, resumed
            )
            return (
                frozenset(ripe_v4 | traced_v4),
                frozenset(ripe_v6 | traced_v6),
            )
    else:
        frozen_ripe = (frozenset(ripe_v4), frozenset(ripe_v6))

        def ripe_loader() -> "tuple[frozenset[IPAddress], frozenset[IPAddress]]":
            return frozen_ripe

    return RouterDatasets(
        itdk_v4=frozenset(itdk_v4),
        itdk_v6=frozenset(itdk_v6),
        hitlist_v6=frozenset(hitlist_hops),
        hitlist_targets_v6=frozenset(hitlist_targets),
        ripe_loader=ripe_loader,
    )


def _ripe_from_traceroutes(
    topology: Topology, config: TopologyConfig, rng: random.Random
) -> "tuple[set[IPAddress], set[IPAddress]]":
    """Run the simulated Atlas campaign and split hops by family."""
    from repro.topology.traceroute import TracerouteEngine

    engine = TracerouteEngine(topology)
    vantage_asns = sorted(topology.ases)
    rng.shuffle(vantage_asns)
    vantage_asns = vantage_asns[: max(1, config.ripe_vantage_count)]
    targets = [
        address
        for address in topology.all_addresses(4) + topology.all_addresses(6)
        if rng.random() < config.ripe_target_frac
    ]
    revealed = engine.atlas_campaign(vantage_asns, targets)
    v4 = {a for a in revealed if a.version == 4}
    v6 = {a for a in revealed if a.version == 6}
    return v4, v6


# -- rDNS zone ------------------------------------------------------------------


@dataclass
class RdnsZone:
    """PTR records for router interfaces plus per-AS convention metadata."""

    records: dict[IPAddress, str] = field(default_factory=dict)
    #: AS suffix -> naming style ("iface-router", "router-iface", "flat",
    #: "opaque"); only the first two encode an extractable router name.
    suffix_styles: dict[str, str] = field(default_factory=dict)

    def ptr(self, address: IPAddress) -> "str | None":
        return self.records.get(address)

    def __len__(self) -> int:
        return len(self.records)


def build_rdns_zone(topology: Topology, config: TopologyConfig) -> RdnsZone:
    """Generate PTR records for router interfaces per each AS's style."""
    rng = random.Random(topology.seed ^ 0x0D25)
    zone = RdnsZone()
    for asys in topology.ases.values():
        zone.suffix_styles[asys.rdns_suffix] = asys.rdns_style
        router_index = 0
        for device_id in asys.device_ids:
            device = topology.devices[device_id]
            if device.device_type is not DeviceType.ROUTER:
                continue
            router_index += 1
            router_name = f"r{router_index:04d}"
            for iface_index, interface in enumerate(device.interfaces):
                if rng.random() >= config.rdns_ptr_frac:
                    continue
                zone.records[interface.address] = _hostname(
                    asys.rdns_style, asys.rdns_suffix, router_name,
                    iface_index, interface.address, rng,
                )
    return zone


def _hostname(style: str, suffix: str, router_name: str, iface_index: int,
              address: IPAddress, rng: random.Random) -> str:
    if style == "iface-router":
        return f"et-{iface_index}.{router_name}.{suffix}"
    if style == "router-iface":
        return f"{router_name}-eth{iface_index}.{suffix}"
    if style == "flat":
        dashed = str(address).replace(".", "-").replace(":", "-")
        return f"host-{dashed}.{suffix}"
    # "opaque": no structure at all.
    return f"x{rng.randrange(1 << 32):08x}.{suffix}"


# -- streamed dataset views ------------------------------------------------------


class StreamedRouterDatasets:
    """Per-address dataset membership for streamed and lazy topologies.

    :func:`build_router_datasets` threads one RNG through every device in
    creation order, which would force a full materialization.  Here every
    membership decision is a pure function of ``(seed, kind, address)``
    (a :func:`repro.topology.lazy.mix`-keyed roll), so the ITDK / RIPE /
    hitlist views answer point queries and stream the IPv6 target list
    without ever holding the world.  Lazy and eagerly-streamed campaigns
    share this class, which is what keeps their target lists — and thus
    their scan results — byte-identical.

    ``config.ripe_from_traceroutes`` is ignored on this path: the
    simulated Atlas campaign needs global forwarding state, so streamed
    datasets always use the sampled RIPE view.
    """

    def __init__(
        self,
        *,
        seed: int,
        config: TopologyConfig,
        plan: "StreamPlan",
        device_for: "Callable[[DeviceSlot], Device]",
        membership_for: "Callable[[DeviceSlot], object] | None" = None,
    ) -> None:
        self._seed = seed
        self._config = config
        self._plan = plan
        self._device_for = device_for
        # Dataset membership only reads device_type and interface
        # addresses, so a lazy topology passes its membership_at here and
        # every query answers without materializing a device.
        self._record_for = membership_for if membership_for is not None else device_for

    # -- per-address rolls ---------------------------------------------------

    def _roll(self, kind: str, address: IPAddress) -> float:
        from repro.topology.lazy import mix

        return random.Random(mix(self._seed, "ds", kind, int(address))).random()

    def _router_v6_hitlist(self, address: IPAddress) -> tuple[bool, bool]:
        """``(routed hop, scan target)`` membership of a router v6 address."""
        frac = self._config.hitlist_router_frac
        if self._roll("hl-hop", address) < frac:
            return True, True
        return False, self._roll("hl-tgt", address) < frac

    def _endhost_v6_hitlist(
        self, device: "Device | SlotMembership", address: IPAddress
    ) -> tuple[bool, bool]:
        is_cpe = device.device_type is DeviceType.CPE
        frac = (
            self._config.hitlist_cpe_frac
            if is_cpe
            else self._config.hitlist_server_frac
        )
        if self._roll("hl-end", address) >= frac:
            return False, False
        hop = is_cpe and (
            self._roll("hl-routed-cpe", address)
            < self._config.hitlist_routed_cpe_frac
        )
        return hop, True

    def _owned_device(self, address: IPAddress) -> "Device | SlotMembership | None":
        slot = self._plan.locate(address)
        if slot is None:
            return None
        device = self._record_for(slot)
        for interface in device.interfaces:
            if interface.address == address:
                return device
        return None

    # -- queries -------------------------------------------------------------

    def is_router_ip(self, address: IPAddress) -> bool:
        """Router-tagging test, query-by-query (``RouterDatasets`` parity)."""
        device = self._owned_device(address)
        if device is None:
            return False
        cfg = self._config
        if device.device_type is DeviceType.ROUTER:
            if address.version == 4:
                return (
                    self._roll("itdk", address) < cfg.itdk_router_frac
                    or self._roll("ripe", address) < cfg.ripe_router_frac
                )
            return (
                self._roll("itdk", address) < cfg.itdk_router_frac * 0.5
                or self._roll("ripe", address) < cfg.ripe_router_frac
                or self._router_v6_hitlist(address)[0]
            )
        if address.version != 6:
            return False
        return self._endhost_v6_hitlist(device, address)[0]

    def _hitlist_v6(self, device: "Device | SlotMembership",
                    address: IPAddress) -> bool:
        if device.device_type is DeviceType.ROUTER:
            return self._router_v6_hitlist(address)[1]
        return self._endhost_v6_hitlist(device, address)[1]

    # -- streaming -----------------------------------------------------------

    def iter_hitlist_targets_v6(self) -> Iterator[IPAddress]:
        """The IPv6 scan-target list in ascending address order.

        Slots are visited in plan order (each AS owns one /32, each slot
        one /64, so plan order *is* address order) and each device's
        selected addresses are sorted locally — a fully sorted global
        stream that only ever holds one device.
        """
        record_for = self._record_for
        for slot in self._plan.iter_slots():
            device = record_for(slot)
            selected = [
                interface.address
                for interface in device.interfaces
                if interface.version == 6
                and self._hitlist_v6(device, interface.address)
            ]
            selected.sort(key=int)
            yield from selected


# -- ITDK-style topology-description files ---------------------------------------


class TopologyFileError(ValueError):
    """A topology-description file is malformed or inconsistent."""


#: Vendors assigned to file-described nodes that carry no ``node.vendor``
#: directive, picked per node from a seeded RNG.
_FILE_DEFAULT_VENDORS = ("Cisco", "Juniper", "Huawei", "MikroTik")


def load_topology_file(path: "str | Path", *, seed: int = 2021) -> Topology:
    """Ingest an ITDK-style topology description as a simulated Internet.

    The format follows CAIDA's ITDK node files, with inline directives
    for the metadata ITDK ships in sibling files::

        # comment
        node N1: 192.0.10.1 2a00:10::1
        node.AS N1: 64500
        node.vendor N1: Cisco

    Every ``node`` becomes a router whose SNMP agent (engine ID, uptime,
    boots) derives deterministically from ``(seed, node id)``; nodes
    without a ``node.AS`` directive land in AS 64500.  Malformed lines,
    duplicate node ids, duplicate addresses and directives for unknown
    nodes raise :class:`TopologyFileError` with ``path:line:`` context.
    The resulting :class:`Topology` has ``layout="file"`` and runs
    through the classic (materialized) campaign path.
    """
    nodes: dict[int, list[IPAddress]] = {}
    owner: dict[IPAddress, int] = {}
    node_as: dict[int, int] = {}
    node_vendor: dict[int, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            keyword, __, rest = line.partition(" ")
            if keyword == "node":
                node_id = _parse_node_ref(path, lineno, rest, expect_colon=True)
                if node_id in nodes:
                    raise TopologyFileError(
                        f"{path}:{lineno}: duplicate node N{node_id}"
                    )
                addresses = _parse_addresses(path, lineno, rest)
                for address in addresses:
                    if address in owner:
                        raise TopologyFileError(
                            f"{path}:{lineno}: address {address} already "
                            f"assigned to N{owner[address]}"
                        )
                    owner[address] = node_id
                nodes[node_id] = addresses
            elif keyword == "node.AS":
                node_id, value = _parse_directive(path, lineno, rest)
                if node_id not in nodes:
                    raise TopologyFileError(
                        f"{path}:{lineno}: node.AS for unknown node N{node_id}"
                    )
                try:
                    node_as[node_id] = int(value)
                except ValueError:
                    raise TopologyFileError(
                        f"{path}:{lineno}: invalid AS number {value!r}"
                    ) from None
            elif keyword == "node.vendor":
                node_id, value = _parse_directive(path, lineno, rest)
                if node_id not in nodes:
                    raise TopologyFileError(
                        f"{path}:{lineno}: node.vendor for unknown node "
                        f"N{node_id}"
                    )
                node_vendor[node_id] = value
            else:
                raise TopologyFileError(
                    f"{path}:{lineno}: unrecognized line {line!r} (expected "
                    f"'node N<id>: <addr> ...', 'node.AS N<id>: <asn>' or "
                    f"'node.vendor N<id>: <name>')"
                )
    if not nodes:
        raise TopologyFileError(f"{path}: no node lines found")
    return _build_file_topology(nodes, owner, node_as, node_vendor, seed)


def dump_topology_file(topology: Topology, path: str) -> None:
    """Write a topology back out as an ingestible description file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# repro topology description (ITDK node format)\n")
        for device_id in sorted(topology.devices):
            device = topology.devices[device_id]
            addresses = " ".join(str(a) for a in device.addresses)
            handle.write(f"node N{device_id}: {addresses}\n")
            handle.write(f"node.AS N{device_id}: {device.asn}\n")
            handle.write(f"node.vendor N{device_id}: {device.vendor}\n")


def _parse_node_ref(
    path: str, lineno: int, rest: str, *, expect_colon: bool
) -> int:
    ref = rest.split(":", 1)[0].strip() if expect_colon else rest.strip()
    if ":" not in rest and expect_colon:
        raise TopologyFileError(
            f"{path}:{lineno}: missing ':' after node id in {rest!r}"
        )
    if not ref.startswith("N") or not ref[1:].isdigit():
        raise TopologyFileError(
            f"{path}:{lineno}: invalid node id {ref!r} (expected N<number>)"
        )
    return int(ref[1:])


def _parse_addresses(path: str, lineno: int, rest: str) -> list[IPAddress]:
    __, ___, tail = rest.partition(":")
    tokens = tail.split()
    if not tokens:
        raise TopologyFileError(f"{path}:{lineno}: node carries no addresses")
    addresses: list[IPAddress] = []
    for token in tokens:
        try:
            addresses.append(ipaddress.ip_address(token))
        except ValueError:
            raise TopologyFileError(
                f"{path}:{lineno}: invalid address {token!r}"
            ) from None
    return addresses


def _parse_directive(path: str, lineno: int, rest: str) -> tuple[int, str]:
    ref, colon, value = rest.partition(":")
    if not colon or not value.strip():
        raise TopologyFileError(
            f"{path}:{lineno}: directive needs 'N<id>: <value>', got {rest!r}"
        )
    node_id = _parse_node_ref(path, lineno, ref.strip(), expect_colon=False)
    return node_id, value.strip()


def _build_file_topology(
    nodes: dict[int, list[IPAddress]],
    owner: dict[IPAddress, int],
    node_as: dict[int, int],
    node_vendor: dict[int, str],
    seed: int,
) -> Topology:
    from repro.oui.registry import default_registry
    from repro.topology import timeline
    from repro.topology.generator import (
        NIC_SUBSTITUTES,
        derive_agent,
        derive_engine_id,
        derive_shared_populations,
    )
    from repro.topology.lazy import mix
    from repro.topology.model import (
        AutonomousSystem,
        Device,
        Interface,
        Region,
    )

    cfg = TopologyConfig(seed=seed)
    regions = list(Region)
    registry = default_registry()
    shared = derive_shared_populations(cfg)
    ases: dict[int, AutonomousSystem] = {}
    devices: dict[int, Device] = {}
    for node_id in sorted(nodes):
        addresses = nodes[node_id]
        asn = node_as.get(node_id, 64500)
        rng = random.Random(mix(seed, "file-node", node_id))
        vendor = node_vendor.get(
            node_id, _FILE_DEFAULT_VENDORS[rng.randrange(len(_FILE_DEFAULT_VENDORS))]
        )
        if asn not in ases:
            as_rng = random.Random(mix(seed, "file-as", asn))
            v4 = next((a for a in addresses if a.version == 4), None)
            v6 = next((a for a in addresses if a.version == 6), None)
            ases[asn] = AutonomousSystem(
                asn=asn,
                region=regions[as_rng.randrange(len(regions))],
                ipv4_prefix=(
                    ipaddress.ip_network((int(v4) & ~0xFFFF, 16))
                    if v4 is not None
                    else ipaddress.ip_network("0.0.0.0/0")
                ),
                ipv6_prefix=(
                    ipaddress.ip_network((int(v6) >> 96 << 96, 32))
                    if v6 is not None
                    else ipaddress.ip_network("::/0")
                ),
            )
        # Agent state rides the generator's vendor-driven derivation so
        # file worlds carry the same engine-ID format / uptime / boots
        # mix the paper measures (Figures 5-6 stay meaningful); every
        # draw comes from the per-node seeded stream, so a node's agent
        # is still a pure function of ``(seed, node id)``.
        nic_choices = NIC_SUBSTITUTES.get(vendor)
        nic_vendor = (
            nic_choices[rng.randrange(len(nic_choices))]
            if nic_choices
            else vendor
        )
        mac = registry.make_mac(
            nic_vendor, rng.randrange(4), rng.randrange(1 << 20)
        )
        interfaces = [
            Interface(address=a, mac=mac.successor(i))
            for i, a in enumerate(addresses)
        ]
        engine_id = derive_engine_id(
            cfg, rng, shared, vendor, DeviceType.ROUTER, mac, interfaces
        )
        agent, __extras = derive_agent(
            cfg, rng, vendor, DeviceType.ROUTER, engine_id,
            skew_sigma=cfg.router_skew_sigma,
        )
        devices[node_id] = Device(
            device_id=node_id,
            device_type=DeviceType.ROUTER,
            vendor=vendor,
            asn=asn,
            region=ases[asn].region,
            interfaces=interfaces,
            agent=agent,
        )
        ases[asn].device_ids.append(node_id)
    return Topology(
        ases=ases,
        devices=devices,
        seed=seed,
        epoch=timeline.REFERENCE_TIME,
        layout="file",
    )
