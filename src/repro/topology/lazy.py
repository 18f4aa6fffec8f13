"""Streamed topology layout: devices as pure functions of ``(seed, slot)``.

The sequential generator threads one RNG through every device, so device
N can only be built after devices 1..N-1.  The streamed layout breaks
that chain: a compact :class:`StreamPlan` (O(number of ASes)) fixes each
AS's region, vendor profile and device counts, and every device then
derives from an independent RNG keyed on ``(seed, asn, slot-index)``
with arithmetic address slots.  Any device can therefore be rebuilt in
isolation — at probe time, in any order, any number of times — with the
same result.  :class:`LazyTopology` is the only builder of this layout:
it holds a bounded window of devices, and ``max_resident`` at or above
the device count keeps every derived device resident.

Address arithmetic (the invertible part):

* IPv4 — device ``k`` of an AS owns the slot
  ``[v4_base + 1 + k*block, v4_base + 1 + (k+1)*block)`` inside the AS
  /16 (``block = config.stream_v4_block``); ``StreamPlan.slot_ids``
  inverts this with a floor division.
* IPv6 — device ``k`` owns /64 subnet ``k`` of the AS /32:
  ``v6_base + (k << 64) + host`` where the host bits are either small
  sequential counters or EUI-64 interface IDs.

Between-scan events are pure functions too: :func:`reboot_time` and
:func:`lb_cursor` key on the device id, :func:`churn_roll` on
``(version, address)``, so reboots, load-balancer drift and DHCP churn
apply identically however many times, and in whatever order, a device
is derived.
"""

from __future__ import annotations

import bisect
import ipaddress
import random
import time
import weakref
from collections import OrderedDict
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property
from hashlib import sha256
from typing import Iterable

from repro.net.addresses import IPAddress
from repro.net.eui64 import eui64_interface_id
from repro.net.mac import MacAddress
from repro.oui.registry import OuiRegistry, default_registry
from repro.topology import timeline
from repro.topology.config import REGION_AS_WEIGHTS, TopologyConfig
from repro.topology.generator import (
    _RDNS_STYLES,
    _USABLE_FIRST_OCTETS,
    NIC_SUBSTITUTES,
    SharedPopulations,
    TopologyGenerator,
    derive_endhost,
    derive_load_balancer,
    derive_router,
    derive_shared_populations,
)
from repro.topology.model import (
    AutonomousSystem,
    Device,
    DeviceType,
    Region,
)

__all__ = [
    "CHURN_PROBABILITY",
    "MIN_RESIDENT",
    "AsPlan",
    "DeviceSlot",
    "LazyTopology",
    "MembershipInterface",
    "SlotMembership",
    "StreamPlan",
    "build_as_objects",
    "churn_roll",
    "derive_churn_rotation",
    "derive_device",
    "derive_membership",
    "lb_cursor",
    "membership_of_device",
    "mix",
    "reboot_time",
]

#: Per-family probability that a bound DHCP-pool address moves between
#: scan rounds (shared with the sequential campaign path).
CHURN_PROBABILITY = {4: 0.6, 6: 0.15}

#: Churn-rotation cache geometry.  One 65536-target planning window spans
#: at most ~8192 device slots (v4) or 65536 slots (v6) — far fewer ASes —
#: so these caps keep every map a window needs resident while bounding
#: memory by a constant regardless of world size.
_CHURN_MAP_CAP = 4096
_CHURN_ENTRY_BUDGET = 262_144

_V6_ORIGIN = int(ipaddress.IPv6Address("2a00::"))


def mix(seed: int, *parts: object) -> int:
    """Derive an independent 64-bit RNG seed from ``seed`` and a key path.

    SHA-256 based so nearby seeds and slots get uncorrelated streams —
    ``random.Random(seed + k)`` style mixing leaks correlations across
    neighbouring devices.
    """
    tag = "|".join(str(part) for part in parts)
    digest = sha256(f"{seed}|{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class AsPlan:
    """Everything an AS contributes to per-device derivation."""

    index: int
    asn: int
    region: Region
    rdns_style: str
    v4_base: int
    v6_base: int
    open_rate: float
    primary_vendor: str
    dominance: float
    n_routers: int
    n_servers: int
    n_cpe: int
    n_lbs: int
    device_id_base: int

    @cached_property
    def n_devices(self) -> int:
        # Cached: the address arithmetic reads it once per address.
        return self.n_routers + self.n_servers + self.n_cpe + self.n_lbs

    def device_type_of(self, index: int) -> DeviceType:
        if index < self.n_routers:
            return DeviceType.ROUTER
        if index < self.n_routers + self.n_servers:
            return DeviceType.SERVER
        if index < self.n_routers + self.n_servers + self.n_cpe:
            return DeviceType.CPE
        return DeviceType.LOAD_BALANCER


@dataclass(frozen=True, slots=True)
class DeviceSlot:
    """The coordinates a streamed device derives from."""

    asn: int
    index: int
    device_id: int
    device_type: DeviceType


def _largest_remainder(total: int, weights: list[float]) -> list[int]:
    """Apportion ``total`` across ``weights`` (deterministic ties by index)."""
    denom = sum(weights)
    if total <= 0 or denom <= 0:
        return [0] * len(weights)
    quotas = [total * w / denom for w in weights]
    counts = [int(q) for q in quotas]
    shortfall = total - sum(counts)
    order = sorted(range(len(weights)), key=lambda i: (counts[i] - quotas[i], i))
    for i in order[:shortfall]:
        counts[i] += 1
    return counts


def _plan_vendor_profile(cfg: TopologyConfig, rng: random.Random,
                         region: Region, n_routers: int) -> tuple[str, float]:
    """Primary vendor + dominance, mirroring the sequential distributions."""
    share = dict(cfg.router_vendor_share[region])
    if n_routers >= max(20, cfg.router_per_as_max // 3):
        share = {v: share.get(v, 0.0) for v in TopologyGenerator._MAJOR_VENDORS}
    vendors = [v for v, w in share.items() if w > 0]
    weights = [share[v] for v in vendors]
    primary = rng.choices(vendors, weights=weights)[0]
    if rng.random() < cfg.single_vendor_as_frac:
        return primary, 1.0
    dominance = rng.betavariate(cfg.dominance_beta_a, cfg.dominance_beta_b)
    return primary, min(1.0, max(0.3, dominance))


def _plan_open_rate(cfg: TopologyConfig, rng: random.Random, n_routers: int) -> float:
    mixture = (
        cfg.large_as_open_rates
        if n_routers >= cfg.large_as_threshold
        else cfg.as_router_open_rates
    )
    rates = [r for r, __ in mixture]
    weights = [w for __, w in mixture]
    return rng.choices(rates, weights=weights)[0]


class StreamPlan:
    """The O(ASes) skeleton every streamed derivation hangs off.

    Building the plan draws only per-AS randomness (region, size, vendor
    profile) from :func:`mix`-keyed streams; no device exists yet.
    """

    def __init__(self, *, config: TopologyConfig) -> None:
        cfg = config
        self.config = cfg
        self.seed = cfg.seed
        self.block = cfg.stream_v4_block
        if self.block < max(2, cfg.server_multi_ip_max, cfg.cpe_multi_ip_max):
            raise ValueError(
                f"stream_v4_block={self.block} cannot hold the largest "
                f"multi-IP device (server_multi_ip_max={cfg.server_multi_ip_max}, "
                f"cpe_multi_ip_max={cfg.cpe_multi_ip_max})"
            )

        regions = list(REGION_AS_WEIGHTS)
        region_weights = [REGION_AS_WEIGHTS[r] for r in regions]
        size_factor = TopologyGenerator._REGION_SIZE_FACTOR
        alpha = cfg.router_per_as_alpha
        high = max(20.0, cfg.n_routers * 0.03)
        low = 0.6

        chosen_regions: list[Region] = []
        styles: list[str] = []
        raw_sizes: list[float] = []
        for index in range(cfg.n_ases):
            rng_as = random.Random(mix(cfg.seed, "as", index))
            region = rng_as.choices(regions, weights=region_weights)[0]
            style = rng_as.choices(_RDNS_STYLES, weights=(0.35, 0.30, 0.15, 0.20))[0]
            u = rng_as.random()
            x = (low ** -alpha - u * (low ** -alpha - high ** -alpha)) ** (-1.0 / alpha)
            chosen_regions.append(region)
            styles.append(style)
            raw_sizes.append(x * size_factor[region])

        scale = cfg.n_routers / sum(raw_sizes)
        router_counts = [max(1, round(x * scale)) for x in raw_sizes]
        delta = cfg.n_routers - sum(router_counts)
        router_counts[max(range(len(router_counts)),
                          key=router_counts.__getitem__)] += delta

        weights = [rc + 2.0 for rc in router_counts]
        server_counts = _largest_remainder(cfg.n_servers, weights)
        cpe_counts = _largest_remainder(cfg.n_cpe, weights)
        lb_counts = _largest_remainder(
            round(cfg.n_servers * cfg.lb_frac_of_servers), weights)

        plans: list[AsPlan] = []
        device_id_base = 1
        for index in range(cfg.n_ases):
            rng_profile = random.Random(mix(cfg.seed, "as-profile", index))
            n_routers = router_counts[index]
            open_rate = _plan_open_rate(cfg, rng_profile, n_routers)
            primary, dominance = _plan_vendor_profile(
                cfg, rng_profile, chosen_regions[index], n_routers)
            first = _USABLE_FIRST_OCTETS[index // 256 % len(_USABLE_FIRST_OCTETS)]
            second = index % 256
            plan = AsPlan(
                index=index,
                asn=64500 + index,
                region=chosen_regions[index],
                rdns_style=styles[index],
                v4_base=(first << 24) | (second << 16),
                v6_base=_V6_ORIGIN + (index << 96),
                open_rate=open_rate,
                primary_vendor=primary,
                dominance=dominance,
                n_routers=n_routers,
                n_servers=server_counts[index],
                n_cpe=cpe_counts[index],
                n_lbs=lb_counts[index],
                device_id_base=device_id_base,
            )
            if plan.n_devices * self.block > 0xFFFE:
                raise ValueError(
                    f"AS{plan.asn} needs {plan.n_devices} device slots of "
                    f"{self.block} IPv4 addresses each, which overflows its "
                    f"/16; lower stream_v4_block or raise scale_divisor"
                )
            device_id_base += plan.n_devices
            plans.append(plan)

        self.plans = plans
        self.device_count = device_id_base - 1
        self._by_asn = {plan.asn: plan for plan in plans}
        self._by_v4_prefix = {plan.v4_base >> 16: plan for plan in plans}
        self._id_bases = [plan.device_id_base for plan in plans]
        self._v4_order = sorted(plans, key=lambda p: p.v4_base)

    # -- lookups ------------------------------------------------------------

    def as_plan(self, asn: int) -> AsPlan:
        return self._by_asn[asn]

    def _slot(self, plan: AsPlan, index: int) -> DeviceSlot:
        return DeviceSlot(
            asn=plan.asn,
            index=index,
            device_id=plan.device_id_base + index,
            device_type=plan.device_type_of(index),
        )

    def locate(self, address: IPAddress) -> "DeviceSlot | None":
        """Invert the address arithmetic: which slot owns ``address``."""
        device_id = self.slot_ids([address])[0]
        if device_id is None:
            return None
        return self.slot_of_device_id(device_id)

    def slot_ids(self, addresses: "list[IPAddress]") -> "list[int | None]":
        """The device id of the slot owning each address, or ``None``.

        The one copy of the address arithmetic: shard planning and probe
        resolution run it over whole windows, so it is one loop with
        hoisted lookups and no ``DeviceSlot`` construction; everything
        else about a slot keys on its device id.
        """
        by_v4_prefix = self._by_v4_prefix.get
        plans = self.plans
        n_plans = len(plans)
        block = self.block
        out: "list[int | None]" = []
        append = out.append
        for address in addresses:
            addr_int = int(address)
            if address.version == 4:
                plan = by_v4_prefix(addr_int >> 16)
                if plan is None:
                    append(None)
                    continue
                offset = addr_int & 0xFFFF
                if offset < 1:
                    append(None)
                    continue
                index = (offset - 1) // block
            else:
                if addr_int < _V6_ORIGIN:
                    append(None)
                    continue
                as_index = (addr_int - _V6_ORIGIN) >> 96
                if as_index >= n_plans:
                    append(None)
                    continue
                plan = plans[as_index]
                index = (addr_int >> 64) & 0xFFFFFFFF
            if index >= plan.n_devices:
                append(None)
                continue
            append(plan.device_id_base + index)
        return out

    def slot_of_device_id(self, device_id: int) -> "DeviceSlot | None":
        if device_id < 1 or device_id > self.device_count:
            return None
        i = bisect.bisect_right(self._id_bases, device_id) - 1
        plan = self.plans[i]
        return self._slot(plan, device_id - plan.device_id_base)

    # -- iteration ----------------------------------------------------------

    def iter_slots(self) -> Iterator[DeviceSlot]:
        """All slots in device-id order (the eager build order)."""
        for plan in self.plans:
            for index in range(plan.n_devices):
                yield self._slot(plan, index)

    def iter_v4_targets(self) -> Iterator[ipaddress.IPv4Address]:
        """The full IPv4 slot sweep in global address order.

        Covers every slot address whether or not the owning device bound
        it — the streamed analogue of probing the routable space.
        """
        for plan in self._v4_order:
            base = plan.v4_base
            for offset in range(1, plan.n_devices * self.block + 1):
                yield ipaddress.IPv4Address(base + offset)


def build_as_objects(plan: StreamPlan) -> dict[int, AutonomousSystem]:
    """AS model objects for a stream plan (``device_ids`` left to callers)."""
    ases: dict[int, AutonomousSystem] = {}
    for as_plan in plan.plans:
        asys = AutonomousSystem(
            asn=as_plan.asn,
            region=as_plan.region,
            ipv4_prefix=ipaddress.ip_network((as_plan.v4_base, 16)),
            ipv6_prefix=ipaddress.ip_network((as_plan.v6_base, 32)),
            name=f"AS{as_plan.asn}",
            rdns_suffix=f"net{as_plan.asn}.example",
            router_open_rate=as_plan.open_rate,
        )
        asys.rdns_style = as_plan.rdns_style
        ases[as_plan.asn] = asys
    return ases


class _SlotAllocator:
    """Arithmetic allocation inside one device slot — no shared cursors."""

    def __init__(self, *, registry: OuiRegistry, plan: StreamPlan,
                 as_plan: AsPlan, slot: DeviceSlot, rng: random.Random) -> None:
        self._registry = registry
        self._plan = plan
        self._as_plan = as_plan
        self._slot = slot
        self._rng = rng
        self._v4_cursor = 0
        self._v6_cursor = 0

    def next_mac(self, vendor: str, count: int = 1) -> MacAddress:
        substitutes = NIC_SUBSTITUTES.get(vendor)
        if substitutes is not None:
            vendor = substitutes[self._rng.randrange(len(substitutes))]
        block_index = self._rng.randrange(1 << 12)
        # Leave successor() headroom below the 24-bit NIC ceiling.
        device_index = self._rng.randrange((1 << 24) - 4096)
        return self._registry.make_mac(vendor, block_index, device_index)

    def alloc_v4(self, asys: AutonomousSystem) -> ipaddress.IPv4Address:
        cursor = self._v4_cursor
        if cursor >= self._plan.block:
            raise ValueError(
                f"device slot IPv4 budget exhausted "
                f"(stream_v4_block={self._plan.block})"
            )
        self._v4_cursor = cursor + 1
        return ipaddress.IPv4Address(
            self._as_plan.v4_base + 1 + self._slot.index * self._plan.block + cursor
        )

    def alloc_v6(self, asys: AutonomousSystem) -> ipaddress.IPv6Address:
        self._v6_cursor += 1
        return ipaddress.IPv6Address(
            self._as_plan.v6_base + (self._slot.index << 64) + self._v6_cursor
        )

    def alloc_v6_eui64(self, asys: AutonomousSystem,
                       mac: MacAddress) -> ipaddress.IPv6Address:
        return ipaddress.IPv6Address(
            self._as_plan.v6_base + (self._slot.index << 64)
            + eui64_interface_id(mac)
        )

    def next_device_id(self) -> int:
        return self._slot.device_id

    def iface_cap(self, protocol: str) -> int:
        cap = self._plan.config.router_iface_max
        if protocol == "v4":
            return min(cap, self._plan.block)
        if protocol == "dual":
            # A dual router assigns v4 to two of every three interfaces.
            return min(cap, (3 * self._plan.block) // 2)
        return cap


def derive_device(cfg: TopologyConfig, registry: OuiRegistry, plan: StreamPlan,
                  slot: DeviceSlot, shared: SharedPopulations,
                  ases: Mapping[int, AutonomousSystem]) -> Device:
    """Materialize one slot. Pure in ``(cfg, slot)``: order-independent."""
    as_plan = plan.as_plan(slot.asn)
    asys = ases[slot.asn]
    rng = random.Random(mix(plan.seed, "device", slot.asn, slot.index))
    mac_rng = random.Random(mix(plan.seed, "mac", slot.asn, slot.index))
    alloc = _SlotAllocator(registry=registry, plan=plan, as_plan=as_plan,
                           slot=slot, rng=mac_rng)
    if slot.device_type is DeviceType.ROUTER:
        return derive_router(cfg, rng, alloc, shared, asys,
                             as_plan.primary_vendor, as_plan.dominance)
    if slot.device_type is DeviceType.LOAD_BALANCER:
        return derive_load_balancer(cfg, rng, alloc, asys)
    share = (
        cfg.server_vendor_share
        if slot.device_type is DeviceType.SERVER
        else cfg.cpe_vendor_share
    )
    vendors = list(share)
    vendor = rng.choices(vendors, weights=[share[v] for v in vendors])[0]
    return derive_endhost(cfg, rng, alloc, shared, asys, slot.device_type, vendor)


# -- membership-only derivation --------------------------------------------------
#
# Most ownership questions a campaign asks — "is this address bound?",
# "is the owner SNMP-open?", "does this DHCP-pool interface churn?" — need
# only the slot's address layout and open/reachable flags, all of which the
# per-device RNG draws *before* the expensive engine-ID/agent derivation.
# ``derive_membership`` replays exactly that prefix of the draw stream and
# stops, producing a compact record a few hundred bytes wide instead of a
# full ``Device``.  The prefix must stay draw-for-draw identical to
# ``derive_router``/``derive_endhost`` (the per-slot RNG is private, so
# stopping early is safe); ``tests/topology/test_membership.py`` holds the
# two paths equal property-style across seeds, slots and churn rolls.


@dataclass(frozen=True, slots=True)
class MembershipInterface:
    """The slice of ``Interface`` that ownership queries consult."""

    address: IPAddress
    snmp_reachable: bool = True

    @property
    def version(self) -> int:
        return self.address.version


@dataclass(frozen=True, slots=True)
class SlotMembership:
    """Address/openness facts for one slot, without the agent machinery.

    Duck-types as a ``Device`` for :func:`derive_churn_rotation` (which
    reads ``dhcp_pool``/``snmp_open``/``device_id``/``interfaces`` only).
    """

    device_id: int
    device_type: DeviceType
    snmp_open: bool
    dhcp_pool: bool
    interfaces: tuple[MembershipInterface, ...]


def membership_of_device(device: Device) -> SlotMembership:
    """Project an already-materialized device onto its membership record."""
    return SlotMembership(
        device_id=device.device_id,
        device_type=device.device_type,
        snmp_open=device.snmp_open,
        dhcp_pool=device.dhcp_pool,
        interfaces=tuple(
            MembershipInterface(
                address=interface.address,
                snmp_reachable=interface.snmp_reachable,
            )
            for interface in device.interfaces
        ),
    )


def _pack_membership(record: SlotMembership) -> bytes:
    """Byte-pack a membership record for cache residency.

    One flags byte (``snmp_open`` | ``dhcp_pool`` << 1) followed by 17
    bytes per interface (meta byte: reachable | is-v6 << 1; then the
    address as a 128-bit big-endian integer).  A packed record is a
    single gc-untracked ~20-60 byte string, so caching every slot of a
    ~930k-target world costs megabytes — against the hundreds of MB
    (and whole-heap gc scans) a cache of live dataclass records incurs.
    """
    flags = record.snmp_open | record.dhcp_pool << 1
    parts = [flags.to_bytes(1, "big")]
    for interface in record.interfaces:
        address = interface.address
        meta = interface.snmp_reachable | (address.version == 6) << 1
        parts.append(meta.to_bytes(1, "big"))
        parts.append(int(address).to_bytes(16, "big"))
    return b"".join(parts)


def _unpack_membership(slot: DeviceSlot, packed: bytes) -> SlotMembership:
    """Inverse of :func:`_pack_membership` (value-identical record)."""
    flags = packed[0]
    interfaces = []
    for pos in range(1, len(packed), 17):
        meta = packed[pos]
        addr_int = int.from_bytes(packed[pos + 1:pos + 17], "big")
        interfaces.append(MembershipInterface(
            address=(
                ipaddress.IPv6Address(addr_int)
                if meta & 2
                else ipaddress.IPv4Address(addr_int)
            ),
            snmp_reachable=bool(meta & 1),
        ))
    return SlotMembership(
        device_id=slot.device_id,
        device_type=slot.device_type,
        snmp_open=bool(flags & 1),
        dhcp_pool=bool(flags & 2),
        interfaces=tuple(interfaces),
    )


def _router_membership(cfg: TopologyConfig, rng: random.Random,
                       alloc: _SlotAllocator, as_plan: AsPlan,
                       asys: AutonomousSystem, slot: DeviceSlot) -> SlotMembership:
    # Draw-for-draw prefix of derive_router() up to (not including) the
    # engine-ID derivation.
    region_share = cfg.router_vendor_share[as_plan.region]
    if rng.random() < as_plan.dominance:
        vendor = as_plan.primary_vendor
    else:
        others = {
            v: w for v, w in region_share.items()
            if v != as_plan.primary_vendor and w > 0
        }
        if not others:
            vendor = as_plan.primary_vendor
        else:
            vendor = rng.choices(list(others), weights=list(others.values()))[0]

    roll = rng.random()
    if roll < cfg.router_dual_frac:
        protocol = "dual"
    elif roll < cfg.router_dual_frac + cfg.router_v6_only_frac:
        protocol = "v6"
    else:
        protocol = "v4"
    n_ifaces = int(rng.lognormvariate(cfg.router_iface_mu, cfg.router_iface_sigma)) + 1
    if protocol == "dual":
        n_ifaces = int(n_ifaces * cfg.dual_stack_iface_boost) + 2
    n_ifaces = min(n_ifaces, alloc.iface_cap(protocol))

    first_mac = alloc.next_mac(vendor, n_ifaces)
    open_prob = as_plan.open_rate
    if vendor == "Juniper":
        open_prob *= cfg.juniper_open_factor
    snmp_open = rng.random() < open_prob

    interfaces: list[MembershipInterface] = []
    for i in range(n_ifaces):
        mac = first_mac.successor(i)
        if protocol == "v4":
            address: IPAddress = alloc.alloc_v4(asys)
        elif protocol == "v6":
            address = (
                alloc.alloc_v6_eui64(asys, mac)
                if rng.random() < cfg.eui64_v6_frac
                else alloc.alloc_v6(asys)
            )
        else:
            if i % 3:
                address = alloc.alloc_v4(asys)
            elif rng.random() < cfg.eui64_v6_frac:
                address = alloc.alloc_v6_eui64(asys, mac)
            else:
                address = alloc.alloc_v6(asys)
        reachable = rng.random() >= cfg.acl_interface_frac
        interfaces.append(
            MembershipInterface(address=address, snmp_reachable=reachable)
        )
    return SlotMembership(
        device_id=slot.device_id,
        device_type=DeviceType.ROUTER,
        snmp_open=snmp_open,
        dhcp_pool=False,
        interfaces=tuple(interfaces),
    )


def _endhost_membership(cfg: TopologyConfig, rng: random.Random,
                        alloc: _SlotAllocator, asys: AutonomousSystem,
                        slot: DeviceSlot) -> SlotMembership:
    # Draw-for-draw prefix of derive_device()+derive_endhost(); unused
    # rolls (skew width, open TCP) still advance the stream.
    share = (
        cfg.server_vendor_share
        if slot.device_type is DeviceType.SERVER
        else cfg.cpe_vendor_share
    )
    vendors = list(share)
    vendor = rng.choices(vendors, weights=[share[v] for v in vendors])[0]
    if slot.device_type is DeviceType.SERVER:
        roll = rng.random()
        dual = roll < cfg.server_dual_frac
        v6 = not dual and roll < cfg.server_dual_frac + cfg.server_v6_frac
        snmp_open = rng.random() < cfg.server_snmp_open
        dhcp = False
        rng.random()  # open_tcp roll
    else:
        roll = rng.random()
        dual = roll < cfg.cpe_dual_frac
        v6 = not dual and roll < cfg.cpe_dual_frac + cfg.cpe_v6_frac
        rng.random()  # skew-width roll
        snmp_open = rng.random() < cfg.cpe_snmp_open
        dhcp = rng.random() < cfg.cpe_dhcp_churn_frac
        rng.random()  # open_tcp roll

    if slot.device_type is DeviceType.SERVER \
            and rng.random() < cfg.server_multi_ip_frac:
        n_addrs = rng.randint(2, cfg.server_multi_ip_max)
    elif slot.device_type is DeviceType.CPE and not dhcp \
            and rng.random() < cfg.cpe_multi_ip_frac:
        n_addrs = rng.randint(2, cfg.cpe_multi_ip_max)
    else:
        n_addrs = 1

    mac = alloc.next_mac(vendor, count=max(1, n_addrs))

    def alloc_v6_for(nic_mac: MacAddress) -> ipaddress.IPv6Address:
        if rng.random() < cfg.eui64_v6_frac:
            return alloc.alloc_v6_eui64(asys, nic_mac)
        return alloc.alloc_v6(asys)

    interfaces: list[MembershipInterface] = []
    if dual:
        interfaces.append(MembershipInterface(address=alloc.alloc_v4(asys)))
        interfaces.append(MembershipInterface(address=alloc_v6_for(mac)))
        n_addrs = max(0, n_addrs - 2)
    elif v6:
        for i in range(n_addrs):
            nic = mac.successor(i)
            interfaces.append(MembershipInterface(address=alloc_v6_for(nic)))
        n_addrs = 0
    for __ in range(n_addrs):
        interfaces.append(MembershipInterface(address=alloc.alloc_v4(asys)))
    return SlotMembership(
        device_id=slot.device_id,
        device_type=slot.device_type,
        snmp_open=snmp_open,
        dhcp_pool=dhcp,
        interfaces=tuple(interfaces),
    )


def derive_membership(cfg: TopologyConfig, registry: OuiRegistry,
                      plan: StreamPlan, slot: DeviceSlot,
                      asys: AutonomousSystem) -> "SlotMembership | None":
    """Membership facts for one slot without materializing the device.

    Returns ``None`` for load balancers: their per-backend agent draws
    precede the ``snmp_open`` roll, so there is no cheap prefix — callers
    fall back to full materialization (LB slots are a sliver of the world).
    """
    if slot.device_type is DeviceType.LOAD_BALANCER:
        return None
    as_plan = plan.as_plan(slot.asn)
    rng = random.Random(mix(plan.seed, "device", slot.asn, slot.index))
    mac_rng = random.Random(mix(plan.seed, "mac", slot.asn, slot.index))
    alloc = _SlotAllocator(registry=registry, plan=plan, as_plan=as_plan,
                           slot=slot, rng=mac_rng)
    if slot.device_type is DeviceType.ROUTER:
        return _router_membership(cfg, rng, alloc, as_plan, asys, slot)
    return _endhost_membership(cfg, rng, alloc, asys, slot)


# -- between-scan events as pure functions --------------------------------------


def reboot_time(seed: int, device_id: int) -> float:
    """When a ``reboot_between_scans`` device reboots (same window as the
    sequential campaign scheduler)."""
    rng = random.Random(mix(seed, "reboot", device_id))
    return rng.uniform(timeline.SCAN1_V6_START,
                       timeline.SCAN2_V4_START + timeline.SCAN2_V4_DURATION)


def lb_cursor(seed: int, device_id: int, now: float) -> int:
    """Where a load balancer's round-robin cursor stands at ``now``.

    Other clients' traffic moves a VIP's round-robin cursor between two
    scans by an amount the prober cannot see, so the cursor at each scan
    start is an independent draw; the pool takes it modulo its backend
    count.  Probing itself never moves the cursor across scans — the
    executor restores it after every shard.
    """
    return mix(seed, "lb-cursor", device_id, now)


def churn_roll(seed: int, version: int, address: IPAddress) -> bool:
    """Whether one bound DHCP-pool address churns before the second scan."""
    rng = random.Random(mix(seed, "churn", version, int(address)))
    return rng.random() < CHURN_PROBABILITY[version]


def derive_churn_rotation(
    seed: int, version: int,
    devices: "Iterable[Device | SlotMembership]",
) -> dict[IPAddress, int]:
    """DHCP churn for one AS: rotate churned addresses between pool members.

    ``devices`` must arrive in slot order; eligibility and the roll are
    pure functions of ``(seed, version, address)``, so lazy and eager
    campaigns derive the same rotation.  Accepts full devices or
    :class:`SlotMembership` records interchangeably — it reads only the
    membership surface.
    """
    eligible: list[tuple[IPAddress, int]] = []
    for device in devices:
        if not (device.dhcp_pool and device.snmp_open):
            continue
        for interface in device.interfaces:
            if interface.version != version or not interface.snmp_reachable:
                continue
            if churn_roll(seed, version, interface.address):
                eligible.append((interface.address, device.device_id))
    if len(eligible) < 2:
        return {}
    owners = [owner for __, owner in eligible]
    rotated = owners[1:] + owners[:1]
    return {
        address: new_owner
        for (address, __), new_owner in zip(eligible, rotated)
    }


# -- the lazy view ---------------------------------------------------------------


class _SweepCache:
    """Bounded LRU with miss-streak bypass — sweep-aware residency.

    Shard plans sweep a planning window's slots cyclically, and a cyclic
    reference string one element longer than the cache is plain LRU's
    worst case: every access evicts exactly the entry needed soonest, so
    the hit rate collapses to zero while eviction work is maximal.  This
    variant counts consecutive misses; once the streak exceeds capacity
    (proof the live working set cannot fit), new entries are *bypassed*
    instead of admitted, so a resident subset survives the sweep and
    serves Θ(capacity) hits on later passes.  A single hit resets the
    streak and resumes normal LRU — shrinking working sets reclaim the
    cache immediately.  Purely deterministic: admission depends only on
    the access sequence.
    """

    __slots__ = ("_capacity", "_data", "_miss_streak")

    def __init__(self, capacity: int) -> None:
        self._capacity = max(capacity, 1)
        self._data: OrderedDict = OrderedDict()
        self._miss_streak = 0

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: object) -> "object | None":
        entry = self._data.get(key)
        if entry is not None:
            self._data.move_to_end(key)
            self._miss_streak = 0
        else:
            self._miss_streak += 1
        return entry

    def put(self, key: object, value: object) -> None:
        """Admit ``key`` unless mid-bypass (call after a missed ``get``)."""
        data = self._data
        if key in data:
            data[key] = value
            data.move_to_end(key)
            return
        if len(data) >= self._capacity and self._miss_streak > self._capacity:
            return
        data[key] = value
        while len(data) > self._capacity:
            data.popitem(last=False)

    def access(self, key: object, value: object) -> None:
        """Combined touch-or-admit for callers that already hold the value."""
        if key in self._data:
            self._data.move_to_end(key)
            self._miss_streak = 0
            return
        self._miss_streak += 1
        self.put(key, value)


#: Smallest residency cap a :class:`LazyTopology` accepts.
MIN_RESIDENT = 512

#: Worlds with at most this many slots store packed memberships in a
#: flat slot-indexed list (full coverage, no per-entry dict overhead);
#: larger worlds fall back to the sweep-aware LRU.
_SLOT_STORE_MAX = 524_288


class _SlotStore:
    """Full-coverage packed-membership store, indexed by device id.

    One pointer per slot plus the packed bytes themselves — ~4.4 MB for
    a ~930k-target world, an order of magnitude under the equivalent
    LRU dict — with O(1) gets that never evict.  Only used when the
    world is small enough that one pointer per slot is affordable;
    beyond :data:`_SLOT_STORE_MAX` the sweep-aware LRU takes over.
    """

    __slots__ = ("_data", "_count")

    def __init__(self, n_slots: int) -> None:
        self._data: "list[bytes | None]" = [None] * (n_slots + 1)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def get(self, key: int) -> "bytes | None":
        return self._data[key]

    def put(self, key: int, value: bytes) -> None:
        if self._data[key] is None:
            self._count += 1
        self._data[key] = value


class _LazyDeviceMap(Mapping):
    """``device_id -> Device`` view that derives through the cache."""

    def __init__(self, topology: "LazyTopology") -> None:
        self._topology = topology

    def __getitem__(self, device_id: int) -> Device:
        slot = self._topology.plan.slot_of_device_id(device_id)
        if slot is None:
            raise KeyError(device_id)
        return self._topology.device_at(slot)

    def __len__(self) -> int:
        return self._topology.plan.device_count

    def __iter__(self) -> Iterator[int]:
        return iter(range(1, self._topology.plan.device_count + 1))


class LazyTopology:
    """A windowed view of a streamed world.

    Exposes the slices of the ``Topology`` surface campaigns consume
    (``seed``, ``epoch``, ``devices``, ownership lookups) while holding
    at most ``max_resident`` strongly-referenced devices.  A weak-value
    canonical map guarantees that while *anyone* (a shard's snapshots
    and handlers, result handlers) still references a device, every
    lookup returns that same object — required for agent-state
    snapshot/restore correctness — without pinning the world in memory.
    The executor resolves each planning window once, through
    :meth:`resolve_window`, into routing owners and answering device
    ids; a probe nothing answers never reaches a shard, and each shard
    derives only the devices its probes reach, from their ids.
    """

    layout = "streamed"

    def __init__(self, *, config: TopologyConfig,
                 registry: "OuiRegistry | None" = None,
                 max_resident: "int | None" = None) -> None:
        if config.layout != "streamed":
            raise ValueError(
                "LazyTopology requires TopologyConfig(layout='streamed'); "
                f"got layout={config.layout!r}"
            )
        resident = max_resident if max_resident is not None else config.stream_max_resident
        if resident < MIN_RESIDENT:
            raise ValueError(
                f"max_resident must be at least {MIN_RESIDENT}, got {resident}"
            )
        self.config = config
        self.registry = registry or default_registry()
        self.plan = StreamPlan(config=config)
        self.seed = config.seed
        self.epoch = timeline.REFERENCE_TIME
        self.shared = derive_shared_populations(config)
        self.ases = build_as_objects(self.plan)
        self.devices: Mapping[int, Device] = _LazyDeviceMap(self)
        self._max_resident = resident
        self._canonical: "weakref.WeakValueDictionary[tuple[int, int], Device]" = (
            weakref.WeakValueDictionary()
        )
        self._recent = _SweepCache(self._max_resident)
        # Membership facts are cached *byte-packed* (one gc-untracked
        # string of ~20-60 bytes per slot, keyed by device id), so full
        # coverage of a ~930k-target world costs megabytes and adds no
        # object population for the collector to sweep.  Small-enough
        # worlds get a flat slot-indexed store (full coverage, no dict
        # overhead); beyond that the sweep-aware LRU bounds residency
        # and its bypass keeps a resident subset serving hits.  Two
        # byte-per-slot tables remember the cheap verdicts for every
        # slot ever derived: ``_openness`` (0 unknown / 1 open /
        # 2 closed) lets :meth:`resolve_window` reject a closed slot's
        # addresses without reading its record, and
        # ``_pool_flags`` (0 unknown / 1 churn-eligible / 2 not) lets
        # churn-map builds skip slots that can never join a rotation.
        self._memberships: "_SlotStore | _SweepCache" = (
            _SlotStore(self.plan.device_count)
            if self.plan.device_count <= _SLOT_STORE_MAX
            else _SweepCache(max(131072, 4 * self._max_resident))
        )
        n_slots = self.plan.device_count + 1
        self._openness = bytearray(n_slots)
        self._pool_flags = bytearray(n_slots)
        self._now = float("-inf")
        self._churn_versions: list[int] = []
        self._churn_maps: "OrderedDict[tuple[int, int], dict[IPAddress, int]]" = (
            OrderedDict()
        )
        self._churn_entries = 0
        #: High-water mark of simultaneously materialized devices.
        self.peak_resident = 0
        #: Total derivations (cache misses); re-derivation is correct but
        #: costs time, so benchmarks watch this.
        self.derivations = 0
        #: Membership-only derivations (the cheap fast path).
        self.membership_derivations = 0
        #: Wall-clock seconds spent deriving devices or membership records
        #: (the campaign profile's ``derive`` stage).
        self.derive_seconds = 0.0

    # -- materialization ----------------------------------------------------

    def device_at(self, slot: DeviceSlot) -> Device:
        key = (slot.asn, slot.index)
        device = self._canonical.get(key)
        if device is None:
            began = time.perf_counter()
            device = derive_device(self.config, self.registry, self.plan,
                                   slot, self.shared, self.ases)
            self.derive_seconds += time.perf_counter() - began
            self.derivations += 1
            self._canonical[key] = device
            self._age(device)
            self._openness[device.device_id] = 1 if device.snmp_open else 2
            self._pool_flags[device.device_id] = (
                1 if (device.dhcp_pool and device.snmp_open) else 2
            )
        self._recent.access(key, device)
        resident = len(self._canonical)
        if resident > self.peak_resident:
            self.peak_resident = resident
        return device

    def membership_at(self, slot: DeviceSlot) -> SlotMembership:
        """Ownership facts for one slot, materializing nothing if possible."""
        packed = self._memberships.get(slot.device_id)
        if packed is not None:
            return _unpack_membership(slot, packed)  # type: ignore[arg-type]
        return self._derive_membership_record(slot)

    def _derive_membership_record(self, slot: DeviceSlot) -> SlotMembership:
        """Cache miss path: derive, flag, and byte-pack one slot."""
        device = self._canonical.get((slot.asn, slot.index))
        if device is not None:
            record = membership_of_device(device)
        else:
            began = time.perf_counter()
            record = derive_membership(self.config, self.registry, self.plan,
                                       slot, self.ases[slot.asn])
            self.derive_seconds += time.perf_counter() - began
            if record is None:
                record = membership_of_device(self.device_at(slot))
            else:
                self.membership_derivations += 1
        self._openness[record.device_id] = 1 if record.snmp_open else 2
        self._pool_flags[record.device_id] = (
            1 if (record.dhcp_pool and record.snmp_open) else 2
        )
        self._memberships.put(slot.device_id, _pack_membership(record))
        return record

    def device_for_id(self, device_id: int) -> "Device | None":
        slot = self.plan.slot_of_device_id(device_id)
        if slot is None:
            return None
        return self.device_at(slot)

    # -- between-scan events ------------------------------------------------

    def advance_clock(self, now: float) -> None:
        """Apply due reboots and load-balancer drift to every live device;
        later derivations apply them at materialization time."""
        if now <= self._now:
            return
        self._now = now
        for device in list(self._canonical.values()):
            self._age(device)

    def _age(self, device: Device) -> None:
        """Bring one live device to the clock: LB drift, due reboot."""
        if device.agent_pool is not None and self._now > float("-inf"):
            device.agent_pool._rr_counter = lb_cursor(
                self.seed, device.device_id, self._now
            )
        if not getattr(device, "reboot_between_scans", False):
            return
        if getattr(device, "_lazy_rebooted", False):
            return
        when = reboot_time(self.seed, device.device_id)
        if when <= self._now:
            device.agent.reboot(when)
            device._lazy_rebooted = True  # type: ignore[attr-defined]

    def activate_churn(self, version: int) -> None:
        """Enable DHCP churn for one address family (idempotent)."""
        if version not in self._churn_versions:
            self._churn_versions.append(version)
            self._churn_maps.clear()
            self._churn_entries = 0

    def churn_map(self, version: int, asn: int) -> dict[IPAddress, int]:
        key = (version, asn)
        cached = self._churn_maps.get(key)
        if cached is not None:
            self._churn_maps.move_to_end(key)
            return cached
        as_plan = self.plan.as_plan(asn)
        # Only CPE devices can carry ``dhcp_pool`` (routers, servers and
        # load balancers hard-code it off), and ``derive_churn_rotation``
        # drops every member failing ``dhcp_pool and snmp_open`` — so
        # sweeping just the CPE index range, and within it skipping slots
        # already known churn-ineligible, feeds the rotation the exact
        # same eligible sequence in the same slot order.  After the first
        # scan has populated ``_pool_flags``, a map build derives only
        # the pool members themselves instead of the whole AS.
        first_cpe = as_plan.n_routers + as_plan.n_servers
        pool_flags = self._pool_flags
        base = as_plan.device_id_base
        members = (
            self.membership_at(self.plan._slot(as_plan, index))
            for index in range(first_cpe, first_cpe + as_plan.n_cpe)
            if pool_flags[base + index] != 2
        )
        rotation = derive_churn_rotation(self.seed, version, members)
        self._churn_maps[key] = rotation
        self._churn_entries += len(rotation)
        # Rebuilding a map re-derives every member of the AS, and shard
        # passes sweep a planning window's ASes cyclically — LRU's worst
        # case.  The caps therefore sit well above the AS span of one
        # 65536-target window (so each map builds once per scan) while
        # staying O(1): entries are address->int pairs, not devices.
        while len(self._churn_maps) > _CHURN_MAP_CAP or (
            self._churn_entries > _CHURN_ENTRY_BUDGET
            and len(self._churn_maps) > 1
        ):
            __, evicted = self._churn_maps.popitem(last=False)
            self._churn_entries -= len(evicted)
        return rotation

    # -- ownership / binding ------------------------------------------------

    def owner_of(self, address: IPAddress) -> "int | None":
        """Slot owner with churn overlays: the device routing ``address``."""
        slot_ids = self.plan.slot_ids([address])
        if self._churn_versions:
            new_owner = self._rotated_owners([address], slot_ids)[0]
            if new_owner is not None:
                return new_owner
        return slot_ids[0]

    def _rotated_owners(
        self, addresses: "list[IPAddress]", slot_ids: "list[int | None]"
    ) -> "list[int | None]":
        """The pool member each churned address rotated to, else ``None``.

        Each AS's rotation is fetched once per call rather than once per
        address.  A rotation only moves addresses of churn-eligible
        devices, so a slot ``_pool_flags`` already knows to be ineligible
        needs no rotation lookup.
        """
        versions = self._churn_versions
        pool_flags = self._pool_flags
        plans = self.plan.plans
        id_bases = self.plan._id_bases
        bisect_right = bisect.bisect_right
        maps: "dict[tuple[int, int], dict[IPAddress, int]]" = {}
        out: "list[int | None]" = []
        append = out.append
        for address, slot_id in zip(addresses, slot_ids):
            if slot_id is None or pool_flags[slot_id] == 2:
                append(None)
                continue
            version = address.version
            if version not in versions:
                append(None)
                continue
            key = (version, plans[bisect_right(id_bases, slot_id) - 1].asn)
            rotation = maps.get(key)
            if rotation is None:
                rotation = maps[key] = self.churn_map(*key)
            append(rotation.get(address))
        return out

    def binding_of(self, address: IPAddress) -> "Device | None":
        """The device answering SNMP at ``address``, or ``None``."""
        answering = self.resolve_window([address])[1][0]
        return None if answering is None else self.device_for_id(answering)

    def resolve_window(
        self, addresses: "list[IPAddress]"
    ) -> "tuple[list[int | None], list[int | None]]":
        """Each address's routing owner and answering device id, in one pass.

        The owner is :meth:`owner_of`'s: the slot owning the address,
        or the pool member a churned address rotated to.  The answering
        id follows the eager campaign's binding rules: an open device
        answers at its reachable interfaces, and a churned address binds
        its rotated pool member unconditionally; ``None`` means nothing
        answers.  Closed slots are rejected by ``_openness`` and open
        ones by their membership record, so no device is derived here
        except a load balancer, which has no membership shortcut.  The
        executor resolves each planning window once through this, so
        the plan arithmetic and the churn lookups run once per probe.
        """
        slot_ids = self.plan.slot_ids(addresses)
        rotated = (
            self._rotated_owners(addresses, slot_ids)
            if self._churn_versions
            else None
        )
        owners = (
            slot_ids
            if rotated is None
            else [
                slot_id if new_owner is None else new_owner
                for slot_id, new_owner in zip(slot_ids, rotated)
            ]
        )
        openness = self._openness
        reachable_at: "dict[int, frozenset[int]]" = {}
        answering: "list[int | None]" = []
        append = answering.append
        for position, slot_id in enumerate(slot_ids):
            if rotated is not None and rotated[position] is not None:
                append(rotated[position])
                continue
            if slot_id is None or openness[slot_id] == 2:
                append(None)
                continue
            reachable = reachable_at.get(slot_id)
            if reachable is None:
                reachable = reachable_at[slot_id] = self._answering_at(slot_id)
            append(slot_id if int(addresses[position]) in reachable else None)
        return owners, answering

    def _answering_at(self, device_id: int) -> "frozenset[int]":
        """The addresses, as integers, at which slot ``device_id`` answers.

        Its reachable interfaces when it is SNMP-open, none when closed.
        One set serves both families: every IPv6 slot address lies at or
        above ``_V6_ORIGIN``, far above the IPv4 space.
        """
        packed = self._memberships.get(device_id)
        if packed is None:
            slot = self.plan.slot_of_device_id(device_id)
            record = self._derive_membership_record(slot)  # type: ignore[arg-type]
            if not record.snmp_open:
                return frozenset()
            return frozenset(
                int(interface.address)
                for interface in record.interfaces
                if interface.snmp_reachable
            )
        if not packed[0] & 1:  # type: ignore[index]
            return frozenset()
        return frozenset(
            int.from_bytes(packed[pos + 1:pos + 17], "big")  # type: ignore[index]
            for pos in range(1, len(packed), 17)  # type: ignore[arg-type]
            if packed[pos] & 1  # type: ignore[index]
        )

    def device_of_address(self, address: IPAddress) -> "Device | None":
        """Ground truth including churn overlays (``Topology`` parity)."""
        owner = self.owner_of(address)
        if owner is None:
            return None
        return self.device_for_id(owner)

    # -- statistics ---------------------------------------------------------

    @property
    def device_count(self) -> int:
        return self.plan.device_count

    @property
    def max_resident(self) -> int:
        """The residency cap consumers should budget strong refs against."""
        return self._max_resident
