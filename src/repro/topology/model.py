"""Topology data model: regions, ASes, devices, interfaces.

Everything the generator creates is stored here, together with the ground
truth the evaluation needs (which IPs belong to which device, each
device's true vendor, type and behaviour).
"""

from __future__ import annotations

import enum
import ipaddress
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

from repro.net.addresses import IPAddress
from repro.snmp.agent import SnmpAgent
from repro.snmp.engine_id import EngineId

if TYPE_CHECKING:
    from repro.net.packet import Datagram


class Region(enum.Enum):
    """Continents, as the paper aggregates networks (Figure 15/18/20)."""

    EU = "EU"
    NA = "NA"
    AS = "AS"
    SA = "SA"
    AF = "AF"
    OC = "OC"


class DeviceType(enum.Enum):
    """Coarse device classes in the simulated population."""

    ROUTER = "router"
    SERVER = "server"
    CPE = "cpe"
    IOT = "iot"
    LOAD_BALANCER = "load-balancer"


@dataclass(frozen=True)
class Interface:
    """One addressed interface of a device."""

    address: IPAddress
    mac: "object | None" = None  # MacAddress; None for virtual interfaces
    snmp_reachable: bool = True  # False models per-interface ACLs

    @property
    def version(self) -> int:
        return self.address.version


@dataclass
class Device:
    """A simulated network device with its SNMP engine and quirks.

    ``agent`` is the live SNMP engine answering probes; ``interfaces`` are
    the addresses bound on the fabric.  ``dhcp_pool`` marks devices whose
    address changes between scans (CPE churn).
    """

    device_id: int
    device_type: DeviceType
    vendor: str
    asn: int
    region: Region
    interfaces: list[Interface]
    agent: SnmpAgent
    snmp_open: bool = True        # answers SNMP from the open Internet
    dhcp_pool: bool = False       # re-addresses between scans
    open_tcp_ports: tuple[int, ...] = ()
    ip_id_rate: float = 0.0       # shared IP-ID counter velocity (ids/sec)
    ip_id_random: bool = False    # per-packet random IP-ID instead of counter
    os_family: str = ""
    reboot_between_scans: bool = False  # restarts in the inter-scan window
    agent_pool: "object | None" = None  # AgentPool when this is a LB VIP
    nat_gateway: bool = False           # engine ID reveals a private LAN

    @property
    def engine_id(self) -> EngineId:
        return self.agent.engine_id

    def snmp_handler(self) -> "Callable[[Datagram, float], list[bytes]]":
        """The fabric handler this device answers SNMP with.

        A load-balancer VIP answers through its ``AgentPool`` (the
        scheduling policy picks a backend engine); every other device
        answers with its own agent.  Each call returns a new bound
        method.
        """
        if self.agent_pool is not None:
            return self.agent_pool.handle_datagram  # type: ignore[attr-defined]
        return self.agent.handle_datagram

    @property
    def ipv4_interfaces(self) -> list[Interface]:
        return [itf for itf in self.interfaces if itf.version == 4]

    @property
    def ipv6_interfaces(self) -> list[Interface]:
        return [itf for itf in self.interfaces if itf.version == 6]

    @property
    def is_dual_stack(self) -> bool:
        return bool(self.ipv4_interfaces) and bool(self.ipv6_interfaces)

    @property
    def addresses(self) -> list[IPAddress]:
        return [itf.address for itf in self.interfaces]


@dataclass
class AutonomousSystem:
    """A network: number, region, address space and device membership."""

    asn: int
    region: Region
    ipv4_prefix: ipaddress.IPv4Network
    ipv6_prefix: ipaddress.IPv6Network
    name: str = ""
    rdns_suffix: str = ""
    rdns_style: str = "iface-router"
    device_ids: list[int] = field(default_factory=list)
    next_host: int = 0  # address-allocation cursor used during generation
    router_open_rate: float = 0.16  # AS-level SNMP management exposure policy

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"AS{self.asn}"
        if not self.rdns_suffix:
            self.rdns_suffix = f"net{self.asn}.example"


@dataclass
class Topology:
    """The generated Internet: ASes, devices and ground-truth lookups."""

    ases: dict[int, AutonomousSystem]
    devices: dict[int, Device]
    seed: int
    epoch: float = 0.0
    #: ``"sequential"`` (classic creation-order world) or ``"file"``
    #: (ingested topology description).  The streamed layout has no eager
    #: ``Topology``; :class:`~repro.topology.lazy.LazyTopology` builds it.
    layout: str = "sequential"

    def __post_init__(self) -> None:
        self._device_by_address: dict[IPAddress, int] = {}
        for device in self.devices.values():
            for interface in device.interfaces:
                self._device_by_address[interface.address] = device.device_id

    # -- ground truth -------------------------------------------------------

    def device_of_address(self, address: IPAddress) -> "Device | None":
        """Ground truth: which device owns this address."""
        device_id = self._device_by_address.get(address)
        if device_id is None:
            return None
        return self.devices[device_id]

    def address_owners(self) -> "dict[IPAddress, int]":
        """A copy of the ``address -> device id`` ground-truth map.

        Callers that resolve owners per probe (the executor's shard
        planner, the retry breaker) overlay their live rebinding state on
        this copy instead of paying two hash lookups per address.
        """
        return dict(self._device_by_address)

    def true_alias_sets(self, version: "int | None" = None) -> dict[int, frozenset[IPAddress]]:
        """Ground-truth alias sets: device id -> its addresses.

        ``version`` restricts to one address family; ``None`` returns the
        dual-stack truth.
        """
        result: dict[int, frozenset[IPAddress]] = {}
        for device in self.devices.values():
            addrs = [
                itf.address
                for itf in device.interfaces
                if version is None or itf.version == version
            ]
            if addrs:
                result[device.device_id] = frozenset(addrs)
        return result

    def routers(self) -> Iterator[Device]:
        """All router devices."""
        return (d for d in self.devices.values() if d.device_type is DeviceType.ROUTER)

    def devices_in_as(self, asn: int) -> Iterator[Device]:
        """Devices belonging to one AS."""
        for device_id in self.ases[asn].device_ids:
            yield self.devices[device_id]

    def all_addresses(self, version: int) -> list[IPAddress]:
        """Every assigned address of one family (scan ground truth)."""
        return [addr for addr, __ in self._iter_addrs(version)]

    def _iter_addrs(self, version: int) -> Iterator[tuple[IPAddress, Device]]:
        for device in self.devices.values():
            for interface in device.interfaces:
                if interface.version == version:
                    yield interface.address, device

    # -- statistics ------------------------------------------------------------

    @property
    def device_count(self) -> int:
        return len(self.devices)

    @property
    def router_count(self) -> int:
        return sum(1 for __ in self.routers())

    def vendor_counts(self, device_type: "DeviceType | None" = None) -> dict[str, int]:
        """Ground-truth vendor histogram, optionally per device type."""
        counts: dict[str, int] = {}
        for device in self.devices.values():
            if device_type is not None and device.device_type is not device_type:
                continue
            counts[device.vendor] = counts.get(device.vendor, 0) + 1
        return counts
