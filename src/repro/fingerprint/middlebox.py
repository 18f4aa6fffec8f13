"""NAT and load-balancer inference — the paper's §9 future work.

Two middlebox signatures fall out of SNMPv3 discovery data:

* **NAT gateways** — devices whose engine ID is IPv4-format but embeds a
  *non-routable* (RFC 1918 / special-purpose) address: the agent derived
  its identifier from a private LAN interface, revealing that the public
  address fronts a private network.  The §4.4 pipeline currently throws
  these responses away ("unroutable IPv4 engine IDs"); the detector mines
  them instead.

* **Load balancers** — virtual IPs where *repeated* probes return
  different engine IDs within seconds.  DHCP churn operates on timescales
  of hours-to-days, so an identifier flip inside a burst cannot be
  re-addressing; it means several SNMP engines share the address.
  Source-hashed pools pin one prober to one backend and therefore evade a
  single-vantage burst — probing from multiple source addresses recovers
  part of that blind spot, exactly like multi-vantage measurement would.

The detector works on a live fabric (re-probing) plus recorded scan
observations (NAT mining), so it composes with the standard campaign.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field

from repro.asn1 import ber
from repro.net.addresses import IPAddress, is_routable_ipv4
from repro.net.packet import Datagram
from repro.net.transport import LinkProfile, NetworkFabric
from repro.scanner.records import ScanObservation
from repro.snmp.constants import SNMP_PORT
from repro.snmp.engine_id import EngineIdFormat
from repro.snmp.messages import build_discovery_probe, parse_discovery_response
from repro.topology.model import DeviceType, Topology

#: Source addresses the burst prober cycles through (multi-vantage
#: emulation to pierce source-hashed pools).
_VANTAGE_POINTS = tuple(
    ipaddress.ip_address(a)
    for a in (
        "203.0.113.77", "203.0.113.78", "198.51.100.14", "192.0.2.201",
        "2001:db8:5ca0::77", "2001:db8:5ca0::78",
    )
)


@dataclass(frozen=True)
class NatVerdict:
    """One inferred NAT gateway."""

    address: IPAddress
    embedded_address: ipaddress.IPv4Address


@dataclass(frozen=True)
class LoadBalancerVerdict:
    """One inferred load-balanced VIP."""

    address: IPAddress
    distinct_engine_ids: int
    probes_answered: int


@dataclass
class MiddleboxReport:
    """Detection output plus ground-truth scoring (when available)."""

    nats: list[NatVerdict] = field(default_factory=list)
    load_balancers: list[LoadBalancerVerdict] = field(default_factory=list)
    nat_precision: float = 0.0
    nat_recall: float = 0.0
    lb_precision: float = 0.0
    lb_recall: float = 0.0


def detect_nat_gateways(observations: "list[ScanObservation]") -> list[NatVerdict]:
    """Mine NAT gateways from recorded discovery responses."""
    verdicts = []
    for obs in observations:
        engine_id = obs.engine_id
        if engine_id is None or engine_id.format is not EngineIdFormat.IPV4:
            continue
        embedded = engine_id.ip
        if embedded is not None and not is_routable_ipv4(embedded):
            verdicts.append(NatVerdict(address=obs.address, embedded_address=embedded))
    return verdicts


class LoadBalancerProber:
    """Burst re-prober: k discovery probes per target from several
    vantage source addresses, flagging engine-ID flips."""

    def __init__(self, fabric: NetworkFabric, probes_per_vantage: int = 4) -> None:
        self._fabric = fabric
        self.probes_per_vantage = probes_per_vantage

    def probe_target(self, target: IPAddress, start: float) -> "LoadBalancerVerdict | None":
        """Burst-probe one address; a verdict is returned only on a flip."""
        engine_ids: set[bytes] = set()
        answered = 0
        now = start
        vantages = [v for v in _VANTAGE_POINTS if v.version == target.version]
        for vantage in vantages:
            for i in range(self.probes_per_vantage):
                probe = build_discovery_probe(msg_id=int(now * 10) % 2**30 + i + 1)
                datagram = Datagram(
                    src=vantage, dst=target, sport=40000 + i, dport=SNMP_PORT,
                    payload=probe.encode(), sent_at=now,
                )
                for reply, __arrival in self._fabric.inject(datagram, now=now):
                    try:
                        parsed = parse_discovery_response(reply.payload)
                    except ber.BerDecodeError:
                        continue
                    answered += 1
                    engine_ids.add(parsed.engine_id)
                now += 0.25
        if len(engine_ids) > 1:
            return LoadBalancerVerdict(
                address=target,
                distinct_engine_ids=len(engine_ids),
                probes_answered=answered,
            )
        return None


class MiddleboxDetector:
    """End-to-end detector over a topology: builds its own probing fabric
    (the campaign's bindings), bursts the candidates, mines NAT evidence,
    and scores both against ground truth."""

    def __init__(self, topology: Topology, seed: int = 0x9B) -> None:
        self.topology = topology
        self._fabric = NetworkFabric(
            seed=seed ^ topology.seed,
            default_profile=LinkProfile(loss_probability=0.01),
        )
        for device in topology.devices.values():
            if not device.snmp_open:
                continue
            handler = device.snmp_handler()
            for interface in device.interfaces:
                if interface.snmp_reachable:
                    self._fabric.bind(interface.address, "udp", SNMP_PORT, handler)
        self._prober = LoadBalancerProber(self._fabric)

    def run(
        self,
        observations: "list[ScanObservation]",
        lb_candidates: "list[IPAddress] | None" = None,
        start_time: float = 0.0,
    ) -> MiddleboxReport:
        """Detect both middlebox classes and score against ground truth.

        ``lb_candidates`` defaults to every observed responsive address —
        the realistic sweep; pass a narrower list to burst selectively.
        """
        report = MiddleboxReport()
        report.nats = detect_nat_gateways(observations)

        if lb_candidates is None:
            lb_candidates = [obs.address for obs in observations]
        now = start_time
        for target in lb_candidates:
            verdict = self._prober.probe_target(target, now)
            now += 10.0
            if verdict is not None:
                report.load_balancers.append(verdict)

        self._score(report)
        return report

    # -- scoring ------------------------------------------------------------

    def _score(self, report: MiddleboxReport) -> None:
        true_nats = {
            i.address
            for d in self.topology.devices.values()
            if d.nat_gateway and d.snmp_open
            for i in d.interfaces
        }
        true_lbs = {
            i.address
            for d in self.topology.devices.values()
            if d.device_type is DeviceType.LOAD_BALANCER and d.snmp_open
            for i in d.interfaces
        }
        found_nats = {v.address for v in report.nats}
        found_lbs = {v.address for v in report.load_balancers}
        report.nat_precision = _precision(found_nats, true_nats)
        report.nat_recall = _recall(found_nats, true_nats)
        report.lb_precision = _precision(found_lbs, true_lbs)
        report.lb_recall = _recall(found_lbs, true_lbs)


def _precision(found: set, truth: set) -> float:
    if not found:
        return 1.0
    return len(found & truth) / len(found)


def _recall(found: set, truth: set) -> float:
    if not truth:
        return 1.0
    return len(found & truth) / len(truth)
