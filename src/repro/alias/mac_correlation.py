"""Dual-stack aliasing via MAC correlation: SNMPv3 × EUI-64.

The paper resolves dual-stack aliases by matching SNMPv3 identity fields
across address families — which requires the device to answer SNMP on
*both* families.  This extension removes that requirement for one large
class of devices: when

* the IPv4 side disclosed a **MAC-format engine ID**, and
* an observed IPv6 address is **EUI-64-derived** from one of the same
  device's MACs,

the MAC itself is the join key.  No IPv6 probe needs an SNMP answer —
the hitlist's raw address strings are enough.  Matching is exact by
default: consecutive factory MACs belong to *different* devices, so
fuzzy neighbourhoods trade precision for nothing (the ablation bench
demonstrates the collapse).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.addresses import IPAddress
from repro.net.eui64 import mac_from_ipv6
from repro.net.mac import MacAddress
from repro.pipeline.records import ValidRecord
from repro.snmp.engine_id import EngineIdFormat
from repro.topology.model import Topology


@dataclass(frozen=True)
class MacCorrelationMatch:
    """One inferred dual-stack pairing."""

    v4_address: IPAddress
    v6_address: IPAddress
    engine_mac: MacAddress
    v6_mac: MacAddress


@dataclass
class MacCorrelator:
    """Join MAC-format engine IDs against EUI-64 IPv6 addresses.

    ``neighborhood`` is the maximum MAC distance accepted.  The default 0
    (exact match) is the sound setting: vendors hand out *consecutive*
    MACs to consecutive devices on the production line, so widening the
    neighbourhood matches sibling devices, not sibling interfaces — the
    ablation benchmark quantifies the precision collapse.
    """

    neighborhood: int = 0

    def correlate(
        self,
        v4_records: "list[ValidRecord]",
        v6_addresses: "list[IPAddress]",
    ) -> list[MacCorrelationMatch]:
        """Find all (v4, v6) pairs joined by a MAC."""
        # Index the SNMPv3 side by MAC value.
        by_mac: dict[int, list[ValidRecord]] = {}
        for record in v4_records:
            if record.engine_id.format is not EngineIdFormat.MAC:
                continue
            mac = record.engine_id.mac
            if mac is None or mac.value == 0:
                continue
            by_mac.setdefault(mac.value, []).append(record)

        matches: list[MacCorrelationMatch] = []
        for address in v6_addresses:
            v6_mac = mac_from_ipv6(address)
            if v6_mac is None:
                continue
            for candidate in range(
                v6_mac.value - self.neighborhood, v6_mac.value + self.neighborhood + 1
            ):
                for record in by_mac.get(candidate, ()):
                    matches.append(
                        MacCorrelationMatch(
                            v4_address=record.address,
                            v6_address=address,
                            engine_mac=record.engine_id.mac,
                            v6_mac=v6_mac,
                        )
                    )
        return matches


@dataclass(frozen=True)
class CorrelationEvaluation:
    """Ground-truth scoring of the correlation."""

    matches: int
    correct: int
    eui64_v6_addresses: int
    matchable_devices: int

    @property
    def precision(self) -> float:
        return self.correct / self.matches if self.matches else 1.0

    @property
    def recall(self) -> float:
        """Matched devices / devices that were matchable at all (MAC
        engine ID on v4 + EUI-64 address on v6)."""
        if self.matchable_devices == 0:
            return 1.0
        matched_devices = min(self.correct, self.matchable_devices)
        return matched_devices / self.matchable_devices


def evaluate_correlation(
    topology: Topology, matches: "list[MacCorrelationMatch]",
    v4_records: "list[ValidRecord]", v6_addresses: "list[IPAddress]",
) -> CorrelationEvaluation:
    """Score matches against device ground truth."""
    correct = 0
    matched_devices: set[int] = set()
    for match in matches:
        left = topology.device_of_address(match.v4_address)
        right = topology.device_of_address(match.v6_address)
        if left is not None and right is not None \
                and left.device_id == right.device_id:
            correct += 1
            matched_devices.add(left.device_id)

    eui64_count = sum(1 for a in v6_addresses if mac_from_ipv6(a) is not None)
    v4_devices = {
        topology.device_of_address(r.address).device_id
        for r in v4_records
        if r.engine_id.format is EngineIdFormat.MAC
        and topology.device_of_address(r.address) is not None
    }
    v6_eui_devices = {
        topology.device_of_address(a).device_id
        for a in v6_addresses
        if mac_from_ipv6(a) is not None and topology.device_of_address(a) is not None
    }
    matchable = len(v4_devices & v6_eui_devices)
    return CorrelationEvaluation(
        matches=len(matches),
        correct=correct,
        eui64_v6_addresses=eui64_count,
        matchable_devices=matchable,
    )
