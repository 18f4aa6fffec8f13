"""The shared experiment context: the figure layer over one Session.

A :class:`~repro.api.Session` builds the simulated Internet and runs the
four scan campaigns, the filtering pipeline, alias resolution
(single-family and dual-stack) and vendor fingerprinting — once.  Every
table/figure module projects from those cached results through this
context, mirroring how the paper derives all of its evaluation from the
same two scan pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import cast

from repro.alias.sets import AliasSets
from repro.api import Session, TopologyOptions
from repro.fingerprint.vendor import VendorInference
from repro.net.addresses import IPAddress
from repro.pipeline.filters import PipelineResult
from repro.pipeline.records import MergedObservation, ValidRecord
from repro.scanner.campaign import CampaignResult
from repro.topology.config import TopologyConfig
from repro.topology.datasets import RdnsZone, RouterDatasets, build_rdns_zone
from repro.topology.model import Topology


@dataclass
class ExperimentContext:
    """Everything the evaluation sections consume, over one ``session``.

    The figures need a materialized world (ground-truth lookups, router
    datasets), so a session whose config is streamed is rejected.  A
    custom filter pipeline is the session's own ``reboot_threshold`` /
    ``skip``: ``ExperimentContext(Session(config=..., skip={...}))``.
    """

    session: Session

    def __post_init__(self) -> None:
        if self.session.config.layout == "streamed":
            raise ValueError(
                "ExperimentContext needs a materialized topology; a "
                "streamed config only builds a LazyTopology"
            )

    @classmethod
    def create(
        cls,
        config: "TopologyConfig | None" = None,
        topology_file: "str | None" = None,
    ) -> "ExperimentContext":
        """A context over a fresh :class:`~repro.api.Session` of ``config``.

        ``topology_file`` runs the whole evaluation over a world loaded
        from an ITDK-style topology description instead of a generated
        one (the ``report``/``publish`` ``--topology-file`` flag) — the
        scheduled-rescan path for file-defined populations.  Each stage
        runs when a figure first needs it.
        """
        return cls(
            Session(
                config=config or TopologyConfig.paper_scale(),
                topology=TopologyOptions(topology_file=topology_file),
            )
        )

    # -- the session's results ------------------------------------------------

    @property
    def config(self) -> TopologyConfig:
        return self.session.config

    @property
    def topology(self) -> Topology:
        return cast(Topology, self.session.topology)

    @property
    def campaign(self) -> CampaignResult:
        return self.session.campaign

    @property
    def datasets(self) -> RouterDatasets:
        return self.campaign.datasets

    @property
    def pipeline_v4(self) -> PipelineResult:
        return self.session.pipeline(4)

    @property
    def pipeline_v6(self) -> PipelineResult:
        return self.session.pipeline(6)

    @property
    def valid_v4(self) -> list[ValidRecord]:
        return self.session.valid_v4

    @property
    def valid_v6(self) -> list[ValidRecord]:
        return self.session.valid_v6

    @property
    def record_by_address(self) -> dict[IPAddress, ValidRecord]:
        return self.session.record_by_address

    @property
    def alias_v4(self) -> AliasSets:
        return self.session.alias_v4

    @property
    def alias_v6(self) -> AliasSets:
        return self.session.alias_v6

    @property
    def alias_dual(self) -> AliasSets:
        """The final joint alias sets (§5.1) — 'devices' in §6's terms."""
        return self.session.alias_sets

    @property
    def device_vendors(self) -> list[tuple[frozenset, VendorInference]]:
        """(alias set, vendor) for every de-aliased device (Figure 11)."""
        return self.session.device_vendors

    # -- figure-layer views ----------------------------------------------------

    @cached_property
    def rdns_zone(self) -> RdnsZone:
        return build_rdns_zone(self.topology, self.config)

    @cached_property
    def merged_v4(self) -> list[MergedObservation]:
        """Scan-pair join for IPv4 (pre-filter), cached for the figures."""
        from repro.pipeline.records import merge_scan_pair

        return merge_scan_pair(*self.campaign.scan_pair(4))[0]

    @cached_property
    def merged_v6(self) -> list[MergedObservation]:
        """Scan-pair join for IPv6 (pre-filter), cached for the figures."""
        from repro.pipeline.records import merge_scan_pair

        return merge_scan_pair(*self.campaign.scan_pair(6))[0]

    # -- router tagging -------------------------------------------------------------

    def is_router_set(self, group: "frozenset[IPAddress]") -> bool:
        """An alias set is a router when any member IP is in a router dataset."""
        return any(self.datasets.is_router_ip(a) for a in group)

    @cached_property
    def router_sets(self) -> AliasSets:
        """Alias sets identified as routers (the ~350k population)."""
        return AliasSets(
            sets=[g for g in self.alias_dual.sets if self.is_router_set(g)],
            technique="snmpv3-routers",
        )

    @cached_property
    def responsive_router_ips_v4(self) -> set[IPAddress]:
        """SNMPv3-responsive IPv4 addresses inside the union router dataset."""
        scan1, scan2 = self.campaign.scan_pair(4)
        responsive = set(scan1.observations) | set(scan2.observations)
        return responsive & set(self.datasets.union_v4)

    @cached_property
    def router_vendors(self) -> list[tuple[frozenset, VendorInference]]:
        """(alias set, vendor) for router alias sets (Figure 12)."""
        return [(g, v) for g, v in self.device_vendors if self.is_router_set(g)]

    # -- per-AS views --------------------------------------------------------------------

    def as_of_set(self, group: "frozenset[IPAddress]") -> "int | None":
        """Majority AS of an alias set's addresses (ground-truth prefix
        map); a tie goes to the smaller ASN."""
        counts: dict[int, int] = {}
        for address in group:
            device = self.topology.device_of_address(address)
            if device is not None:
                counts[device.asn] = counts.get(device.asn, 0) + 1
        if not counts:
            return None
        return min(counts, key=lambda asn: (-counts[asn], asn))

    @cached_property
    def router_vendor_by_as(self) -> dict[int, list[str]]:
        """{asn: [inferred vendor per router]} — the §6.4 input."""
        result: dict[int, list[str]] = {}
        for group, verdict in self.router_vendors:
            asn = self.as_of_set(group)
            if asn is None:
                continue
            result.setdefault(asn, []).append(verdict.vendor)
        return result

    # -- reboot views ------------------------------------------------------------------------

    def record_of_set(self, group: "frozenset[IPAddress]") -> "ValidRecord | None":
        """The valid record of an alias set's first address that has one.

        Addresses are taken IPv4 first, then in numeric order: a
        frozenset's own order follows the interpreter's string hashing,
        so it would tie the pick to the process.
        """
        for address in sorted(group, key=lambda a: (a.version, int(a))):
            record = self.record_by_address.get(address)
            if record is not None:
                return record
        return None

    @cached_property
    def router_last_reboots(self) -> list[float]:
        """One last-reboot timestamp per router alias set (Figure 13)."""
        records = (self.record_of_set(group) for group in self.router_sets.sets)
        return [r.last_reboot_time for r in records if r is not None]
