"""Vendor / deployment figures: 10–18 and 20, plus §6.2.3 and §8.

Everything downstream of fingerprinting: vendor popularity bars, per-AS
coverage, uptime CDF, vendors-per-AS, regional market shares, top-10
networks, vendor dominance, the Nmap comparison, and the amplification
observation.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from repro.analysis.coverage import AsCoverage, as_coverage
from repro.analysis.dominance import (
    AsVendorProfile,
    as_vendor_profiles,
    dominance_values,
    vendors_per_as,
)
from repro.analysis.ecdf import Ecdf
from repro.analysis.regional import (
    TopNetwork,
    regional_dominance,
    regional_router_counts,
    regional_vendor_shares,
    routers_per_as_by_region,
    top_networks_vendor_mix,
)
from repro.experiments.context import ExperimentContext
from repro.fingerprint.nmap import NmapEngine, NmapOutcome
from repro.fingerprint.vendor import VendorInference
from repro.fingerprint.uptime import UptimeStatistics, uptime_statistics
from repro.topology.model import Region


# -- Figure 10: SNMPv3 coverage per AS -------------------------------------------


@dataclass(frozen=True)
class Figure10:
    coverage: AsCoverage
    thresholds: tuple[int, ...] = (2, 5, 10, 50, 100)

    def ecdfs(self) -> dict[int, Ecdf]:
        return {t: self.coverage.ecdf(min_total=t) for t in self.thresholds
                if self.coverage.ratios(min_total=t)}


def figure10(ctx: ExperimentContext) -> Figure10:
    return Figure10(
        coverage=as_coverage(
            ctx.topology, ctx.datasets.union_v4, ctx.responsive_router_ips_v4
        )
    )


# -- Figures 11 / 12: vendor popularity bars ------------------------------------------


@dataclass(frozen=True)
class VendorPopularity:
    """Vendor histogram with the per-protocol split of the bar charts."""

    counts: dict[str, int]
    by_protocol: dict[str, dict[str, int]]  # vendor -> {v4, v6, dual}

    def top(self, n: int = 10) -> list[tuple[str, int]]:
        return Counter(self.counts).most_common(n)

    def top_n_share(self, n: int = 10) -> float:
        total = sum(self.counts.values())
        if total == 0:
            return 0.0
        return sum(c for __, c in self.top(n)) / total

    def count(self, vendor: str) -> int:
        return self.counts.get(vendor, 0)


def _popularity(
    sets_with_vendors: "list[tuple[frozenset, VendorInference]]",
) -> VendorPopularity:
    counts: dict[str, int] = {}
    by_protocol: dict[str, dict[str, int]] = {}
    for group, verdict in sets_with_vendors:
        vendor = verdict.vendor
        counts[vendor] = counts.get(vendor, 0) + 1
        versions = {a.version for a in group}
        kind = "dual" if versions == {4, 6} else ("v4" if versions == {4} else "v6")
        bucket = by_protocol.setdefault(vendor, {"v4": 0, "v6": 0, "dual": 0})
        bucket[kind] += 1
    return VendorPopularity(counts=counts, by_protocol=by_protocol)


def figure11(ctx: ExperimentContext) -> VendorPopularity:
    """Device-level vendor popularity (all de-aliased alias sets)."""
    return _popularity(ctx.device_vendors)


def figure12(ctx: ExperimentContext) -> VendorPopularity:
    """Router-level vendor popularity."""
    return _popularity(ctx.router_vendors)


# -- Figure 13: time since last reboot -----------------------------------------------------


def figure13(ctx: ExperimentContext) -> UptimeStatistics:
    return uptime_statistics(ctx.router_last_reboots)


def figure13_by_vendor(ctx: ExperimentContext, min_routers: int = 5) -> dict[str, UptimeStatistics]:
    """Patch hygiene per vendor: §6.3's uptime analysis, broken down.

    A vendor whose routers run un-rebooted for years is a vendor whose
    deployed fleet likely misses security updates — the per-vendor view
    an operator (or attacker) derives immediately from Figures 12+13.
    """
    reboots_by_vendor: dict[str, list[float]] = {}
    for group, verdict in ctx.router_vendors:
        record = ctx.record_of_set(group)
        if record is not None:
            reboots_by_vendor.setdefault(verdict.vendor, []).append(
                record.last_reboot_time
            )
    return {
        vendor: uptime_statistics(reboots)
        for vendor, reboots in reboots_by_vendor.items()
        if len(reboots) >= min_routers
    }


# -- Figures 14 / 17: per-AS vendor structure ------------------------------------------------


def _profiles(ctx: ExperimentContext) -> list[AsVendorProfile]:
    return as_vendor_profiles(ctx.router_vendor_by_as)


@dataclass(frozen=True)
class Figure14:
    ecdf_by_min_routers: dict[int, Ecdf]

    def single_vendor_fraction(self, min_routers: int) -> float:
        return self.ecdf_by_min_routers[min_routers].at(1.0)


def figure14(ctx: ExperimentContext,
             thresholds: tuple[int, ...] = (1, 5, 20, 100)) -> Figure14:
    profiles = _profiles(ctx)
    return Figure14(
        ecdf_by_min_routers={
            t: vendors_per_as(profiles, min_routers=t)
            for t in thresholds
            if any(p.router_count >= t for p in profiles)
        }
    )


@dataclass(frozen=True)
class Figure17:
    ecdf_by_min_routers: dict[int, Ecdf]

    def high_dominance_fraction(self, min_routers: int, level: float = 0.7) -> float:
        """Paper: >80% of ASes have dominance >= 0.7."""
        return self.ecdf_by_min_routers[min_routers].fraction_at_least(level)


def figure17(ctx: ExperimentContext,
             thresholds: tuple[int, ...] = (2, 5, 10, 50, 100)) -> Figure17:
    profiles = _profiles(ctx)
    return Figure17(
        ecdf_by_min_routers={
            t: dominance_values(profiles, min_routers=t)
            for t in thresholds
            if any(p.router_count >= t for p in profiles)
        }
    )


# -- Figures 15 / 16 / 18 / 20: regional views ------------------------------------------------------


@dataclass(frozen=True)
class Figure15:
    shares: dict[Region, dict[str, float]]
    totals: dict[Region, int]

    def share(self, region: Region, vendor: str) -> float:
        return self.shares.get(region, {}).get(vendor, 0.0)


def figure15(ctx: ExperimentContext) -> Figure15:
    profiles = _profiles(ctx)
    return Figure15(
        shares=regional_vendor_shares(ctx.topology, profiles),
        totals=regional_router_counts(ctx.topology, profiles),
    )


def figure16(ctx: ExperimentContext, n: int = 10) -> list[TopNetwork]:
    return top_networks_vendor_mix(ctx.topology, _profiles(ctx), n=n)


def figure18(ctx: ExperimentContext, min_routers: int = 10) -> dict[Region, Ecdf]:
    return regional_dominance(ctx.topology, _profiles(ctx), min_routers=min_routers)


def figure20(ctx: ExperimentContext) -> dict[Region, Ecdf]:
    return routers_per_as_by_region(ctx.topology, _profiles(ctx))


# -- §6.2.3: Nmap comparison -----------------------------------------------------------------------------


@dataclass(frozen=True)
class Section62:
    """Outcome histogram of Nmap over sampled router IPs vs SNMPv3 truth."""

    sampled: int
    no_result: int
    matches: int
    agreeing_matches: int
    guesses: int
    disagreeing_guesses: int
    nmap_probes_total: int
    snmpv3_probes_total: int

    @property
    def no_result_fraction(self) -> float:
        """Paper: 22.2k of 26.4k -> ~84%."""
        return self.no_result / self.sampled if self.sampled else 0.0


def section62(ctx: ExperimentContext, seed: int = 0x62) -> Section62:
    """Sample one IP per router alias set, run Nmap, compare vendors."""
    rng = random.Random(seed ^ ctx.topology.seed)
    engine = NmapEngine(ctx.topology)
    sampled = 0
    no_result = 0
    matches = 0
    agreeing = 0
    guesses = 0
    disagreeing = 0
    probes = 0
    for group, verdict in ctx.router_vendors:
        v4 = [a for a in group if a.version == 4]
        if not v4:
            continue
        address = rng.choice(sorted(v4, key=int))
        result = engine.fingerprint(address)
        sampled += 1
        probes += result.probes_sent
        if result.outcome is NmapOutcome.NO_RESULT:
            no_result += 1
        elif result.outcome is NmapOutcome.MATCH:
            matches += 1
            if result.vendor == verdict.vendor:
                agreeing += 1
        else:
            guesses += 1
            if result.vendor != verdict.vendor:
                disagreeing += 1
    return Section62(
        sampled=sampled,
        no_result=no_result,
        matches=matches,
        agreeing_matches=agreeing,
        guesses=guesses,
        disagreeing_guesses=disagreeing,
        nmap_probes_total=probes,
        snmpv3_probes_total=sampled,  # one probe per target
    )


# -- §8: amplification observation ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Section8:
    """Multi-response statistics from the first IPv4 scan."""

    responsive_ips: int
    multi_response_ips: int
    max_responses_single_ip: int

    @property
    def multi_response_fraction(self) -> float:
        """Paper: ~0.6% of responding IPv4 addresses."""
        if self.responsive_ips == 0:
            return 0.0
        return self.multi_response_ips / self.responsive_ips


def section8(ctx: ExperimentContext) -> Section8:
    scan1, __ = ctx.campaign.scan_pair(4)
    counts = scan1.multi_responders.values()
    return Section8(
        responsive_ips=scan1.responsive_count,
        multi_response_ips=len(scan1.multi_responders),
        max_responses_single_ip=max(counts, default=0),
    )
