"""Topology generation parameters, calibrated to the paper's evaluation.

Every distribution the generator samples from is a field here, so
experiments can ablate a single knob.  The calibration targets are the
paper's reported shapes:

* regional router totals and vendor mixes (Figures 15/16/18),
* device-level vendor popularity (Figure 11) vs router-level (Figure 12),
* engine-ID format mix (Figure 5) and Hamming-weight behaviour (Figure 6),
* uptime distribution (Figure 13), per-AS size and dominance ECDFs
  (Figures 14/17/20), responsiveness/coverage (Figure 10),
* the §4.4 filter populations (zero times, future times, churn, reboots,
  shared-engine-ID bug, amplification).

Absolute counts are scaled by ``scale_divisor`` relative to the paper's
Internet-wide numbers (346,951 routers / 4.6M devices / 22,787 ASes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.topology.model import Region

# -- vendor mixes -------------------------------------------------------------

#: Router vendor share per region (Figure 15: Cisco dominant everywhere,
#: Huawei ~27% in AS / ~22% in EU / ~14% in SA+AF / absent in NA).
ROUTER_VENDOR_SHARE: dict[Region, dict[str, float]] = {
    Region.EU: {
        "Cisco": 0.60, "Huawei": 0.18, "Net-SNMP": 0.06, "Juniper": 0.06,
        "H3C": 0.025, "OneAccess": 0.02, "Ruijie": 0.01, "Brocade": 0.015,
        "Adtran": 0.01, "Ambit": 0.005, "MikroTik": 0.015,
    },
    Region.NA: {
        "Cisco": 0.77, "Huawei": 0.0, "Net-SNMP": 0.07, "Juniper": 0.09,
        "H3C": 0.005, "OneAccess": 0.005, "Ruijie": 0.0, "Brocade": 0.025,
        "Adtran": 0.02, "Ambit": 0.005, "MikroTik": 0.01,
    },
    Region.AS: {
        "Cisco": 0.54, "Huawei": 0.25, "Net-SNMP": 0.05, "Juniper": 0.05,
        "H3C": 0.05, "OneAccess": 0.005, "Ruijie": 0.03, "Brocade": 0.01,
        "Adtran": 0.005, "Ambit": 0.005, "MikroTik": 0.005,
    },
    Region.SA: {
        "Cisco": 0.66, "Huawei": 0.14, "Net-SNMP": 0.06, "Juniper": 0.05,
        "H3C": 0.02, "OneAccess": 0.01, "Ruijie": 0.015, "Brocade": 0.01,
        "Adtran": 0.01, "Ambit": 0.005, "MikroTik": 0.02,
    },
    Region.AF: {
        "Cisco": 0.65, "Huawei": 0.14, "Net-SNMP": 0.06, "Juniper": 0.05,
        "H3C": 0.03, "OneAccess": 0.01, "Ruijie": 0.02, "Brocade": 0.01,
        "Adtran": 0.005, "Ambit": 0.005, "MikroTik": 0.02,
    },
    Region.OC: {
        "Cisco": 0.76, "Huawei": 0.005, "Net-SNMP": 0.08, "Juniper": 0.08,
        "H3C": 0.01, "OneAccess": 0.005, "Ruijie": 0.005, "Brocade": 0.02,
        "Adtran": 0.015, "Ambit": 0.005, "MikroTik": 0.015,
    },
}

#: Server vendor share: overwhelmingly Net-SNMP (Linux/BSD boxes), the
#: largest bar of Figure 11.
SERVER_VENDOR_SHARE: dict[str, float] = {
    "Net-SNMP": 0.80, "Cisco": 0.05, "HP": 0.04, "Dell": 0.04,
    "Supermicro": 0.03, "VMware": 0.02, "Intel": 0.02,
}

#: CPE / home-office vendor share (Figure 11's Broadcom, Thomson, Netgear,
#: Ambit bars live here).
#: The class also covers enterprise edge gear (switches, small firewalls),
#: which is how Cisco reaches Figure 11's ~900k devices despite "only"
#: ~240k routers.
CPE_VENDOR_SHARE: dict[str, float] = {
    "Broadcom": 0.16, "Thomson": 0.16, "Netgear": 0.13, "Cisco": 0.24,
    "Ambit": 0.055, "Huawei": 0.04, "Technicolor": 0.04, "TP-Link": 0.04,
    "Sagemcom": 0.035, "AVM": 0.03, "ZyXEL": 0.025, "D-Link": 0.025,
    "Ubiquiti": 0.02, "MikroTik": 0.015, "ZTE": 0.015, "Ruijie": 0.01,
    "H3C": 0.005, "Calix": 0.005,
}

#: Engine-ID format policy per vendor: (format, weight) choices.  Formats:
#: "mac", "ipv4", "text", "octets", "net-snmp", "legacy" (non-conforming).
ENGINE_ID_POLICY: dict[str, tuple[tuple[str, float], ...]] = {
    "Cisco": (("mac", 0.96), ("text", 0.04)),
    "Huawei": (("mac", 0.80), ("legacy", 0.20)),
    "Juniper": (("mac", 0.92), ("octets", 0.08)),
    "H3C": (("mac", 0.95), ("legacy", 0.05)),
    "Net-SNMP": (("net-snmp", 1.0),),
    "Broadcom": (("octets", 0.75), ("mac", 0.25)),
    "Thomson": (("legacy", 0.65), ("mac", 0.35)),
    "Netgear": (("mac", 0.90), ("legacy", 0.10)),
    "Ambit": (("mac", 0.90), ("octets", 0.10)),
    "Ruijie": (("mac", 1.0),),
    "Brocade": (("mac", 1.0),),
    "Adtran": (("mac", 0.90), ("text", 0.10)),
    "OneAccess": (("ipv4", 0.70), ("mac", 0.30)),
    "MikroTik": (("octets", 0.60), ("mac", 0.40)),
    "Technicolor": (("legacy", 0.60), ("mac", 0.40)),
    "TP-Link": (("mac", 0.70), ("legacy", 0.30)),
    "Sagemcom": (("mac", 0.60), ("ipv4", 0.40)),
    "AVM": (("mac", 1.0),),
    "ZyXEL": (("mac", 0.70), ("octets", 0.30)),
    "D-Link": (("mac", 0.80), ("legacy", 0.20)),
    "Ubiquiti": (("mac", 1.0),),
    "Huawei-CPE": (("ipv4", 0.55), ("mac", 0.45)),
    "ZTE": (("ipv4", 0.50), ("mac", 0.50)),
    "Calix": (("mac", 1.0),),
    "HP": (("mac", 0.80), ("octets", 0.20)),
    "Dell": (("mac", 0.80), ("octets", 0.20)),
    "Supermicro": (("mac", 1.0),),
    "VMware": (("octets", 1.0),),
    "Intel": (("mac", 1.0),),
}

#: Initial-TTL signature per vendor OS family (Vanaubel-style, §7.1):
#: (iTTL of ICMP echo reply, iTTL of ICMP exceeded).  Note Huawei shares
#: Cisco's signature — the ambiguity the paper points out.
TTL_SIGNATURES: dict[str, tuple[int, int]] = {
    "Cisco": (255, 255),
    "Huawei": (255, 255),
    "Juniper": (64, 255),
    "Brocade": (64, 255),
    "Net-SNMP": (64, 64),
    "H3C": (255, 255),
    "MikroTik": (64, 64),
}

#: Per-region AS-count weights (derived from the paper's Figure 18 panel:
#: EU 870, NA 663, AS 530, AF 99, SA 92, OC 74 ASes with 10+ routers).
REGION_AS_WEIGHTS: dict[Region, float] = {
    Region.EU: 0.35,
    Region.NA: 0.27,
    Region.AS: 0.22,
    Region.SA: 0.055,
    Region.AF: 0.055,
    Region.OC: 0.05,
}

#: Regional router totals from Figure 15 (EU 134k, NA 97k, AS 81k, SA 22k,
#: AF 5k, OC 5k) expressed as weights.
REGION_ROUTER_WEIGHTS: dict[Region, float] = {
    Region.EU: 134.0 / 344.0,
    Region.NA: 97.0 / 344.0,
    Region.AS: 81.0 / 344.0,
    Region.SA: 22.0 / 344.0,
    Region.AF: 5.0 / 344.0,
    Region.OC: 5.0 / 344.0,
}


@dataclass
class TopologyConfig:
    """All generation knobs.  Defaults reproduce the paper at 1/100 scale."""

    seed: int = 2021
    scale_divisor: float = 100.0

    #: Topology layout. ``"sequential"`` threads one seeded RNG through
    #: every device in creation order (the classic byte-stable world,
    #: built eagerly by ``build_topology``); ``"streamed"`` derives each
    #: device independently from ``(seed, asn, slot)`` so it can be
    #: rebuilt at probe time — only a
    #: :class:`~repro.topology.lazy.LazyTopology` builds it.
    layout: str = "sequential"
    #: Streamed layout only: IPv4 addresses reserved per device slot.
    #: Must cover the largest multi-IP device.
    stream_v4_block: int = 8
    #: Streamed layout only: default cap on concurrently materialized
    #: devices held by a :class:`~repro.topology.lazy.LazyTopology`.
    stream_max_resident: int = 4096
    #: Fraction of agents given an adversarial personality (garbage
    #: reports, padded engine IDs, response delay, reboot-on-handle).
    #: Zero by default so legacy seeded streams are untouched.
    adversarial_frac: float = 0.0

    def __post_init__(self) -> None:
        if self.scale_divisor <= 0:
            raise ValueError(
                f"scale_divisor must be positive, got {self.scale_divisor!r}"
            )
        if self.layout not in ("sequential", "streamed"):
            raise ValueError(
                f"layout must be 'sequential' or 'streamed', got {self.layout!r}"
            )
        if self.stream_v4_block < 2:
            raise ValueError(
                f"stream_v4_block must be >= 2, got {self.stream_v4_block!r}"
            )

    # Population sizes (paper-scale numbers; divided by scale_divisor).
    paper_n_ases: int = 25_000
    paper_n_routers: int = 347_000
    paper_n_servers: int = 1_200_000
    paper_n_cpe: int = 3_100_000

    # Routers per AS: Pareto-like tail (Figure 20).  The cap tracks the
    # paper's largest network (9.4k routers) under scaling.
    router_per_as_alpha: float = 0.55
    paper_router_per_as_max: int = 9_400

    # Interfaces per router: lognormal, more for dual-stack boxes.
    router_iface_mu: float = 1.1
    router_iface_sigma: float = 1.05
    router_iface_max: int = 400
    dual_stack_iface_boost: float = 6.0

    # Protocol mix for routers (paper: 307k v4-only, 25k v6-only, 15k dual).
    router_v6_only_frac: float = 0.071
    router_dual_frac: float = 0.043

    # Multi-address end hosts: multihomed/virtual-host servers and
    # ISP-gateway CPE (the untagged multi-IP devices behind the paper's
    # 70%-of-IPs-in-non-singleton-sets figure).
    server_multi_ip_frac: float = 0.35
    server_multi_ip_max: int = 5
    cpe_multi_ip_frac: float = 0.10
    cpe_multi_ip_max: int = 8

    # SLAAC/EUI-64: fraction of IPv6 interfaces whose address embeds the
    # interface MAC (the cross-correlation surface of the Rye/Beverly
    # line of work the paper cites).
    eui64_v6_frac: float = 0.30

    # CPE protocol mix and churn.
    cpe_v6_frac: float = 0.35
    cpe_dual_frac: float = 0.012
    cpe_dhcp_churn_frac: float = 0.15   # re-addressed between the two scans
    server_v6_frac: float = 0.05
    server_dual_frac: float = 0.08   # dual-stack servers: a large share of
                                     # the paper's 31.2k dual-stack sets

    # SNMP exposure.  Router openness is an AS-level policy (Figure 10's
    # wide coverage spread): most networks filter management traffic, some
    # leave it wide open.  (rate, weight) mixture; the overall mean lands
    # near §5.4's 16% responsive router IPs.
    as_router_open_rates: tuple[tuple[float, float], ...] = (
        (0.02, 0.28), (0.12, 0.42), (0.38, 0.18), (0.78, 0.12),
    )
    #: Large networks run segregated management; their routers rarely
    #: answer from the open Internet.  (rate, weight) mixture for ASes
    #: with at least ``large_as_threshold`` routers.
    large_as_open_rates: tuple[tuple[float, float], ...] = (
        (0.03, 0.45), (0.10, 0.40), (0.25, 0.15),
    )
    large_as_threshold: int = 30
    juniper_open_factor: float = 0.4     # Junos needs explicit per-iface enable
    server_snmp_open: float = 0.45
    cpe_snmp_open: float = 0.65
    acl_interface_frac: float = 0.04     # per-interface ACLs on open routers

    # Vendor dominance per AS (Figure 17: >80% of ASes at >=0.7, with a
    # large spike of strictly single-vendor networks — Figure 14's 40%).
    single_vendor_as_frac: float = 0.42
    dominance_beta_a: float = 6.0
    dominance_beta_b: float = 1.35

    # Implicit SNMPv3: §6.2.1/§8 — some vendors enable v3 as a side
    # effect of configuring a v2c community.  These devices answer
    # discovery today but fall silent under the "require explicit v3"
    # mitigation.
    implicit_v3_vendors: tuple[str, ...] = ("Cisco", "Juniper", "H3C")
    implicit_v3_frac: float = 0.6

    # Behavioural quirk fractions.
    cisco_shared_bug_frac: float = 0.065  # of Cisco CPE-ish boxes: 181k/2.8M
    cpe_shared_engine_models: int = 2     # cloned-firmware v6-visible models
    cpe_shared_engine_frac: float = 0.02
    amplification_frac: float = 0.0006    # 182k of 31M IPv4 responders
    amplification_max: int = 60
    malformed_frac: float = 0.0002
    empty_engine_frac: float = 0.0002
    zero_time_frac: float = 0.065         # 834k/12.8M before that filter
    future_time_frac: float = 0.0018
    promiscuous_models: int = 2           # same engine-ID data across vendors
    promiscuous_frac: float = 0.008
    reboot_between_scans_frac: float = 0.12  # inconsistent engine boots

    # Clock skew (relative drift): routers tight, CPE loose (Figure 8).
    router_skew_sigma: float = 4.0e-6
    server_skew_sigma: float = 8.0e-6
    # CPE clocks are bimodal: NTP-synced gateways keep tight time, the
    # rest free-run on cheap crystals (Figure 8's long IPv4 tail).
    cpe_skew_tight_frac: float = 0.60
    cpe_skew_tight_sigma: float = 5.0e-6
    cpe_skew_sigma: float = 1.2e-4

    # Uptime mixture (Figure 13): weights for <30d, 30-105d, 105-365d, >1y.
    uptime_weights: tuple[float, float, float, float] = (0.17, 0.33, 0.22, 0.28)
    uptime_max_days: float = 3650.0

    # Engine boots: roughly proportional to device age.
    boots_per_year: float = 5.0

    # IP-ID counters for MIDAR/Speedtrap (§5.3).
    sequential_ip_id_frac: float = 0.22
    ip_id_rate_low: float = 0.5
    ip_id_rate_high: float = 300.0

    # Middleboxes (the paper's §9 future-work populations).
    lb_frac_of_servers: float = 0.015     # VIPs fronting several engines
    lb_backends_min: int = 2
    lb_backends_max: int = 5
    lb_source_hash_frac: float = 0.3      # pools invisible to one vantage

    # TCP service exposure for the Nmap comparison (§6.2.3: Nmap got no
    # result for 22.2k of 26.4k routers — no open TCP port).
    router_open_tcp_frac: float = 0.16
    server_open_tcp_frac: float = 0.85
    cpe_open_tcp_frac: float = 0.30

    # rDNS: fraction of router interfaces with PTR records following the
    # AS's naming convention (feeds the §5.2 Router Names comparison).
    rdns_ptr_frac: float = 0.35
    rdns_useful_regex_frac: float = 0.65  # ASes whose convention encodes a router name

    # IPv6 hitlist: scan-target inclusion probability per v6 address class
    # (the 364M-target list), and the much narrower *router-tagging* view —
    # addresses seen as routed hops in hitlist traceroutes.  Residential
    # CPE appear as routed hops only occasionally (§3.4).
    hitlist_router_frac: float = 0.75
    hitlist_cpe_frac: float = 0.80
    hitlist_server_frac: float = 0.70
    hitlist_routed_cpe_frac: float = 0.003

    # ITDK / RIPE coverage of router interfaces.  The RIPE view derives
    # from simulated Atlas traceroutes by default; the sampling fraction
    # is the legacy fallback (ripe_from_traceroutes=False).
    itdk_router_frac: float = 0.80
    ripe_router_frac: float = 0.18
    ripe_from_traceroutes: bool = True
    ripe_vantage_count: int = 10
    ripe_target_frac: float = 0.15

    # Vendor mixes (overridable for ablations).
    router_vendor_share: dict[Region, dict[str, float]] = field(
        default_factory=lambda: {r: dict(v) for r, v in ROUTER_VENDOR_SHARE.items()}
    )
    server_vendor_share: dict[str, float] = field(
        default_factory=lambda: dict(SERVER_VENDOR_SHARE)
    )
    cpe_vendor_share: dict[str, float] = field(
        default_factory=lambda: dict(CPE_VENDOR_SHARE)
    )

    # -- derived counts -----------------------------------------------------

    @property
    def router_per_as_max(self) -> int:
        return max(6, round(self.paper_router_per_as_max / self.scale_divisor))

    @property
    def n_ases(self) -> int:
        return max(6, round(self.paper_n_ases / self.scale_divisor))

    @property
    def n_routers(self) -> int:
        return max(10, round(self.paper_n_routers / self.scale_divisor))

    @property
    def n_servers(self) -> int:
        return max(5, round(self.paper_n_servers / self.scale_divisor))

    @property
    def n_cpe(self) -> int:
        return max(5, round(self.paper_n_cpe / self.scale_divisor))

    # -- presets --------------------------------------------------------------

    @classmethod
    def paper_scale(cls, divisor: float = 100.0, seed: int = 2021) -> "TopologyConfig":
        """The benchmark preset: the paper's Internet at 1/``divisor``."""
        return cls(seed=seed, scale_divisor=divisor)

    @classmethod
    def tiny(cls, seed: int = 2021) -> "TopologyConfig":
        """A small preset for unit tests: ~30 ASes, ~350 routers."""
        return cls(seed=seed, scale_divisor=1000.0)

    @classmethod
    def streamed(cls, divisor: float = 400.0, seed: int = 2021) -> "TopologyConfig":
        """The constant-memory preset: per-slot derivation, lazy-friendly."""
        return cls(seed=seed, scale_divisor=divisor, layout="streamed")
