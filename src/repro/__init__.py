"""repro — reproduction of "Third Time's Not a Charm: Exploiting SNMPv3
for Router Fingerprinting" (Albakour, Gasser, Beverly, Smaragdakis;
ACM IMC 2021).

The package implements the paper's full measurement system on top of a
deterministic simulated Internet:

* a from-scratch SNMP protocol stack (BER codec, v1/v2c/v3 messages, the
  RFC 3414 User-based Security Model, engine-ID formats per RFC 3411);
* a ZMap-style scanner issuing unauthenticated SNMPv3 synchronization
  probes and capturing engine ID / boots / time;
* the §4.4 ten-step filtering pipeline;
* SNMPv3 alias resolution with dual-stack joining, plus the comparator
  techniques (MIDAR, Speedtrap, Router Names, Nmap, iTTL);
* vendor fingerprinting via MAC OUIs and IANA enterprise numbers;
* per-AS/per-region deployment analyses and a reproduction of every
  table and figure in the paper's evaluation.

Quickstart — the :mod:`repro.api` facade is the supported surface::

    from repro import Session
    session = Session(scale=300, seed=7)
    for vendor, count in session.scan().filter().aliases().vendor_census():
        print(f"{vendor:12s} {count}")

See ``examples/`` for complete scenarios and ``DESIGN.md`` for the
system inventory.
"""

from repro.api import ExecutionOptions, Session, Store, StoreQuery, TopologyOptions
from repro.alias import (
    AliasSets,
    IcmpRateLimitOracle,
    MatchVariant,
    MidarResolver,
    PathLengthPruner,
    RateLimitResolver,
    RouterNamesResolver,
    SiblingDetector,
    Snmpv3AliasResolver,
    SpeedtrapResolver,
    compare_alias_sets,
    evaluate_against_truth,
    resolve_aliases,
    resolve_dual_stack,
)
from repro.alias.mac_correlation import MacCorrelator
from repro.experiments import ExperimentContext
from repro.fingerprint import infer_vendor, vendor_of_alias_set
from repro.pipeline import (
    FilterPipeline,
    FilterStats,
    MergedObservation,
    PipelineResult,
    ValidRecord,
)
from repro.scanner import (
    CampaignResult,
    ExecutorMetrics,
    ScanCampaign,
    ScanObservation,
    ScanResult,
    ScanStream,
    ShardedScanExecutor,
    ZmapScanner,
)
from repro.snmp import EngineId, EngineIdFormat, SnmpAgent, SnmpClient, build_discovery_probe
from repro.topology import (
    LazyTopology,
    Topology,
    TopologyConfig,
    TopologyGenerator,
    build_topology,
    load_topology_file,
)

__version__ = "1.0.0"

__all__ = [
    "AliasSets",
    "CampaignResult",
    "EngineId",
    "ExecutionOptions",
    "ExecutorMetrics",
    "FilterStats",
    "MergedObservation",
    "PipelineResult",
    "ScanObservation",
    "ScanResult",
    "ScanStream",
    "Session",
    "ShardedScanExecutor",
    "Store",
    "StoreQuery",
    "ValidRecord",
    "IcmpRateLimitOracle",
    "MacCorrelator",
    "PathLengthPruner",
    "RateLimitResolver",
    "SiblingDetector",
    "EngineIdFormat",
    "ExperimentContext",
    "FilterPipeline",
    "MatchVariant",
    "MidarResolver",
    "RouterNamesResolver",
    "ScanCampaign",
    "SnmpAgent",
    "SnmpClient",
    "Snmpv3AliasResolver",
    "SpeedtrapResolver",
    "LazyTopology",
    "Topology",
    "TopologyConfig",
    "TopologyGenerator",
    "TopologyOptions",
    "ZmapScanner",
    "build_discovery_probe",
    "build_topology",
    "load_topology_file",
    "compare_alias_sets",
    "evaluate_against_truth",
    "infer_vendor",
    "resolve_aliases",
    "resolve_dual_stack",
    "vendor_of_alias_set",
    "__version__",
]
