"""Internet-wide SNMPv3 scanning over the simulated fabric.

Mirrors the paper's §3.2 measurement setup:

* :mod:`repro.scanner.records` — the observation records a scan produces;
* :mod:`repro.scanner.zmap` — the legacy ZMap-equivalent engine: permuted
  targets, rate-limited single-probe-per-IP UDP scanning, full response
  capture with receive timestamps;
* :mod:`repro.scanner.executor` — the sharded, streaming engine: the same
  probe semantics partitioned into deterministic shards that run on a
  worker pool and yield bounded observation batches;
* :mod:`repro.scanner.metrics` — per-shard/per-scan execution metrics;
* :mod:`repro.scanner.campaign` — orchestration of the paper's four
  campaigns (two IPv4 scans, two IPv6 scans) including the interim events
  between paired scans (device reboots, CPE address churn).
"""

from repro.scanner.records import ScanObservation, ScanResult
from repro.scanner.zmap import ZmapConfig, ZmapScanner
from repro.scanner.executor import (
    ExecutionOptions,
    RetryPolicy,
    ScanExecution,
    ShardedScanExecutor,
)
from repro.scanner.metrics import ExecutorMetrics, ShardMetrics
from repro.scanner.campaign import CampaignResult, ScanCampaign, ScanStream

__all__ = [
    "CampaignResult",
    "ExecutionOptions",
    "ExecutorMetrics",
    "RetryPolicy",
    "ScanCampaign",
    "ScanExecution",
    "ScanObservation",
    "ScanResult",
    "ScanStream",
    "ShardMetrics",
    "ShardedScanExecutor",
    "ZmapConfig",
    "ZmapScanner",
]
