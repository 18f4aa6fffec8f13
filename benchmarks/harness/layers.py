"""Which program entry points are layer boundaries, and the per-layer
metrics a traced run derives from their spans and from the counters the
program already exposes.

Every per-layer value is a mean per traced operation (a paper loop, a
lazy campaign, an observatory episode, one served request), so layer
times add up to the operation's wall time.  A layer a workload never
enters reads 0.
"""

from __future__ import annotations

from statistics import median

from spans import Span, self_times

#: ``(target, span name, wrapper kind)``.  Functions that ``repro.api``
#: imports by name are wrapped in that namespace, where ``Session``
#: looks them up.
BOUNDARIES: "tuple[tuple[str, str, str], ...]" = (
    ("repro.api:build_topology", "topology.build", "call"),
    ("repro.topology.lazy:LazyTopology.__init__", "topology.build", "call"),
    ("repro.scanner.campaign:ScanCampaign.__init__", "scanner.campaign", "call"),
    ("repro.scanner.campaign:ScanCampaign.run", "scanner.campaign", "call"),
    ("repro.scanner.campaign:ScanCampaign.run_streaming", "scanner.campaign", "iter"),
    ("repro.scanner.campaign:ScanCampaign.run_targeted", "scanner.targeted", "call"),
    ("repro.scanner.campaign:ScanStream.batches", "scanner.scan", "iter"),
    ("repro.scanner.zmap:ZmapScanner.scan", "scanner.scan", "call"),
    ("repro.scanner.executor:ShardedScanExecutor.execute", "scanner.scan", "call"),
    ("repro.scanner.executor:ScanExecution.result", "scanner.scan", "call"),
    ("repro.scanner.executor:StreamingScanExecution.result", "scanner.scan", "call"),
    ("repro.pipeline.filters:FilterPipeline.run", "pipeline.filter", "call"),
    ("repro.api:resolve_aliases", "alias.resolve", "call"),
    ("repro.api:resolve_dual_stack", "alias.resolve", "call"),
    ("repro.api:Session.vendor_census", "fingerprint.vendor", "call"),
    ("repro.store.store:Store.ingest_scan_batches", "store.ingest", "call"),
    ("repro.store.store:Store.compact", "store.compact", "call"),
    ("repro.store.store:Store.index", "store.index_build", "call"),
    ("repro.store.store:Store.timelines", "store.timeline_fold", "call"),
    ("repro.store.store:Store.history", "store.history", "call"),
    ("repro.service.query:QueryService.request", "service.request", "call"),
    ("repro.service.http:_Handler.do_GET", "http.handle", "http"),
)

#: The §4.4 steps and the service endpoints, spelled out rather than
#: imported because BENCHMARK.json names a metric after each; the
#: self-tests hold them equal to the program's lists.
FILTER_STEPS = (
    "missing-engine-id",
    "inconsistent-engine-id",
    "short-engine-id",
    "promiscuous-engine-id",
    "unroutable-ipv4-engine-id",
    "unregistered-mac",
    "zero-time-or-boots",
    "future-engine-time",
    "inconsistent-boots",
    "inconsistent-reboot-time",
)

ENDPOINTS = (
    "device-count",
    "engine-ids",
    "enterprise-census",
    "history",
    "integrity",
    "oui-census",
    "reboot-events",
    "round-summary",
    "rounds",
    "stats",
    "timeline-summary",
    "uptime-ecdf",
    "vendor-census",
)

#: Span totals: metric -> (span name, "total" | "self").
SPAN_METRICS = {
    "topology.build_s": ("topology.build", "total"),
    "scanner.campaign_s": ("scanner.campaign", "total"),
    "scanner.scan_s": ("scanner.scan", "total"),
    "scanner.campaign_setup_s": ("scanner.campaign", "self"),
    "scanner.targeted_s": ("scanner.targeted", "total"),
    "pipeline.filter_s": ("pipeline.filter", "total"),
    "alias.resolve_s": ("alias.resolve", "total"),
    "fingerprint.vendor_s": ("fingerprint.vendor", "total"),
    "store.ingest_s": ("store.ingest", "total"),
    "store.compact_s": ("store.compact", "total"),
    "store.index_build_s": ("store.index_build", "total"),
    "store.timeline_fold_s": ("store.timeline_fold", "total"),
    "store.history_s": ("store.history", "total"),
    "service.request_self_s": ("service.request", "self"),
    "scheduler.sweep_s": ("scheduler.sweep", "total"),
    "scheduler.reprobe_s": ("scheduler.reprobe", "total"),
}

#: Counters copied from the program's own objects (``ExecutorMetrics``,
#: ``LazyTopology``, ``FilterStats``, ``Store.stats()``, ``/metrics``).
COUNTER_METRICS = (
    ("topology.derive_s", "s", "lower"),
    ("topology.derivations_per_device", "ratio", "lower"),
    ("topology.peak_resident", "count", "lower"),
    ("scanner.plan_s", "s", "lower"),
    ("scanner.ingest_s", "s", "lower"),
    ("scanner.probes", "count", "higher"),
    ("scanner.replies", "count", "higher"),
    ("scanner.reply_ratio", "ratio", "higher"),
    ("asn1.encode_s", "s", "lower"),
    ("net.fabric_s", "s", "lower"),
    ("snmp.agent_s", "s", "lower"),
    ("snmp.decode_s", "s", "lower"),
    ("pipeline.merged", "count", "higher"),
    ("pipeline.valid", "count", "higher"),
    *((f"pipeline.removed.{step}", "count", "lower") for step in FILTER_STEPS),
    ("alias.sets", "count", "higher"),
    ("alias.precision", "ratio", "higher"),
    ("store.rows_ingested", "count", "higher"),
    ("store.bytes_per_row", "B", "lower"),
    ("service.cache_hit_ratio", "ratio", "higher"),
    *((f"service.{endpoint}.p50_ms", "ms", "lower") for endpoint in ENDPOINTS),
)

TRACE_METRICS = (
    ("http.overhead_p50_ms", "ms", "lower"),
    ("trace.unaccounted_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

#: Every per-layer metric: (name, unit, better).
PER_LAYER: "tuple[tuple[str, str, str], ...]" = (
    *((name, "s", "lower") for name in SPAN_METRICS),
    *COUNTER_METRICS,
    *TRACE_METRICS,
)


def outermost(spans: list[Span]) -> list[Span]:
    """Spans whose parent is not a span of the same name, so a layer that
    re-enters itself is not counted twice."""
    names = {span.span_id: span.name for span in spans}
    return [s for s in spans if names.get(s.parent_id) != s.name]


def layer_metrics(
    roots: list[Span],
    spans: list[Span],
    counters: list[dict],
    overhead_ratio: float,
) -> dict[str, float]:
    """Per-layer metrics of the traced operations.

    ``roots`` are the operations' root spans, ``spans`` every span
    recorded (any process) and ``counters`` one dict per operation.
    """
    ops = max(1, len(roots))
    by_trace: dict[str, list[Span]] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    selfs = self_times(spans)
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    root_total = root_self = 0.0
    latencies_ms: dict[str, list[float]] = {"http.exchange": [], "service.request": []}
    for root in roots:
        trace = by_trace.get(root.trace_id, [root])
        for span in outermost(trace):
            for metric, (name, mode) in SPAN_METRICS.items():
                if span.name == name:
                    values[metric] += span.duration if mode == "total" else selfs[span.span_id]
            if span.name in latencies_ms:
                latencies_ms[span.name].append(span.duration * 1e3)
        root_total += root.duration
        root_self += selfs[root.span_id]
    for metric in SPAN_METRICS:
        values[metric] /= ops
    for name, _, _ in COUNTER_METRICS:
        samples = [c[name] for c in counters if name in c]
        if samples:
            values[name] = sum(samples) / len(samples)
    client_ms, in_process_ms = latencies_ms["http.exchange"], latencies_ms["service.request"]
    if client_ms and in_process_ms:
        values["http.overhead_p50_ms"] = median(client_ms) - median(in_process_ms)
    values["trace.unaccounted_ratio"] = root_self / root_total if root_total else 0.0
    values["trace.overhead_ratio"] = overhead_ratio
    return values
