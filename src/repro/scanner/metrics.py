"""Execution metrics for the sharded scan engine.

One :class:`ShardMetrics` per shard, aggregated into an
:class:`ExecutorMetrics` per scan.  Every campaign scan carries one
(``CampaignResult.metrics``, ``Session.metrics``); the CLI's ``--stats``
flag prints them and the benchmark harness reads its layer counters
from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.transport import FabricStats


@dataclass(kw_only=True)
class ShardMetrics(FabricStats):
    """What one shard did: probe/reply counts and wall-clock time.

    The shard's :class:`~repro.net.transport.FabricView` counts into
    this record as it delivers, so the inherited :class:`FabricStats`
    fields are the shard's fabric counters.  The retry and fault
    counters (``retries``, ``timed_out``, ``breaker_tripped`` and the
    inherited ``dropped_rate_limited`` and ``duplicated`` through
    ``corrupted``) stay zero for the default
    :class:`~repro.scanner.executor.RetryPolicy` with no fault profile
    attached — one probe per target.
    """

    shard_index: int
    targets: int = 0
    observations: int = 0
    retries: int = 0
    timed_out: int = 0
    unparsed: int = 0
    breaker_tripped: int = 0
    wall_time: float = 0.0
    #: Encoded batch bytes this shard pushed over the worker→parent pipe
    #: (zero on the serial path — nothing crosses a process boundary).
    ipc_bytes: int = 0
    #: Per-stage wall-clock seconds, added by the pipeline only when the
    #: executor runs with ``profile=True`` (the timers cost real time).
    #: ``inject_time`` includes the inherited ``agent_time``.
    encode_time: float = 0.0
    inject_time: float = 0.0
    decode_time: float = 0.0

    @property
    def probes_sent(self) -> int:
        """Probes this shard sent: the fabric's ``injected`` count."""
        return self.injected

    @property
    def fabric_time(self) -> float:
        """Seconds in fabric transit: the inject stage minus agent handling."""
        return max(0.0, self.inject_time - self.agent_time)


@dataclass
class ExecutorMetrics:
    """Aggregated execution metrics for one sharded scan.

    :meth:`add_shard` adds each finished shard's counters to the scan
    totals (``targets`` through ``decode_time``) once.
    """

    label: str
    workers: int
    num_shards: int
    batch_size: int
    shards: list[ShardMetrics] = field(default_factory=list)
    peak_batch: int = 0
    wall_time: float = 0.0
    #: Non-probe campaign edges, measured per scan (always on — they run
    #: once per window, not once per probe, so the timers are free):
    #: shard planning, topology derivation (lazy worlds only) and result
    #: ingestion (ScanResult assembly plus attached batch sinks).
    plan_time: float = 0.0
    derive_time: float = 0.0
    ingest_time: float = 0.0
    targets: int = 0
    probes_sent: int = 0
    replies: int = 0
    observations: int = 0
    #: Packets lost on either path (forward probe or reply).
    losses: int = 0
    retries: int = 0
    timed_out: int = 0
    unparsed: int = 0
    breaker_tripped: int = 0
    rate_limited: int = 0
    #: Wire faults the fabric injected into this scan.
    faults_injected: int = 0
    probe_bytes: int = 0
    reply_bytes: int = 0
    #: Encoded batch bytes that crossed the worker→parent pipe.
    ipc_bytes: int = 0
    #: Stage seconds (profile mode): probe encoding, fabric transit,
    #: agent handlers and reply parsing.
    encode_time: float = 0.0
    fabric_time: float = 0.0
    agent_time: float = 0.0
    decode_time: float = 0.0

    def add_shard(self, shard: ShardMetrics) -> None:
        self.shards.append(shard)
        self.targets += shard.targets
        self.probes_sent += shard.injected
        self.replies += shard.replies
        self.observations += shard.observations
        self.losses += shard.dropped_loss + shard.dropped_reply_loss
        self.retries += shard.retries
        self.timed_out += shard.timed_out
        self.unparsed += shard.unparsed
        self.breaker_tripped += shard.breaker_tripped
        self.rate_limited += shard.dropped_rate_limited
        self.faults_injected += (
            shard.duplicated + shard.reordered + shard.truncated
            + shard.corrupted
        )
        self.probe_bytes += shard.probe_bytes
        self.reply_bytes += shard.reply_bytes
        self.ipc_bytes += shard.ipc_bytes
        self.encode_time += shard.encode_time
        self.fabric_time += shard.fabric_time
        self.agent_time += shard.agent_time
        self.decode_time += shard.decode_time

    @property
    def profiled(self) -> bool:
        """Whether any shard carries stage timings (``profile=True`` runs)."""
        return bool(
            self.encode_time or self.fabric_time or self.agent_time
            or self.decode_time
        )

    @property
    def probes_per_second(self) -> float:
        """Real (not virtual) throughput of the whole scan."""
        if self.wall_time <= 0:
            return 0.0
        return self.probes_sent / self.wall_time

    def summary(self) -> str:
        """One-line human summary for the CLI's ``--stats`` output."""
        line = (
            f"{self.label}: {self.probes_sent} probes over "
            f"{self.num_shards} shards x {self.workers} worker(s) in "
            f"{self.wall_time:.2f}s ({self.probes_per_second:,.0f} pps), "
            f"{self.observations} responsive, {self.losses} lost, "
            f"peak batch {self.peak_batch}"
        )
        extras = []
        if self.retries:
            extras.append(f"{self.retries} retries")
        if self.timed_out:
            extras.append(f"{self.timed_out} late replies")
        if self.unparsed:
            extras.append(f"{self.unparsed} unparsed")
        if self.breaker_tripped:
            extras.append(f"{self.breaker_tripped} breakers tripped")
        if self.rate_limited:
            extras.append(f"{self.rate_limited} rate-limited")
        if self.faults_injected:
            extras.append(f"{self.faults_injected} faults injected")
        if self.ipc_bytes:
            extras.append(f"{self.ipc_bytes / 1024:.1f} KiB over IPC")
        if extras:
            line += ", " + ", ".join(extras)
        if self.profiled:
            line += (
                f"\n  stages: encode {self.encode_time:.2f}s, "
                f"fabric {self.fabric_time:.2f}s, "
                f"agent {self.agent_time:.2f}s, "
                f"decode {self.decode_time:.2f}s"
            )
            line += (
                f"\n  edges: plan {self.plan_time:.2f}s, "
                f"derive {self.derive_time:.2f}s, "
                f"ingest {self.ingest_time:.2f}s"
            )
        return line


__all__ = ["ExecutorMetrics", "ShardMetrics"]
