"""Execution metrics for the sharded scan engine.

One :class:`ShardMetrics` per shard, aggregated into an
:class:`ExecutorMetrics` per scan.  Every campaign scan carries one
(``CampaignResult.metrics``, ``Session.metrics``); the CLI's ``--stats``
flag prints them and the benchmark harness reads its layer counters
from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ShardMetrics:
    """What one shard did: probe/reply counts and wall-clock time.

    The retry/fault counters (``retries`` through ``corrupted``) stay
    zero for the default :class:`~repro.scanner.executor.RetryPolicy`
    with no fault profile attached — one probe per target.
    """

    shard_index: int
    targets: int = 0
    probes_sent: int = 0
    replies: int = 0
    observations: int = 0
    dropped_loss: int = 0
    dropped_reply_loss: int = 0
    dropped_no_endpoint: int = 0
    dropped_rate_limited: int = 0
    retries: int = 0
    timed_out: int = 0
    unparsed: int = 0
    breaker_tripped: int = 0
    duplicated: int = 0
    reordered: int = 0
    truncated: int = 0
    corrupted: int = 0
    probe_bytes: int = 0
    reply_bytes: int = 0
    wall_time: float = 0.0
    #: Encoded batch bytes this shard pushed over the worker→parent pipe
    #: (zero on the serial path — nothing crosses a process boundary).
    ipc_bytes: int = 0
    #: Per-stage wall-clock seconds, populated only when the executor
    #: runs with ``profile=True`` (the timers cost real time per probe).
    encode_time: float = 0.0
    fabric_time: float = 0.0
    agent_time: float = 0.0
    decode_time: float = 0.0

    def to_dict(self) -> dict:
        return {
            "shard": self.shard_index,
            "targets": self.targets,
            "probes_sent": self.probes_sent,
            "replies": self.replies,
            "observations": self.observations,
            "dropped_loss": self.dropped_loss,
            "dropped_reply_loss": self.dropped_reply_loss,
            "dropped_no_endpoint": self.dropped_no_endpoint,
            "dropped_rate_limited": self.dropped_rate_limited,
            "retries": self.retries,
            "timed_out": self.timed_out,
            "unparsed": self.unparsed,
            "breaker_tripped": self.breaker_tripped,
            "duplicated": self.duplicated,
            "reordered": self.reordered,
            "truncated": self.truncated,
            "corrupted": self.corrupted,
            "probe_bytes": self.probe_bytes,
            "reply_bytes": self.reply_bytes,
            "wall_time": self.wall_time,
            "ipc_bytes": self.ipc_bytes,
            "encode_time": self.encode_time,
            "fabric_time": self.fabric_time,
            "agent_time": self.agent_time,
            "decode_time": self.decode_time,
        }


@dataclass
class ExecutorMetrics:
    """Aggregated execution metrics for one sharded scan."""

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

    def add_shard(self, shard: ShardMetrics) -> None:
        self.shards.append(shard)

    # -- aggregates --------------------------------------------------------

    @property
    def targets(self) -> int:
        return sum(s.targets for s in self.shards)

    @property
    def probes_sent(self) -> int:
        return sum(s.probes_sent for s in self.shards)

    @property
    def replies(self) -> int:
        return sum(s.replies for s in self.shards)

    @property
    def observations(self) -> int:
        return sum(s.observations for s in self.shards)

    @property
    def losses(self) -> int:
        """Packets lost on either path (forward probe or reply)."""
        return sum(s.dropped_loss + s.dropped_reply_loss for s in self.shards)

    @property
    def retries(self) -> int:
        return sum(s.retries for s in self.shards)

    @property
    def timed_out(self) -> int:
        return sum(s.timed_out for s in self.shards)

    @property
    def unparsed(self) -> int:
        return sum(s.unparsed for s in self.shards)

    @property
    def breaker_tripped(self) -> int:
        return sum(s.breaker_tripped for s in self.shards)

    @property
    def rate_limited(self) -> int:
        return sum(s.dropped_rate_limited for s in self.shards)

    @property
    def faults_injected(self) -> int:
        """Total wire faults the fabric injected into this scan."""
        return sum(
            s.duplicated + s.reordered + s.truncated + s.corrupted
            for s in self.shards
        )

    @property
    def ipc_bytes(self) -> int:
        """Total encoded batch bytes that crossed the worker→parent pipe."""
        return sum(s.ipc_bytes for s in self.shards)

    @property
    def encode_time(self) -> float:
        """Seconds spent encoding probes, summed over shards (profile mode)."""
        return sum(s.encode_time for s in self.shards)

    @property
    def fabric_time(self) -> float:
        """Seconds spent in fabric transit (delivery minus agent handling)."""
        return sum(s.fabric_time for s in self.shards)

    @property
    def agent_time(self) -> float:
        """Seconds spent inside agent handlers, summed over shards."""
        return sum(s.agent_time for s in self.shards)

    @property
    def decode_time(self) -> float:
        """Seconds spent parsing replies into observations."""
        return sum(s.decode_time for s in self.shards)

    @property
    def profiled(self) -> bool:
        """Whether any shard carries stage timings (``profile=True`` runs)."""
        return any(
            s.encode_time or s.fabric_time or s.agent_time or s.decode_time
            for s in self.shards
        )

    @property
    def probes_per_second(self) -> float:
        """Real (not virtual) throughput of the whole scan."""
        if self.wall_time <= 0:
            return 0.0
        return self.probes_sent / self.wall_time

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "workers": self.workers,
            "num_shards": self.num_shards,
            "batch_size": self.batch_size,
            "peak_batch": self.peak_batch,
            "wall_time": self.wall_time,
            "targets": self.targets,
            "probes_sent": self.probes_sent,
            "replies": self.replies,
            "observations": self.observations,
            "dropped_loss": self.losses,
            "dropped_rate_limited": self.rate_limited,
            "retries": self.retries,
            "timed_out": self.timed_out,
            "unparsed": self.unparsed,
            "breaker_tripped": self.breaker_tripped,
            "faults_injected": self.faults_injected,
            "probes_per_second": round(self.probes_per_second, 1),
            "ipc_bytes": self.ipc_bytes,
            "encode_time": round(self.encode_time, 4),
            "fabric_time": round(self.fabric_time, 4),
            "agent_time": round(self.agent_time, 4),
            "decode_time": round(self.decode_time, 4),
            "plan_time": round(self.plan_time, 4),
            "derive_time": round(self.derive_time, 4),
            "ingest_time": round(self.ingest_time, 4),
            "shards": [s.to_dict() for s in self.shards],
        }

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
