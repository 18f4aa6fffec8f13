"""The ZMap-equivalent scan engine.

Sends exactly one well-formed SNMPv3 synchronization probe per target IP
(§3.3's ethical design), in a pseudo-random target permutation, at a fixed
packet rate in virtual time, and captures every reply with its arrival
timestamp.  Replies are parsed into :class:`ScanObservation` records; the
engine never raises on malformed responses — those become observations
with ``engine_id=None``, exactly as a capture-then-parse pipeline would
record them.

Nothing in the package runs this engine: every scan runs on
:mod:`repro.scanner.executor`.  It remains while the benchmark harness
names :meth:`ZmapScanner.scan` as a layer boundary.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Iterable

from repro.asn1 import ber
from repro.net.addresses import IPAddress
from repro.net.packet import Datagram
from repro.net.transport import NetworkFabric
from repro.scanner.executor import (
    DEFAULT_RATE_PPS,
    SHUFFLE_SEED,
    SOURCE_PORT,
    SOURCE_V4,
    SOURCE_V6,
)
from repro.scanner.records import ScanObservation, ScanResult
from repro.snmp.constants import SNMP_PORT
from repro.snmp.engine_id import EngineId
from repro.snmp.messages import build_discovery_probe, parse_discovery_response


@dataclass(frozen=True)
class ZmapConfig:
    """Engine parameters (§3.2: 5 kpps for IPv4, 20 kpps for IPv6).

    The defaults are the sharded executor's wire constants.
    """

    rate_pps: float = DEFAULT_RATE_PPS
    source_v4: IPAddress = SOURCE_V4
    source_v6: IPAddress = SOURCE_V6
    source_port: int = SOURCE_PORT
    shuffle_seed: int = SHUFFLE_SEED


class ZmapScanner:
    """Single-probe-per-target UDP scanner over a fabric."""

    def __init__(
        self, *, fabric: NetworkFabric, config: "ZmapConfig | None" = None
    ) -> None:
        self._fabric = fabric
        self.config = config or ZmapConfig()

    @property
    def fabric(self) -> NetworkFabric:
        """The delivery fabric this scanner probes."""
        return self._fabric

    def scan(
        self,
        targets: "Iterable[IPAddress]",
        label: str,
        ip_version: int,
        start_time: float,
        rate_pps: "float | None" = None,
    ) -> ScanResult:
        """Probe every target once; return the captured scan result.

        ``targets`` may be any iterable (it is materialized once for the
        shuffle); constant-memory streaming belongs to the sharded
        executor's ``execute_stream``, not this single-pass scanner.
        """
        rate = rate_pps if rate_pps is not None else self.config.rate_pps
        interval = 1.0 / rate
        source = self.config.source_v4 if ip_version == 4 else self.config.source_v6
        shuffled = list(targets)
        random.Random(self.config.shuffle_seed ^ zlib.crc32(label.encode())).shuffle(shuffled)

        result = ScanResult(label=label, ip_version=ip_version, started_at=start_time)
        send_time = start_time
        for index, target in enumerate(shuffled):
            if target.version != ip_version:
                raise ValueError(
                    f"target {target} does not match scan family IPv{ip_version}"
                )
            probe = build_discovery_probe(msg_id=index + 1)
            datagram = Datagram(
                src=source,
                dst=target,
                sport=self.config.source_port,
                dport=SNMP_PORT,
                payload=probe.encode(),
                sent_at=send_time,
            )
            replies = self._fabric.inject(datagram, now=send_time)
            if replies:
                result.add(self._observe(target, replies))
            result.targets_probed += 1
            result.probe_bytes_sent += datagram.wire_size
            result.reply_bytes_received += sum(r.wire_size for r, __ in replies)
            send_time += interval
        result.finished_at = send_time
        return result

    @staticmethod
    def _observe(target: IPAddress, replies: list) -> ScanObservation:
        """Parse the first reply; count the rest (amplification tracking)."""
        first_reply, arrival = replies[0]
        try:
            parsed = parse_discovery_response(first_reply.payload)
        except ber.BerDecodeError:
            return ScanObservation(
                address=target,
                recv_time=arrival,
                engine_id=None,
                response_count=len(replies),
                wire_bytes=first_reply.wire_size,
            )
        return ScanObservation(
            address=target,
            recv_time=arrival,
            engine_id=EngineId(parsed.engine_id),
            engine_boots=parsed.engine_boots,
            engine_time=parsed.engine_time,
            response_count=len(replies),
            wire_bytes=first_reply.wire_size,
        )
