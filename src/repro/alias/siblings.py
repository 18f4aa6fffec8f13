"""TCP-timestamp sibling detection (§7.3 comparator: Scheitle et al.).

Prior dual-stack work classifies IPv4/IPv6 *siblings* by comparing the
remote TCP timestamp clock observed over both addresses: one host has one
clock, so its rate (Hz) and skew match across families.  The paper notes
the technique "largely centers on servers" — routers rarely answer TCP at
all — which is exactly why SNMPv3 dual-stack aliasing was novel.

This module implements the method end to end:

* :class:`TcpTimestampOracle` — the probing side: devices with an open
  TCP port return their 32-bit timestamp counter (per-device rate from
  the common 100/250/1000 Hz classes, skewed by the device clock);
* :class:`SiblingDetector` — samples candidate (IPv4, IPv6) pairs over a
  virtual window, estimates each address's clock rate by linear fit, and
  classifies pairs whose rates agree within tolerance *and* whose
  timestamp offsets align.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.net.addresses import IPAddress
from repro.topology.model import Topology

_TS_MODULUS = 1 << 32
_RATE_CLASSES = (100.0, 250.0, 1000.0)


@dataclass(frozen=True)
class SiblingVerdict:
    """One classified candidate pair."""

    v4: IPAddress
    v6: IPAddress
    is_sibling: bool
    rate_v4: float
    rate_v6: float


class TcpTimestampOracle:
    """Answers TCP timestamp probes against the simulated population."""

    def __init__(self, topology: Topology, seed: int = 0x7C9) -> None:
        self.topology = topology
        rng = random.Random(seed ^ topology.seed)
        self._rate: dict[int, float] = {}
        self._base: dict[int, int] = {}
        for device in topology.devices.values():
            nominal = rng.choice(_RATE_CLASSES)
            # The true rate inherits the device clock's skew — the signal
            # the sibling technique keys on.
            self._rate[device.device_id] = nominal * (
                1.0 + device.agent.behavior.clock_skew
            )
            self._base[device.device_id] = rng.randrange(_TS_MODULUS)

    def probe(self, address: IPAddress, now: float) -> "int | None":
        """TSval from a SYN/ACK, or ``None`` when no TCP service answers."""
        device = self.topology.device_of_address(address)
        if device is None or not device.open_tcp_ports:
            return None
        value = self._base[device.device_id] + self._rate[device.device_id] * now
        return int(value) % _TS_MODULUS


@dataclass
class SiblingDetector:
    """Rate-and-offset matching over candidate pairs."""

    oracle: TcpTimestampOracle
    window: float = 3600.0          # sampling window (virtual seconds)
    samples: int = 6
    rate_tolerance: float = 5e-4    # relative rate agreement
    offset_tolerance: float = 1.0   # seconds of clock disagreement allowed

    def estimate_rate(self, address: IPAddress, start: float) -> "tuple[float, float] | None":
        """Least-squares fit of the remote clock: (rate Hz, intercept)."""
        points = []
        for k in range(self.samples):
            now = start + k * self.window / max(1, self.samples - 1)
            value = self.oracle.probe(address, now)
            if value is None:
                return None
            points.append((now, value))
        # Unwrap the 32-bit counter before fitting.
        unwrapped = [points[0][1]]
        for (__, prev), (__, cur) in zip(points, points[1:]):
            delta = (cur - prev) % _TS_MODULUS
            unwrapped.append(unwrapped[-1] + delta)
        n = len(points)
        xs = [t for t, __ in points]
        mean_x = sum(xs) / n
        mean_y = sum(unwrapped) / n
        sxx = sum((x - mean_x) ** 2 for x in xs)
        sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, unwrapped))
        if sxx == 0:
            return None
        rate = sxy / sxx
        intercept = mean_y - rate * mean_x
        return rate, intercept

    def classify_pair(
        self, v4: IPAddress, v6: IPAddress, start: float = 0.0
    ) -> "SiblingVerdict | None":
        """Classify one candidate pair; ``None`` if either side is silent."""
        fit_v4 = self.estimate_rate(v4, start)
        fit_v6 = self.estimate_rate(v6, start)
        if fit_v4 is None or fit_v6 is None:
            return None
        rate_v4, intercept_v4 = fit_v4
        rate_v6, intercept_v6 = fit_v6
        rate_delta = abs(rate_v4 - rate_v6) / max(abs(rate_v4), 1e-9)
        is_sibling = rate_delta < self.rate_tolerance
        if is_sibling:
            # Same clock also means same origin: intercepts must agree to
            # within the tolerance, measured in remote clock ticks.
            offset_seconds = abs(intercept_v4 - intercept_v6) / max(abs(rate_v4), 1e-9)
            is_sibling = offset_seconds < self.offset_tolerance
        return SiblingVerdict(
            v4=v4, v6=v6, is_sibling=is_sibling, rate_v4=rate_v4, rate_v6=rate_v6
        )

    def classify_pairs(
        self, candidates: "list[tuple[IPAddress, IPAddress]]", start: float = 0.0
    ) -> list[SiblingVerdict]:
        """Classify a candidate list, skipping silent pairs."""
        verdicts = []
        for v4, v6 in candidates:
            verdict = self.classify_pair(v4, v6, start)
            if verdict is not None:
                verdicts.append(verdict)
        return verdicts
