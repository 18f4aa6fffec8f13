"""Shared machinery for counter-based alias resolution (MIDAR/Speedtrap).

Both comparison techniques exploit the same implementation artifact: many
stacks draw the IP identification field (IPv4) or the fragment
identification (IPv6) from a **single counter shared across interfaces**.
Sampling the counter through different addresses and testing whether the
interleaved samples form one monotonically increasing (mod wrap) sequence
— the Monotonic Bounds Test (MBT) — reveals aliases.

:class:`CounterOracle` simulates the probing side: per-device counters
with configurable velocity, per-probe increments, and devices that answer
with random or zero IDs (unusable for the technique, exactly like the
majority of the real population).  :class:`CounterAliasResolver`
implements estimation, velocity sieving and pairwise MBT with union-find
merging — a faithful, if simplified, MIDAR-style engine (full MIDAR runs
multiple elimination rounds at Internet scale; our candidate sets are
small enough for the direct approach).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.alias.sets import AliasSets
from repro.net.addresses import IPAddress
from repro.topology.model import DeviceType, Topology


@dataclass
class _DeviceCounter:
    base: int
    rate: float
    random_ids: bool
    probes_seen: int = 0


class CounterOracle:
    """Answers "probe address X at time T" with an identification value.

    ``None`` means the device did not answer the probe at all (ICMP
    filtered / no fragmentable response).
    """

    def __init__(
        self,
        topology: Topology,
        modulus: int,
        rate_scale: float = 1.0,
        responsive_prob: "dict[DeviceType, float] | None" = None,
        seed: int = 0,
    ) -> None:
        self.topology = topology
        self.modulus = modulus
        self._rng = random.Random(seed ^ topology.seed)
        self._counters: dict[int, _DeviceCounter] = {}
        self._responsive: dict[int, bool] = {}
        probs = responsive_prob or {
            DeviceType.ROUTER: 0.85,
            DeviceType.SERVER: 0.75,
            DeviceType.CPE: 0.5,
            DeviceType.IOT: 0.4,
        }
        for device in topology.devices.values():
            self._responsive[device.device_id] = (
                self._rng.random() < probs.get(device.device_type, 0.5)
            )
            self._counters[device.device_id] = _DeviceCounter(
                base=self._rng.randrange(modulus),
                rate=device.ip_id_rate * rate_scale,
                random_ids=device.ip_id_random,
            )

    def probe(self, address: IPAddress, now: float) -> "int | None":
        """Sample the identification value via one address."""
        device = self.topology.device_of_address(address)
        if device is None or not self._responsive[device.device_id]:
            return None
        counter = self._counters[device.device_id]
        if counter.random_ids:
            return self._rng.randrange(self.modulus)
        if counter.rate <= 0.0:
            return 0
        counter.probes_seen += 1
        value = counter.base + counter.rate * now + counter.probes_seen
        return int(value) % self.modulus


def monotonic_bounds_test(
    samples: list[tuple[float, int]], modulus: int, max_step_fraction: float = 0.4
) -> bool:
    """Check whether time-ordered samples form one wrapping counter.

    Consecutive (mod ``modulus``) increments must each stay below
    ``max_step_fraction * modulus`` — a shared counter advances by small
    positive steps, while interleaving two unrelated counters produces at
    least one large apparent jump.
    """
    if len(samples) < 2:
        return True
    ordered = sorted(samples)
    limit = modulus * max_step_fraction
    for (t0, v0), (t1, v1) in zip(ordered, ordered[1:]):
        step = (v1 - v0) % modulus
        if step > limit:
            return False
    return True


class _UnionFind:
    def __init__(self, items: list[IPAddress]) -> None:
        self._parent = {item: item for item in items}

    def find(self, item: IPAddress) -> IPAddress:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: IPAddress, b: IPAddress) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra

    def groups(self) -> list[frozenset[IPAddress]]:
        by_root: dict[IPAddress, set[IPAddress]] = {}
        for item in self._parent:
            by_root.setdefault(self.find(item), set()).add(item)
        return [frozenset(g) for g in by_root.values()]


@dataclass
class CounterAliasResolver:
    """Estimation → sieve → pairwise MBT → union-find."""

    oracle: CounterOracle
    technique: str
    start_time: float = 0.0
    estimation_probes: int = 5
    estimation_spacing: float = 10.0
    pair_probes: int = 4
    velocity_bucket_ratio: float = 2.0

    def resolve(self, candidates: list[IPAddress]) -> AliasSets:
        """Run the full pipeline over candidate addresses."""
        usable, velocities, last_values = self._estimate(candidates)
        buckets = self._sieve(usable, velocities)
        uf = _UnionFind(usable)
        clock = self.start_time + self.estimation_probes * self.estimation_spacing
        for bucket in buckets:
            # Order by counter value so true aliases (near-identical
            # values) become adjacent, then MBT-test adjacent pairs.
            bucket.sort(key=lambda a: last_values[a])
            for left, right in zip(bucket, bucket[1:]):
                if uf.find(left) == uf.find(right):
                    continue
                clock += 1.0
                if self._pair_test(left, right, clock):
                    uf.union(left, right)
        groups = uf.groups()
        # Candidates that failed estimation remain singletons.
        grouped = {a for g in groups for a in g}
        for address in candidates:
            if address not in grouped:
                groups.append(frozenset({address}))
        return AliasSets(sets=groups, technique=self.technique)

    # -- stages ---------------------------------------------------------------

    def _estimate(
        self, candidates: list[IPAddress]
    ) -> tuple[list[IPAddress], dict[IPAddress, float], dict[IPAddress, int]]:
        """Per-address time series: keep monotonic counters, estimate velocity."""
        usable: list[IPAddress] = []
        velocities: dict[IPAddress, float] = {}
        last_values: dict[IPAddress, int] = {}
        for index, address in enumerate(candidates):
            samples: list[tuple[float, int]] = []
            for probe in range(self.estimation_probes):
                now = self.start_time + probe * self.estimation_spacing + index * 1e-3
                value = self.oracle.probe(address, now)
                if value is None:
                    samples = []
                    break
                samples.append((now, value))
            if len(samples) < 2:
                continue
            if not monotonic_bounds_test(samples, self.oracle.modulus):
                continue
            span = samples[-1][0] - samples[0][0]
            total = sum(
                (b[1] - a[1]) % self.oracle.modulus for a, b in zip(samples, samples[1:])
            )
            velocity = total / span if span > 0 else 0.0
            if velocity <= 0.0:
                continue  # constant/zero IDs carry no signal
            usable.append(address)
            velocities[address] = velocity
            last_values[address] = samples[-1][1]
        return usable, velocities, last_values

    def _sieve(
        self, usable: list[IPAddress], velocities: dict[IPAddress, float]
    ) -> list[list[IPAddress]]:
        """Bucket addresses whose velocities could belong to one counter."""
        buckets: dict[int, list[IPAddress]] = {}
        log_ratio = math.log(self.velocity_bucket_ratio)
        for address in usable:
            key = int(math.log(max(velocities[address], 1e-9)) / log_ratio)
            buckets.setdefault(key, []).append(address)
            # Borderline velocities also join the neighbouring bucket via
            # a shadow entry, so near-boundary aliases are not missed.
            frac = math.log(max(velocities[address], 1e-9)) / log_ratio - key
            if frac < 0.15:
                buckets.setdefault(key - 1, []).append(address)
            elif frac > 0.85:
                buckets.setdefault(key + 1, []).append(address)
        return list(buckets.values())

    def _pair_test(self, left: IPAddress, right: IPAddress, start: float) -> bool:
        """Interleaved sampling of a candidate pair plus MBT."""
        samples: list[tuple[float, int]] = []
        now = start
        for round_index in range(self.pair_probes):
            for address in (left, right):
                value = self.oracle.probe(address, now)
                if value is None:
                    return False
                samples.append((now, value))
                now += 0.05
            now += 0.4
        return monotonic_bounds_test(samples, self.oracle.modulus, max_step_fraction=0.1)
