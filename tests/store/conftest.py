"""Shared fixtures and synthetic-round builders for the store suite."""

import ipaddress
import random

import pytest

from repro.scanner.records import ScanObservation, ScanResult
from repro.snmp.engine_id import EngineId
from repro.store.segment import segment_fingerprint


def make_engine(tag: int) -> EngineId:
    """A distinct, conforming MAC-format engine ID per tag."""
    mac = tag.to_bytes(6, "big")
    return EngineId(b"\x80\x00\x00\x09\x03" + mac)


def make_obs(
    ip: str,
    recv_time: float,
    engine: "EngineId | None",
    boots: int = 1,
    engine_time: int = 100,
    responses: int = 1,
) -> ScanObservation:
    return ScanObservation(
        address=ipaddress.ip_address(ip),
        recv_time=recv_time,
        engine_id=engine,
        engine_boots=boots,
        engine_time=engine_time,
        response_count=responses,
        wire_bytes=64,
    )


def store_fingerprint(store) -> str:
    """One digest over the bytes of every segment part the store lists."""
    return segment_fingerprint([
        path
        for round_id in store.rounds()
        for label in store.labels(round_id)
        for path in store.segment_paths(round_id, label)
    ])


def make_scan(
    label: str,
    started_at: float,
    observations,
    *,
    ip_version: int = 4,
    targets_probed: int = 100,
) -> ScanResult:
    scan = ScanResult(
        label=label,
        ip_version=ip_version,
        started_at=started_at,
        finished_at=started_at + 50.0,
        targets_probed=targets_probed,
    )
    for obs in observations:
        scan.add(obs)
    return scan


def random_rounds(seed: int, *, rounds: int = 3, devices: int = 12):
    """A randomized longitudinal corpus with reboots and renumbering.

    Returns ``[(round_id, [(label, started_at, [obs, ...]), ...]), ...]``.
    Devices keep one engine ID throughout; per round each device may be
    absent, rebooted (boots+1, uptime reset) or silently reset (uptime
    regression without a boots increment), and addresses are reshuffled
    so some IPs change hands between rounds (the 'moved' population).
    """
    rng = random.Random(seed)
    engines = [make_engine(0x1000 + n) for n in range(devices)]
    boots = {e.raw: rng.randint(1, 5) for e in engines}
    reboot_at = {e.raw: 0.0 for e in engines}
    corpus = []
    for round_index in range(rounds):
        round_id = round_index + 1
        round_start = 10_000.0 * round_id
        addresses = [f"10.0.{round_index}.{n + 1}" for n in range(devices)]
        # Some devices swap addresses with a neighbour, some keep last
        # round's address block alive (stable IPs that can change hands).
        if round_index > 0 and rng.random() < 0.9:
            keep = rng.sample(range(devices), k=max(2, devices // 2))
            for n in keep:
                addresses[n] = f"10.0.100.{(n + round_index) % devices + 1}"
        scans = []
        for scan_index, label in enumerate(("s-1", "s-2")):
            started = round_start + 1000.0 * scan_index
            observations = []
            for n, engine in enumerate(engines):
                if rng.random() < 0.15:
                    continue  # unresponsive this scan
                raw = engine.raw
                if rng.random() < 0.2:
                    if rng.random() < 0.5:
                        boots[raw] += 1  # clean reboot
                    reboot_at[raw] = started - rng.uniform(0.0, 500.0)
                recv = started + n * 0.25
                uptime = max(0, int(recv - reboot_at[raw]))
                observations.append(
                    make_obs(
                        addresses[n],
                        recv,
                        engine,
                        boots=boots[raw],
                        engine_time=uptime,
                    )
                )
            scans.append((label, started, observations))
        corpus.append((round_id, scans))
    return corpus


@pytest.fixture()
def three_rounds():
    """A handcrafted 3-round corpus with every event kind injected.

    Devices (engine tags): A=1, B=2, C=3.

    * round 1: A answers on 10.0.0.1, B on 10.0.0.2.
    * round 2: A has cleanly rebooted (boots+1, uptime reset); B has
      *renumbered* to 10.0.0.3; C is born on 10.0.0.4.
    * round 3: B resets without incrementing boots (engine-time
      regression); A falls silent (died); C *moves* onto B's old
      address 10.0.0.3 while B returns to 10.0.0.2.
    """
    a, b, c = make_engine(1), make_engine(2), make_engine(3)
    round1 = [
        ("s-1", 10_000.0, [
            make_obs("10.0.0.1", 10_001.0, a, boots=2, engine_time=5_000),
            make_obs("10.0.0.2", 10_002.0, b, boots=7, engine_time=9_000),
        ]),
        ("s-2", 11_000.0, [
            make_obs("10.0.0.1", 11_001.0, a, boots=2, engine_time=6_000),
            make_obs("10.0.0.2", 11_002.0, b, boots=7, engine_time=10_000),
        ]),
    ]
    round2 = [
        ("s-1", 20_000.0, [
            # A rebooted at ~19_900: boots 2 -> 3, uptime reset.
            make_obs("10.0.0.1", 20_001.0, a, boots=3, engine_time=100),
            make_obs("10.0.0.3", 20_002.0, b, boots=7, engine_time=19_000),
            make_obs("10.0.0.4", 20_003.0, c, boots=1, engine_time=50),
        ]),
        ("s-2", 21_000.0, [
            make_obs("10.0.0.1", 21_001.0, a, boots=3, engine_time=1_100),
            make_obs("10.0.0.3", 21_002.0, b, boots=7, engine_time=20_000),
            make_obs("10.0.0.4", 21_003.0, c, boots=1, engine_time=1_050),
        ]),
    ]
    round3 = [
        ("s-1", 30_000.0, [
            # B lost ~29_000s of uptime without a boots increment.
            make_obs("10.0.0.2", 30_001.0, b, boots=7, engine_time=500),
            make_obs("10.0.0.3", 30_002.0, c, boots=1, engine_time=10_050),
        ]),
        ("s-2", 31_000.0, [
            make_obs("10.0.0.2", 31_001.0, b, boots=7, engine_time=1_500),
            make_obs("10.0.0.3", 31_002.0, c, boots=1, engine_time=11_050),
        ]),
    ]
    return [(1, round1), (2, round2), (3, round3)]
