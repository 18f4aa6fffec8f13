"""Fixtures for the service suite: small synthetic stores, fast worlds."""

import ipaddress

import pytest

from repro.scanner.records import ScanObservation, ScanResult
from repro.snmp.engine_id import EngineId
from repro.store import SegmentReader, Store


def make_engine(tag: int) -> EngineId:
    mac = tag.to_bytes(6, "big")
    return EngineId(b"\x80\x00\x00\x09\x03" + mac)


def make_obs(
    ip: str,
    recv_time: float,
    engine: "EngineId | None",
    boots: int = 1,
    engine_time: int = 100,
) -> ScanObservation:
    return ScanObservation(
        address=ipaddress.ip_address(ip),
        recv_time=recv_time,
        engine_id=engine,
        engine_boots=boots,
        engine_time=engine_time,
        response_count=1,
        wire_bytes=64,
    )


def make_scan(label, started_at, observations, *, ip_version=4):
    scan = ScanResult(
        label=label,
        ip_version=ip_version,
        started_at=started_at,
        finished_at=started_at + 50.0,
        targets_probed=len(observations) + 5,
    )
    for obs in observations:
        scan.add(obs)
    return scan


def synthetic_round(round_id: int, *, devices: int = 8) -> "list[ScanResult]":
    """Two scans of ``devices`` stable engines; uptimes grow per round.

    Device ``n`` answers on the ``n + 1``-th address of ``10.<round>.0.0/16``.
    """
    start = 10_000.0 * round_id
    base = ipaddress.ip_address(f"10.{round_id}.0.0")
    scans = []
    for pair, label in enumerate(("v4-1", "v4-2")):
        observations = [
            make_obs(
                str(base + n + 1),
                start + pair * 100.0,
                make_engine(0x2000 + n),
                boots=2,
                engine_time=round_id * 1000 + pair * 100,
            )
            for n in range(devices)
        ]
        scans.append(make_scan(label, start + pair * 100.0, observations))
    return scans


def populate(root, *, rounds: int = 2, devices: int = 8) -> Store:
    """A store with ``rounds`` synthetic two-scan rounds (multi-part)."""
    store = Store(root=root, segment_rows=4)
    for round_id in range(1, rounds + 1):
        for scan in synthetic_round(round_id, devices=devices):
            store.ingest_result(scan, round_id=round_id)
    return store


def corrupt_first_block(store: Store) -> str:
    """Set the wire-version byte of block 0 of round 1's first ``v4-1``
    part to 9 (the block holding 10.1.0.1); returns the part's name."""
    (path, *__) = store.segment_paths(1, "v4-1")
    offset = SegmentReader(path).blocks[0].offset
    data = bytearray(path.read_bytes())
    data[offset] = 9
    path.write_bytes(bytes(data))
    return path.name


@pytest.fixture(scope="module")
def served_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("served-store")
    return populate(root / "obs", rounds=2)
