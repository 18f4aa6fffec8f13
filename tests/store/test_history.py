"""Point reads: ``Store.history`` against a brute-force scan of every row."""

import ipaddress
import random

import pytest

from repro.store import Store

from tests.store.conftest import make_engine, make_obs, random_rounds


def build_store(root, seed):
    """IPv4 and IPv6 scans in probe order, in small parts of small blocks.

    Some IPv6 rows are IPv4-compatible (``::10.0.0.1``), so their bytes
    hold IPv4 keys and their integer values fall in IPv4 footer ranges.
    """
    rng = random.Random(seed)
    store = Store(root=root, segment_rows=6, block_rows=2)
    for round_id, scans in random_rounds(seed, rounds=3, devices=12):
        for label, started_at, observations in scans:
            rows = list(observations)
            rng.shuffle(rows)
            store.ingest_scan(
                rows, round_id=round_id, label=label, ip_version=4,
                started_at=started_at,
            )
        v6 = [
            make_obs(
                f"::{row.address}" if n % 2 else f"2001:db8::{n + 1:x}",
                row.recv_time,
                make_engine(0x3000 + n),
            )
            for n, row in enumerate(scans[0][2])
        ]
        rng.shuffle(v6)
        store.ingest_scan(
            v6, round_id=round_id, label="v6-1", ip_version=6,
            started_at=scans[0][1],
        )
    return store


def brute_force(store, address):
    return [
        (s.round_id, s.label, s.observation)
        for s in store.observations()
        if s.observation.address == address
    ]


def answers(store, keys):
    return {
        key: [(s.round_id, s.label, s.observation) for s in store.history(key)]
        for key in keys
    }


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_history_equals_brute_force_before_and_after_compact(tmp_path, seed):
    store = build_store(tmp_path / "s", seed)
    assert any(
        len(store.scan_info(r, label)["segments"]) > 1
        for r in store.rounds()
        for label in store.labels(r)
    )
    stored = {s.observation.address for s in store.observations()}
    absent = [
        ipaddress.ip_address(text)
        for text in ("10.0.0.200", "10.0.100.13", "0.0.0.0", "::", "2001:db8::ffff")
    ]
    assert not stored & set(absent)
    keys = sorted(stored, key=lambda a: (a.version, int(a))) + absent
    # An IPv4 key is never found in an IPv6 row that embeds its bytes.
    assert any(
        a.version == 6 and ipaddress.ip_address(int(a)) in stored for a in stored
    )
    before = answers(store, keys)
    assert before == {key: brute_force(store, key) for key in keys}
    assert all(before[key] for key in stored)
    assert all(before[key] == [] for key in absent)
    store.compact()
    assert answers(store, keys) == before
