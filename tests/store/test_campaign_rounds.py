"""Real campaign rounds in the store.

The rest of the store suite runs on synthetic stores or on one round of
a tiny campaign in one part.  Here two rounds of a 1/1000 paper-scale
campaign go in, so density, worker invariance, point reads, frame counts
and compaction are checked on the sizes and the IPv4/IPv6 address mix
the observatory writes, with every scan of both families in many parts.
"""

import ipaddress

import pytest

from repro.io.exports import export_scan_jsonl
from repro.scanner.campaign import ScanCampaign
from repro.scanner.executor import ExecutionOptions
from repro.service.query import QueryService
from repro.store import Store
from repro.topology.config import TopologyConfig
from repro.topology.generator import build_topology

from tests.store.conftest import store_fingerprint

SEED = 2021
#: Rows per part, small enough that every scan of both families splits.
SEGMENT_ROWS = 256
#: ``history`` is checked for one stored address in this many (and for a
#: few absent ones); ``tests/store/test_history.py`` checks every address
#: of smaller stores.
HISTORY_STRIDE = 8


def two_rounds(workers):
    """Two campaigns over one world; agent state carries over, so the
    second round sees reboots the first did not."""
    config = TopologyConfig.paper_scale(divisor=1000.0, seed=SEED)
    topology = build_topology(config)
    return [
        ScanCampaign(
            topology=topology, config=config,
            options=ExecutionOptions(workers=workers),
        ).run()
        for _ in range(2)
    ]


@pytest.fixture(scope="module")
def serial_rounds():
    return two_rounds(workers=1)


def ingest(root, rounds, **store_kw):
    store = Store(root=root, **store_kw)
    for result in rounds:
        store.ingest_campaign(result)
    return store


def check_counts(store):
    """Frame counts (no row built) == decoded rows == manifest, scan by
    scan; then the ``integrity`` audit over the same store."""
    for round_id in store.rounds():
        for label in store.labels(round_id):
            decoded = sum(1 for _ in store.observations(round_id, label))
            manifest = store.scan_info(round_id, label)["rows"]
            counted = store.count_rows(round_id, label)
            assert counted == decoded == manifest, (round_id, label)
    audit = QueryService(store=store).request("integrity").value
    assert audit["consistent"] is True, audit
    assert audit["rows"] == store.stats()["rows"]


def answers(store, addresses):
    query = store.query()
    return {
        "vendors": query.vendor_census(),
        "timeline": query.timeline_summary(),
        "engines": query.engine_ids(),
        "history": {
            address: [
                (s.round_id, s.label, s.observation)
                for s in store.history(address)
            ]
            for address in addresses
        },
    }


def test_segments_are_3x_denser_than_jsonl(tmp_path, serial_rounds):
    store = ingest(tmp_path / "obs", serial_rounds)
    assert store.stats()["rows"] > 0
    jsonl_bytes = 0
    for index, result in enumerate(serial_rounds):
        for label, scan in result.scans.items():
            path = tmp_path / f"r{index}-{label}.jsonl"
            export_scan_jsonl(scan, path)
            jsonl_bytes += path.stat().st_size
    segment_bytes = store.stats()["segment_bytes"]
    assert segment_bytes * 3 <= jsonl_bytes, (segment_bytes, jsonl_bytes)


def test_two_rounds_in_parts_survive_workers_and_compaction(
    tmp_path, serial_rounds
):
    store = ingest(tmp_path / "serial", serial_rounds, segment_rows=SEGMENT_ROWS)
    pool = ingest(
        tmp_path / "pool", two_rounds(workers=2), segment_rows=SEGMENT_ROWS
    )
    assert store.rounds() == [1, 2]
    scans = [(r, label) for r in store.rounds() for label in store.labels(r)]
    assert {store.scan_info(*scan)["ip_version"] for scan in scans} == {4, 6}
    for scan in scans:
        assert len(store.scan_info(*scan)["segments"]) > 1, scan

    serial_bytes = store_fingerprint(store)
    assert serial_bytes == store_fingerprint(pool), "worker count changed segments"
    check_counts(pool)
    check_counts(store)

    brute_force: dict = {}
    for stored in store.observations():
        brute_force.setdefault(stored.observation.address, []).append(
            (stored.round_id, stored.label, stored.observation)
        )
    stored_addresses = sorted(brute_force, key=lambda a: (a.version, int(a)))
    absent = [ipaddress.ip_address(text) for text in ("0.0.0.0", "::")]
    assert not set(absent) & set(brute_force)
    sample = stored_addresses[::HISTORY_STRIDE] + absent
    assert {a.version for a in stored_addresses[::HISTORY_STRIDE]} == {4, 6}

    before = answers(store, sample)
    assert before["history"] == {a: brute_force.get(a, []) for a in sample}
    assert before["timeline"]["rounds"] == [1, 2]
    store.compact()
    assert store_fingerprint(store) != serial_bytes, "compaction was a no-op"
    assert answers(store, sample) == before, "compaction changed an answer"
    check_counts(store)
