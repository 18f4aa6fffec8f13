"""Store catalogue semantics: ingest, dedup, persistence, JSONL interchange."""

import ipaddress
import json
import random

import pytest

from repro.io.exports import export_scan_jsonl, load_scan_jsonl
from repro.store import Store, StoreError

from tests.store.conftest import make_engine, make_obs, make_scan


def small_round(store, round_id=1):
    scan1 = make_scan("v4-1", 1000.0, [
        make_obs("10.0.0.1", 1001.0, make_engine(1), boots=2, engine_time=100),
        make_obs("10.0.0.2", 1002.0, make_engine(2), boots=1, engine_time=200),
        make_obs("10.0.0.9", 1003.0, None),
    ])
    scan2 = make_scan("v4-2", 2000.0, [
        make_obs("10.0.0.1", 2001.0, make_engine(1), boots=2, engine_time=1100),
        make_obs("10.0.0.2", 2002.0, make_engine(2), boots=1, engine_time=1200),
    ])
    store.ingest_result(scan1, round_id=round_id)
    store.ingest_result(scan2, round_id=round_id)
    return scan1, scan2


class TestIngest:
    def test_catalogue_and_rebuild(self, tmp_path):
        store = Store(root=tmp_path / "s")
        scan1, scan2 = small_round(store)
        assert store.rounds() == [1]
        assert store.labels(1) == ["v4-1", "v4-2"]
        rebuilt = store.scan_result(1, "v4-1")
        assert rebuilt.observations == scan1.observations
        assert rebuilt.targets_probed == scan1.targets_probed
        assert rebuilt.started_at == scan1.started_at
        assert rebuilt.finished_at == scan1.finished_at

    def test_reingest_same_scan_rejected(self, tmp_path):
        store = Store(root=tmp_path / "s")
        scan1, __ = small_round(store)
        with pytest.raises(StoreError, match="already ingested"):
            store.ingest_result(scan1, round_id=1)

    def test_duplicate_addresses_keep_first(self, tmp_path):
        store = Store(root=tmp_path / "s")
        rows = [
            make_obs("10.0.0.1", 1.0, make_engine(1), boots=1),
            make_obs("10.0.0.1", 2.0, make_engine(9), boots=9),
            make_obs("10.0.0.2", 3.0, make_engine(2)),
        ]
        stats = store.ingest_scan(
            rows, round_id=1, label="v4-1", ip_version=4, started_at=0.0
        )
        assert stats.rows == 2
        stored = [s.observation for s in store.observations()]
        assert stored == [rows[0], rows[2]]

    def test_empty_scan_still_recorded(self, tmp_path):
        store = Store(root=tmp_path / "s")
        stats = store.ingest_scan(
            [], round_id=1, label="v6-1", ip_version=6, started_at=5.0
        )
        assert stats.rows == 0
        assert stats.segments == 1
        assert store.labels(1) == ["v6-1"]
        assert list(store.observations()) == []

    def test_multi_part_split(self, tmp_path):
        store = Store(root=tmp_path / "s", segment_rows=3)
        rows = [make_obs(f"10.0.0.{i}", float(i), make_engine(i))
                for i in range(1, 9)]
        stats = store.ingest_scan(
            rows, round_id=1, label="v4-1", ip_version=4, started_at=0.0
        )
        assert stats.segments == 3
        assert [s.observation for s in store.observations()] == rows

    def test_campaign_ingest_orders_by_schedule(self, tmp_path):
        from repro.scanner.campaign import CampaignResult

        store = Store(root=tmp_path / "s")
        result = CampaignResult()
        result.scans["v4-1"] = make_scan("v4-1", 3000.0, [])
        result.scans["v6-1"] = make_scan("v6-1", 1000.0, [])
        stats = store.ingest_campaign(result)
        assert [s.label for s in stats] == ["v6-1", "v4-1"]
        assert store.labels(1) == ["v6-1", "v4-1"]


class TestFrameCounts:
    @pytest.mark.parametrize("seed", range(3))
    def test_count_rows_equals_decode_and_manifest(self, tmp_path, seed):
        """Multi-part scans of 2-row blocks, one family, the other or
        both in one block, and an empty scan: the frame count of every
        scan equals its decoded rows and its manifest total, before and
        after compaction."""
        rng = random.Random(seed)
        store = Store(root=tmp_path / "s", segment_rows=6, block_rows=2)
        families = {"v4": (4,), "v6": (6,), "mixed": (4, 6)}
        for round_id in (1, 2):
            for label, versions in families.items():
                rows = [
                    make_obs(
                        f"10.0.{round_id}.{n}"
                        if rng.choice(versions) == 4
                        else f"2001:db8::{round_id}:{n}",
                        float(n),
                        rng.choice((make_engine(n % 5), None)),
                    )
                    for n in range(rng.randint(0, 20))
                ]
                store.ingest_scan(
                    rows, round_id=round_id, label=label,
                    ip_version=versions[0], started_at=float(round_id),
                )
        store.ingest_scan(
            [], round_id=2, label="empty", ip_version=4, started_at=9.0
        )
        assert any(
            len(store.scan_info(1, label)["segments"]) > 1 for label in families
        )

        def counts():
            return {
                (rid, label): (
                    store.count_rows(rid, label),
                    sum(1 for __ in store.observations(rid, label)),
                    store.scan_info(rid, label)["rows"],
                )
                for rid in store.rounds()
                for label in store.labels(rid)
            }

        before = counts()
        assert all(a == b == c for a, b, c in before.values()), before
        assert store.compact().scans_compacted >= 1
        assert counts() == before


class TestPersistence:
    def test_reopen_sees_everything(self, tmp_path):
        root = tmp_path / "s"
        store = Store(root=root)
        small_round(store)
        reopened = Store.open(root)
        assert reopened.rounds() == [1]
        assert [s.observation for s in reopened.observations()] == \
            [s.observation for s in store.observations()]

    def test_manifest_is_canonical_json(self, tmp_path):
        store = Store(root=tmp_path / "s")
        small_round(store)
        manifest = (tmp_path / "s" / "MANIFEST.json").read_text()
        parsed = json.loads(manifest)
        assert manifest == json.dumps(parsed, sort_keys=True, indent=2) + "\n"
        assert parsed["format"] == "repro-store"

    def test_foreign_directory_rejected(self, tmp_path):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "MANIFEST.json").write_text('{"format": "something-else"}')
        with pytest.raises(StoreError):
            Store(root=bad)

    def test_history_across_rounds(self, tmp_path):
        store = Store(root=tmp_path / "s", segment_rows=2)
        small_round(store, round_id=1)
        small_round(store, round_id=2)
        history = store.history(ipaddress.ip_address("10.0.0.1"))
        assert [(s.round_id, s.label) for s in history] == [
            (1, "v4-1"), (1, "v4-2"), (2, "v4-1"), (2, "v4-2"),
        ]

    def test_stats_shape(self, tmp_path):
        store = Store(root=tmp_path / "s")
        small_round(store)
        stats = store.stats()
        assert stats["rounds"] == 1
        assert stats["rows"] == 5
        assert stats["segments"] == 2
        assert stats["segment_bytes"] > 0
        assert stats["per_round"]["1"]["scans"] == 2


class TestJsonlInterchange:
    def test_roundtrip_jsonl_store_jsonl(self, tmp_path):
        """JSONL -> store -> JSONL is byte-identical for sorted exports."""
        scan = make_scan("v4-1", 1000.0, [
            make_obs("10.0.0.5", 1001.0, make_engine(5), boots=3,
                     engine_time=77, responses=2),
            make_obs("10.0.0.1", 1002.0, make_engine(1)),
            make_obs("10.0.0.3", 1003.0, None),
        ])
        original = tmp_path / "scan.jsonl"
        export_scan_jsonl(scan, original)

        store = Store(root=tmp_path / "s")
        stats = store.import_jsonl(original, round_id=4)
        assert stats.rows == 3
        assert stats.label == "v4-1"

        exported = tmp_path / "back.jsonl"
        assert store.export_jsonl(4, "v4-1", exported) == 3
        assert exported.read_bytes() == original.read_bytes()

    def test_import_label_override(self, tmp_path):
        scan = make_scan("v4-1", 1000.0, [make_obs("10.0.0.1", 1.0, None)])
        path = tmp_path / "scan.jsonl"
        export_scan_jsonl(scan, path)
        store = Store(root=tmp_path / "s")
        store.import_jsonl(path, round_id=1, label="renamed")
        assert store.labels(1) == ["renamed"]

    def test_loaders_read_reexported_scan(self, tmp_path):
        scan = make_scan("v6-1", 500.0, [
            make_obs("2001:db8::1", 501.0, make_engine(9)),
        ], ip_version=6)
        path = tmp_path / "scan.jsonl"
        export_scan_jsonl(scan, path)
        store = Store(root=tmp_path / "s")
        store.import_jsonl(path, round_id=1)
        out = tmp_path / "out.jsonl"
        store.export_jsonl(1, "v6-1", out)
        loaded = load_scan_jsonl(out)
        assert loaded.observations == scan.observations
        assert loaded.label == scan.label
