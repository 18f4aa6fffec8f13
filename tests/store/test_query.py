"""StoreQuery and StoreIndex: inverted lookups, censuses, timeline views."""

import ipaddress

import pytest

from repro.snmp.engine_id import EngineId
from repro.store import Store, StoreQuery
from repro.store.index import NO_ENTERPRISE

from tests.store.conftest import make_engine, make_obs


@pytest.fixture()
def populated(tmp_path, three_rounds):
    store = Store(root=tmp_path / "s")
    for round_id, scans in three_rounds:
        for label, started_at, observations in scans:
            store.ingest_scan(
                observations,
                round_id=round_id,
                label=label,
                ip_version=4,
                started_at=started_at,
            )
    return store, StoreQuery(store=store)


class TestPointQueries:
    def test_history_accepts_strings(self, populated):
        __, query = populated
        by_str = query.history("10.0.0.1")
        by_obj = query.history(ipaddress.ip_address("10.0.0.1"))
        assert by_str == by_obj
        assert [(s.round_id, s.label) for s in by_str] == [
            (1, "s-1"), (1, "s-2"), (2, "s-1"), (2, "s-2"),
        ]

    def test_ips_with_engine_id_forms(self, populated):
        __, query = populated
        b = make_engine(2)
        expected = [
            ipaddress.ip_address("10.0.0.2"),
            ipaddress.ip_address("10.0.0.3"),
        ]
        assert query.ips_with_engine_id(b) == expected
        assert query.ips_with_engine_id(b.raw) == expected
        assert query.ips_with_engine_id(b.raw.hex()) == expected
        assert query.ips_with_engine_id("0x" + b.raw.hex()) == expected

    def test_unknown_engine_is_empty(self, populated):
        __, query = populated
        assert query.ips_with_engine_id(make_engine(99)) == []

    def test_engine_ids_sorted(self, populated):
        __, query = populated
        expected = sorted(make_engine(tag).raw for tag in (1, 2, 3))
        assert query.engine_ids() == expected


class TestCensuses:
    def test_device_count(self, populated):
        __, query = populated
        assert query.device_count == 3

    def test_vendor_census(self, populated):
        __, query = populated
        census = dict(query.vendor_census())
        # Conftest engines use the Cisco enterprise number (9).
        assert sum(census.values()) == 3
        assert census.get("Cisco") == 3

    def test_enterprise_and_oui_census(self, populated):
        __, query = populated
        enterprise = dict(query.enterprise_census())
        assert enterprise == {9: 3}
        # Conftest MACs use the unassigned 00:00:00 OUI — no census entry.
        assert query.oui_census() == []

    def test_known_oui_counted(self, tmp_path):
        store = Store(root=tmp_path / "s")
        cisco = EngineId(b"\x80\x00\x00\x09\x03" + bytes.fromhex("00000c000001"))
        store.ingest_scan(
            [make_obs("10.0.0.1", 1.0, cisco)],
            round_id=1, label="s-1", ip_version=4, started_at=0.0,
        )
        assert StoreQuery(store=store).oui_census() == [("Cisco", 1)]

    def test_anonymous_rows_not_devices(self, tmp_path):
        store = Store(root=tmp_path / "s")
        store.ingest_scan(
            [make_obs("10.0.0.1", 1.0, None)],
            round_id=1, label="s-1", ip_version=4, started_at=0.0,
        )
        query = StoreQuery(store=store)
        assert query.device_count == 0
        assert query.engine_ids() == []

    def test_unparseable_engine_bucketed(self, tmp_path):
        store = Store(root=tmp_path / "s")
        weird = EngineId(b"\x00\x01\x02\x03\x04\x05")
        store.ingest_scan(
            [make_obs("10.0.0.1", 1.0, weird)],
            round_id=1, label="s-1", ip_version=4, started_at=0.0,
        )
        index = store.index()
        assert NO_ENTERPRISE in index.devices_by_enterprise \
            or index.devices_by_enterprise


class TestIndexMaintenance:
    def test_index_cached_until_ingest(self, populated):
        store, query = populated
        first = store.index()
        assert store.index() is first
        store.ingest_scan(
            [make_obs("10.0.9.9", 40_000.0, make_engine(9))],
            round_id=9, label="s-1", ip_version=4, started_at=40_000.0,
        )
        grown = store.index()
        # Ingest keeps the cached index; the next call folds the new
        # scan into it in place.
        assert grown is first
        assert (9, "s-1") in grown.folded
        assert make_engine(9).raw in grown.engine_to_ips

    def test_rows_indexed_matches_store(self, populated):
        store, __ = populated
        assert store.index().rows_indexed == store.stats()["rows"]


class TestTimelineViews:
    def test_timeline_lookup(self, populated):
        __, query = populated
        timeline = query.timeline(make_engine(1))
        assert timeline is not None
        assert timeline.first_round == 1
        assert timeline.last_round == 2
        assert query.timeline(make_engine(42)) is None

    def test_round_summary(self, populated):
        __, query = populated
        summary = query.round_summary(2)
        assert summary["round"] == 2
        assert set(summary["scans"]) == {"s-1", "s-2"}
        assert summary["scans"]["s-1"]["rows"] == 3

    def test_timeline_summary_is_json_safe(self, populated):
        import json

        __, query = populated
        assert json.dumps(query.timeline_summary())
