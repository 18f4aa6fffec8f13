"""Round-trip tests for dataset import/export."""

import csv
import ipaddress
import json

import pytest

from repro.alias.sets import AliasSets
from repro.io import (
    export_alias_sets_csv,
    export_alias_sets_jsonl,
    export_scan_jsonl,
    export_vendor_census_csv,
    load_alias_sets_jsonl,
    load_scan_jsonl,
)
from repro.scanner.records import ScanObservation, ScanResult
from repro.snmp.engine_id import EngineId


def make_scan():
    scan = ScanResult(label="v4-1", ip_version=4, started_at=100.0, finished_at=200.0)
    scan.targets_probed = 10
    scan.add(ScanObservation(
        address=ipaddress.ip_address("192.0.2.1"),
        recv_time=101.5,
        engine_id=EngineId(bytes.fromhex("800000090300000c010203")),
        engine_boots=4,
        engine_time=5000,
        response_count=1,
        wire_bytes=130,
    ))
    scan.add(ScanObservation(
        address=ipaddress.ip_address("192.0.2.9"),
        recv_time=102.0,
        engine_id=None,  # malformed response
        response_count=3,
        wire_bytes=40,
    ))
    return scan


class TestScanRoundTrip:
    def test_roundtrip(self, tmp_path):
        scan = make_scan()
        path = tmp_path / "scan.jsonl"
        assert export_scan_jsonl(scan, path) == 2
        loaded = load_scan_jsonl(path)
        assert loaded.label == scan.label
        assert loaded.responsive_count == 2
        a = loaded.observations[ipaddress.ip_address("192.0.2.1")]
        assert a.engine_id.raw == bytes.fromhex("800000090300000c010203")
        assert a.engine_boots == 4
        b = loaded.observations[ipaddress.ip_address("192.0.2.9")]
        assert b.engine_id is None
        assert b.response_count == 3

    def test_empty_engine_id_round_trips(self, tmp_path):
        """A parsed zero-length engine ID is falsy but is not a malformed
        reply (``None``); the two must not merge on disk."""
        scan = make_scan()
        empty = ScanObservation(
            address=ipaddress.ip_address("192.0.2.5"),
            recv_time=103.25,
            engine_id=EngineId(b""),
            wire_bytes=60,
        )
        scan.add(empty)
        path = tmp_path / "scan.jsonl"
        export_scan_jsonl(scan, path)
        loaded = load_scan_jsonl(path)
        assert loaded.observations[empty.address].engine_id == EngineId(b"")
        assert loaded.observations == scan.observations

    def test_header_is_self_describing(self, tmp_path):
        path = tmp_path / "scan.jsonl"
        export_scan_jsonl(make_scan(), path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["format"] == "snmpv3-scan"
        assert header["responsive"] == 2

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "something-else", "version": 1}\n')
        with pytest.raises(ValueError):
            load_scan_jsonl(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "snmpv3-scan", "version": 99}\n')
        with pytest.raises(ValueError):
            load_scan_jsonl(path)


class TestAliasSetsRoundTrip:
    def make_sets(self):
        return AliasSets(
            sets=[
                frozenset({ipaddress.ip_address("192.0.2.1"),
                           ipaddress.ip_address("192.0.2.2")}),
                frozenset({ipaddress.ip_address("2001:db8::1")}),
            ],
            technique="snmpv3/divide-20/both",
        )

    def test_jsonl_roundtrip(self, tmp_path):
        sets = self.make_sets()
        path = tmp_path / "alias.jsonl"
        assert export_alias_sets_jsonl(sets, path) == 2
        loaded = load_alias_sets_jsonl(path)
        assert loaded.technique == sets.technique
        assert {frozenset(g) for g in loaded.sets} == {frozenset(g) for g in sets.sets}

    def test_csv_flat_form(self, tmp_path):
        path = tmp_path / "alias.csv"
        assert export_alias_sets_csv(self.make_sets(), path) == 3
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["set_id", "ip"]
        assert len(rows) == 4
        # Both members of the first set share a set_id.
        assert rows[1][0] == rows[2][0]

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "nope"}\n')
        with pytest.raises(ValueError):
            load_alias_sets_jsonl(path)

    def test_export_is_deterministic(self, tmp_path):
        sets = self.make_sets()
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        export_alias_sets_jsonl(sets, p1)
        export_alias_sets_jsonl(sets, p2)
        assert p1.read_text() == p2.read_text()


class TestVendorCensus:
    def test_csv(self, tmp_path):
        path = tmp_path / "census.csv"
        n = export_vendor_census_csv([("Cisco", 10), ("Huawei", 3)], path)
        assert n == 2
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows == [["vendor", "devices"], ["Cisco", "10"], ["Huawei", "3"]]


class TestWriterLifecycle:
    """The leak RES001 caught: the handle closes on every exit path."""

    def test_init_failure_closes_the_handle(self, tmp_path, monkeypatch):
        from pathlib import Path

        from repro.io import ScanJsonlWriter

        handles = []
        real_open = Path.open

        def recording_open(self, *args, **kwargs):
            handle = real_open(self, *args, **kwargs)
            handles.append(handle)
            return handle

        monkeypatch.setattr(Path, "open", recording_open)

        class ExplodingHeader(ScanJsonlWriter):
            def _header(self):
                raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            ExplodingHeader(
                tmp_path / "scan.jsonl",
                label="x", ip_version=4, started_at=1.0,
            )
        assert handles and all(handle.closed for handle in handles)

    def test_close_failure_still_closes_the_handle(self, tmp_path):
        from repro.io import ScanJsonlWriter

        writer = ScanJsonlWriter(
            tmp_path / "scan.jsonl", label="x", ip_version=4, started_at=1.0
        )
        writer._header_width = 0  # force header-finalize to fail
        with pytest.raises(ValueError, match="outgrew"):
            writer.close()
        assert writer.closed
