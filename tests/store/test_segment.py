"""Segment file format: round trips, footer pruning, corruption handling."""

import ipaddress
import random
import struct

import pytest

from repro.scanner import wire
from repro.scanner.wire import WireFormatError
from repro.store.segment import (
    SegmentError,
    SegmentMeta,
    SegmentReader,
    iter_segment,
    read_segment_meta,
    segment_fingerprint,
    write_segment,
)

from tests.store.conftest import make_engine, make_obs

META = SegmentMeta(
    round_id=3, label="v4-1", ip_version=4, started_at=1234.5, part=0
)


def sample_rows(n=10):
    return [
        make_obs(
            f"10.1.{i // 250}.{i % 250 + 1}",
            1000.0 + i,
            make_engine(i) if i % 3 else None,
            boots=i,
            engine_time=i * 7,
        )
        for i in range(n)
    ]


class TestRoundTrip:
    def test_rows_and_meta_survive(self, tmp_path):
        path = tmp_path / "a.seg"
        rows = sample_rows(25)
        assert write_segment(path, META, rows, block_rows=8) == 25
        assert read_segment_meta(path) == META
        assert list(iter_segment(path)) == rows

    def test_empty_segment_is_valid(self, tmp_path):
        path = tmp_path / "empty.seg"
        assert write_segment(path, META, []) == 0
        reader = SegmentReader(path)
        assert reader.rows == 0
        assert list(reader.observations()) == []
        assert reader.lookup(ipaddress.ip_address("10.1.0.1")) is None

    def test_ipv6_and_malformed_rows(self, tmp_path):
        path = tmp_path / "v6.seg"
        rows = [
            make_obs("2001:db8::1", 10.0, make_engine(1)),
            make_obs("2001:db8::2", 11.0, None),
        ]
        write_segment(path, META, rows)
        assert list(iter_segment(path)) == rows

    def test_block_chunking_invisible_to_readers(self, tmp_path):
        rows = sample_rows(30)
        small, large = tmp_path / "s.seg", tmp_path / "l.seg"
        write_segment(small, META, rows, block_rows=4)
        write_segment(large, META, rows, block_rows=1000)
        assert list(iter_segment(small)) == list(iter_segment(large))
        assert len(SegmentReader(small).blocks) == 8
        assert len(SegmentReader(large).blocks) == 1

    def test_deterministic_bytes(self, tmp_path):
        rows = sample_rows(17)
        p1, p2 = tmp_path / "1.seg", tmp_path / "2.seg"
        write_segment(p1, META, rows, block_rows=5)
        write_segment(p2, META, iter(rows), block_rows=5)
        assert p1.read_bytes() == p2.read_bytes()
        assert segment_fingerprint([p1]) == segment_fingerprint([p2])


class TestFooterIndex:
    def test_lookup_prunes_blocks(self, tmp_path):
        path = tmp_path / "a.seg"
        rows = sample_rows(40)
        write_segment(path, META, rows, block_rows=10)
        reader = SegmentReader(path)
        for row in rows:
            assert reader.lookup(row.address) == row
        assert reader.lookup(ipaddress.ip_address("203.0.113.1")) is None

    def test_footer_ranges_cover_blocks(self, tmp_path):
        path = tmp_path / "a.seg"
        write_segment(path, META, sample_rows(23), block_rows=10)
        reader = SegmentReader(path)
        assert [b.rows for b in reader.blocks] == [10, 10, 3]
        for block in reader.blocks:
            decoded = reader.read_block(block)
            addresses = [int(o.address) for o in decoded]
            assert block.min_address == min(addresses)
            assert block.max_address == max(addresses)


class TestPointLookup:
    def test_lookup_builds_at_most_one_row(self, tmp_path, monkeypatch):
        """Rows in probe order: every block's footer range spans the
        family, so nothing is pruned, yet one lookup builds one row."""
        path = tmp_path / "a.seg"
        rows = sample_rows(40)
        random.Random(3).shuffle(rows)
        write_segment(path, META, rows, block_rows=10)
        reader = SegmentReader(path)
        assert len(reader.blocks) == 4
        assert sum(
            all(block.may_contain(row.address) for block in reader.blocks)
            for row in rows
        ) >= 20
        built = []
        real = wire.ScanObservation

        def counting(*args, **kwargs):
            built.append(kwargs.get("address"))
            return real(*args, **kwargs)

        monkeypatch.setattr(wire, "ScanObservation", counting)
        for row in rows:
            built.clear()
            assert reader.lookup(row.address) == row
            assert len(built) <= 1
        built.clear()
        assert reader.lookup(ipaddress.ip_address("10.1.0.200")) is None
        assert built == []

    def test_corrupt_candidate_block_still_raises(self, tmp_path):
        """The point decoder validates each block it reads in full."""
        path = tmp_path / "a.seg"
        rows = sample_rows(21)
        absent = rows.pop(15).address  # inside the last block's range
        write_segment(path, META, rows, block_rows=10)
        reader = SegmentReader(path)
        last = reader.blocks[-1]
        data = bytearray(path.read_bytes())
        data[last.offset] = 99  # the wire version byte of the last block
        path.write_bytes(bytes(data))
        reader = SegmentReader(path)
        assert reader.lookup(ipaddress.ip_address("10.1.0.1")) is not None
        with pytest.raises(WireFormatError):
            reader.lookup(absent)


class TestCorruption:
    def test_not_a_segment(self, tmp_path):
        path = tmp_path / "junk.seg"
        path.write_bytes(b"not a segment at all")
        with pytest.raises(SegmentError):
            SegmentReader(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v.seg"
        write_segment(path, META, sample_rows(3))
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(SegmentError):
            SegmentReader(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "t.seg"
        write_segment(path, META, sample_rows(6))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(SegmentError):
            SegmentReader(path)

    def test_bad_end_magic(self, tmp_path):
        path = tmp_path / "m.seg"
        write_segment(path, META, sample_rows(3))
        data = bytearray(path.read_bytes())
        data[-4:] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(SegmentError):
            SegmentReader(path)

    def test_footer_overrun(self, tmp_path):
        path = tmp_path / "f.seg"
        write_segment(path, META, sample_rows(3))
        data = bytearray(path.read_bytes())
        # Claim a footer longer than the file.
        data[-8:-4] = struct.pack("<I", 1 << 20)
        path.write_bytes(bytes(data))
        with pytest.raises(SegmentError):
            SegmentReader(path)

    def test_bad_meta_is_a_segment_error_naming_the_file(self, tmp_path):
        path = tmp_path / "meta.seg"
        write_segment(path, META, sample_rows(3))
        data = bytearray(path.read_bytes())
        data[data.index(b'"label"')] = ord("X")  # the meta is no longer JSON
        path.write_bytes(bytes(data))
        with pytest.raises(SegmentError, match="meta.seg: bad meta"):
            SegmentReader(path)

    def test_bad_block_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_segment(tmp_path / "x.seg", META, [], block_rows=0)
