"""Round-trip tests for the columnar IPC observation format."""

import dataclasses
import ipaddress
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.scanner.records import ScanObservation
from repro.scanner.wire import (
    WIRE_VERSION,
    WireFormatError,
    count_observations,
    decode_columns,
    decode_observations,
    encode_observations,
    find_observation,
)
from repro.snmp.engine_id import EngineId


def _obs(
    address="192.0.2.1",
    recv_time=1234.5,
    engine_id=b"\x80\x00\x00\x09\x03\x00\x00\x0c\x01\x02\x03",
    engine_boots=1,
    engine_time=1000,
    response_count=1,
    wire_bytes=64,
):
    return ScanObservation(
        address=ipaddress.ip_address(address),
        recv_time=recv_time,
        engine_id=None if engine_id is None else EngineId(engine_id),
        engine_boots=engine_boots,
        engine_time=engine_time,
        response_count=response_count,
        wire_bytes=wire_bytes,
    )


def _random_obs(rng):
    if rng.random() < 0.5:
        address = str(ipaddress.IPv4Address(rng.getrandbits(32)))
    else:
        address = str(ipaddress.IPv6Address(rng.getrandbits(128)))
    parsed = rng.random() < 0.8
    engine_id = bytes(
        rng.getrandbits(8) for __ in range(rng.randint(0, 40))
    ) if parsed else None
    magnitude = rng.choice((1 << 6, 1 << 14, 1 << 30, 1 << 62, 1 << 100))
    return _obs(
        address=address,
        recv_time=rng.random() * 1e6,
        engine_id=engine_id,
        engine_boots=rng.randint(-magnitude, magnitude),
        engine_time=rng.randint(-magnitude, magnitude),
        response_count=rng.randint(1, 300),
        wire_bytes=rng.randint(0, 5000),
    )


class TestRoundTrip:
    def test_empty_batch(self):
        assert decode_observations(encode_observations([])) == []

    def test_single_observation(self):
        batch = [_obs()]
        assert decode_observations(encode_observations(batch)) == batch

    def test_mixed_families_and_unparsed(self):
        batch = [
            _obs(),
            _obs(address="2001:db8::1", engine_id=b"", engine_boots=0),
            _obs(address="198.51.100.7", engine_id=None, engine_time=-3),
            _obs(address="2001:db8::ffff", response_count=250, wire_bytes=65507),
        ]
        assert decode_observations(encode_observations(batch)) == batch

    def test_randomized_batches_round_trip(self):
        """Property test over the whole value space the scan can produce."""
        rng = random.Random(2021)
        for __ in range(50):
            batch = [_random_obs(rng) for __ in range(rng.randint(0, 40))]
            assert decode_observations(encode_observations(batch)) == batch

    def test_bigint_escape(self):
        """Corrupted-but-parseable BER can yield arbitrary-size integers."""
        batch = [
            _obs(engine_boots=1 << 200, engine_time=-(1 << 90)),
            _obs(engine_boots=-1, engine_time=0),
        ]
        assert decode_observations(encode_observations(batch)) == batch

    def test_adaptive_width_boundaries(self):
        for value in (127, 128, -128, -129, 32767, 32768, 2**31 - 1,
                      2**31, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1):
            batch = [_obs(engine_boots=value)]
            assert decode_observations(encode_observations(batch)) == batch

    def test_order_preserved(self):
        batch = [_obs(address=f"192.0.2.{i}") for i in range(1, 20)]
        assert decode_observations(encode_observations(batch)) == batch

    def test_compact_versus_per_instance_pickle(self):
        """The reason this module exists: well over 3x smaller."""
        rng = random.Random(7)
        batch = [_random_obs(rng) for __ in range(256)]
        blob = encode_observations(batch)
        pickled = sum(len(pickle.dumps(obs)) for obs in batch)
        assert len(blob) * 3 <= pickled


class TestMalformedBlobs:
    def test_truncated_header(self):
        with pytest.raises(WireFormatError):
            decode_observations(b"\x01")

    def test_unsupported_version(self):
        blob = bytearray(encode_observations([_obs()]))
        blob[0] = WIRE_VERSION + 1
        with pytest.raises(WireFormatError, match="version"):
            decode_observations(bytes(blob))

    @pytest.mark.parametrize("cut", [6, 9, 12, -10, -3, -1])
    def test_truncated_body(self, cut):
        blob = encode_observations([_obs(), _obs(address="2001:db8::9")])
        with pytest.raises(WireFormatError):
            decode_observations(blob[:cut])

    def test_trailing_bytes_rejected(self):
        blob = encode_observations([_obs()])
        with pytest.raises(WireFormatError, match="trailing"):
            decode_observations(blob + b"\x00")


#: Header bytes before the flags column: version byte + u32 row count.
HEADER = 5


def scan_for(rows, address):
    """The reference answer: decode everything, keep the first match."""
    return next((row for row in rows if row.address == address), None)


def same_row(found, expected):
    """Row equality that also holds for a NaN receive time (a flipped
    byte can make one, and ``nan != nan``): equal rows encode alike."""
    if found is None or expected is None:
        return found is expected
    return encode_observations([found]) == encode_observations([expected])


def outcome(decoder, blob, *args):
    """``("ok", value)`` or ``("rejected", None)``; any other exception escapes."""
    try:
        return "ok", decoder(blob, *args)
    except WireFormatError:
        return "rejected", None


class TestIntegerWidthCodes:
    @pytest.mark.parametrize("column", range(4))
    def test_every_width_code_byte(self, column):
        """Only ``b``/``h``/``i``/``q`` and the bigint escape are codes;
        any other byte is a :class:`WireFormatError` in both decoders."""
        batch = [
            _obs(engine_boots=1, engine_time=2, response_count=3, wire_bytes=4),
            _obs(address="192.0.2.9", engine_boots=-5, engine_time=6,
                 response_count=7, wire_bytes=8),
        ]
        blob = encode_observations(batch)
        rows = len(batch)
        # Every integer column above is int8: a code byte + one byte a row.
        position = HEADER + rows + 4 * rows + 8 * rows + column * (1 + rows)
        assert blob[position] == ord("b")
        key = batch[1].address
        for code in range(256):
            bad = blob[:position] + bytes([code]) + blob[position + 1:]
            decoded = outcome(decode_observations, bad)
            found = outcome(find_observation, bad, key)
            if code not in b"bhiq\xff":
                assert decoded[0] == found[0] == "rejected", code
            elif decoded[0] == "ok":
                assert found[0] == "ok", code
                assert same_row(found[1], scan_for(decoded[1], key)), code
            else:
                assert found[0] == "rejected", code
        assert decode_observations(blob) == batch


class TestFindObservation:
    def test_every_row_is_found(self):
        rng = random.Random(11)
        batch = [_random_obs(rng) for __ in range(40)]
        blob = encode_observations(batch)
        for obs in batch:
            assert find_observation(blob, obs.address) == scan_for(batch, obs.address)
        assert find_observation(blob, ipaddress.ip_address("203.0.113.1")) is None

    def test_first_match_wins(self):
        batch = [
            _obs(address="192.0.2.1", engine_boots=1),
            _obs(address="192.0.2.1", engine_boots=2),
        ]
        assert find_observation(encode_observations(batch), batch[0].address) == batch[0]

    def test_ipv4_key_never_matches_inside_an_ipv6_row(self):
        """``::10.0.0.1`` holds 10.0.0.1 in its last four bytes and
        0.0.0.0 at its row start; neither is an IPv4 row."""
        batch = [
            _obs(address="::10.0.0.1"),
            _obs(address="198.51.100.1", engine_id=None),
        ]
        blob = encode_observations(batch)
        for key in ("10.0.0.1", "0.0.0.0"):
            assert find_observation(blob, ipaddress.ip_address(key)) is None
        assert find_observation(blob, ipaddress.ip_address("::10.0.0.1")) == batch[0]
        tail = batch + [_obs(address="10.0.0.1", engine_boots=9)]
        assert find_observation(
            encode_observations(tail), ipaddress.ip_address("10.0.0.1")
        ) == tail[2]

    def test_key_straddling_two_rows_is_no_match(self):
        batch = [_obs(address="1.2.3.4"), _obs(address="5.6.7.8")]
        blob = encode_observations(batch)
        assert find_observation(blob, ipaddress.ip_address("3.4.5.6")) is None

    def test_scoped_ipv6_key_matches_no_decoded_row(self):
        batch = [_obs(address="fe80::1")]
        blob = encode_observations(batch)
        scoped = ipaddress.ip_address("fe80::1%eth0")
        assert scan_for(decode_observations(blob), scoped) is None
        assert find_observation(blob, scoped) is None

    def test_malformed_blobs_rejected(self):
        blob = encode_observations([_obs(), _obs(address="2001:db8::9")])
        key = ipaddress.ip_address("192.0.2.1")
        for bad in (b"\x01", blob[:-1], blob + b"\x00"):
            with pytest.raises(WireFormatError):
                find_observation(bad, key)


# -- point decoder properties ----------------------------------------------------

_V4 = st.integers(0, 2**32 - 1).map(ipaddress.IPv4Address)
#: Half the IPv6 draws fit in 32 bits, so their rows embed IPv4 keys.
_V6 = st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**128 - 1)).map(
    ipaddress.IPv6Address
)
_FAMILIES = {"mixed": st.one_of(_V4, _V6), "v4": _V4, "v6": _V6}
_INTS = st.one_of(
    st.integers(-(2**7), 2**7 - 1),
    st.integers(-(2**40), 2**40),
    st.integers(-(2**100), 2**100),  # the bigint escape
)


@st.composite
def batches(draw):
    """Like ``_random_obs`` batches: one family or both, or empty; parsed
    and unparsed rows; int8 up to bigint columns; repeated addresses."""
    family = _FAMILIES[draw(st.sampled_from(sorted(_FAMILIES)))]
    rows = draw(
        st.lists(
            st.builds(
                ScanObservation,
                address=family,
                recv_time=st.floats(allow_nan=False),
                engine_id=st.none() | st.binary(max_size=40).map(EngineId),
                engine_boots=_INTS,
                engine_time=_INTS,
                response_count=_INTS,
                wire_bytes=_INTS,
            ),
            max_size=12,
        )
    )
    pairs = st.tuples(st.integers(0, 11), st.integers(0, 11))
    for source, target in draw(st.lists(pairs, max_size=3)):
        if source < target < len(rows):
            rows[target] = dataclasses.replace(rows[target], address=rows[source].address)
    return rows


def cut_keys(blob, batch):
    """Every 4- and 16-byte window of the packed address column, at
    every offset: row starts of the other family, unaligned cuts and
    windows straddling two rows."""
    start = HEADER + len(batch)
    column = blob[start : start + sum(len(obs.address.packed) for obs in batch)]
    return [
        cls(column[offset : offset + width])
        for cls, width in ((ipaddress.IPv4Address, 4), (ipaddress.IPv6Address, 16))
        for offset in range(len(column) - width + 1)
    ]


@settings(max_examples=150, deadline=None)
@given(batch=batches(), absent=st.lists(st.one_of(_V4, _V6), max_size=4))
def test_point_decoder_equals_decode_then_scan(batch, absent):
    blob = encode_observations(batch)
    rows = decode_observations(blob)
    keys = [obs.address for obs in batch] + absent + cut_keys(blob, batch)
    for key in keys:
        assert find_observation(blob, key) == scan_for(rows, key), key


@settings(max_examples=60, deadline=None)
@given(batch=batches(), data=st.data())
def test_point_decoder_rejects_exactly_what_decode_rejects(batch, data):
    """Every truncation, one flip at every byte and one trailing byte:
    the point decoder raises iff ``decode_observations`` does, and on a
    blob both accept it still answers like decode-then-scan."""
    blob = encode_observations(batch)
    masks = data.draw(st.binary(min_size=len(blob), max_size=len(blob)))
    damaged = [blob[:cut] for cut in range(len(blob))]
    damaged += [
        blob[:at] + bytes([blob[at] ^ mask]) + blob[at + 1:]
        for at, mask in enumerate(masks)
        if mask
    ]
    damaged.append(blob + data.draw(st.binary(min_size=1, max_size=1)))
    keys = [obs.address for obs in batch[:2]] + [ipaddress.ip_address("192.0.2.1")]
    for bad in damaged:
        decoded = outcome(decode_observations, bad)
        for key in keys:
            found = outcome(find_observation, bad, key)
            if decoded[0] == "rejected":
                assert found[0] == "rejected", bad
            else:
                assert found[0] == "ok", bad
                assert same_row(found[1], scan_for(decoded[1], key)), bad


# -- column decoder and frame counter properties ---------------------------------


def rows_from_columns(columns):
    """Rebuild observations from :func:`decode_columns` output, field by field."""
    return [
        ScanObservation(
            address=address,
            recv_time=recv_time,
            engine_id=None if raw is None else EngineId(raw),
            engine_boots=boots,
            engine_time=etime,
            response_count=responses,
            wire_bytes=size,
        )
        for address, recv_time, raw, boots, etime, responses, size in zip(
            columns.addresses,
            columns.recv_times,
            columns.engine_ids,
            columns.engine_boots,
            columns.engine_times,
            columns.response_counts,
            columns.wire_bytes,
        )
    ]


def same_rows(got, expected):
    """List equality that also holds for NaN receive times (see ``same_row``)."""
    return len(got) == len(expected) and all(map(same_row, got, expected))


@settings(max_examples=150, deadline=None)
@given(batch=batches())
def test_columns_agree_field_for_field_with_rows(batch):
    blob = encode_observations(batch)
    columns = decode_columns(blob)
    assert {len(field) for field in columns} == {len(batch)}
    assert count_observations(blob) == len(batch)
    assert rows_from_columns(columns) == decode_observations(blob) == batch
    assert list(columns.engine_ids) == [
        None if obs.engine_id is None else obs.engine_id.raw for obs in batch
    ]


@settings(max_examples=60, deadline=None)
@given(batch=batches(), data=st.data())
def test_columns_and_count_reject_exactly_what_decode_rejects(batch, data):
    """Every truncation, one flip at every byte and one trailing byte:
    the column decoder and the frame counter raise iff
    ``decode_observations`` does, and on a blob all accept they agree
    with its rows."""
    blob = encode_observations(batch)
    masks = data.draw(st.binary(min_size=len(blob), max_size=len(blob)))
    damaged = [blob[:cut] for cut in range(len(blob))]
    damaged += [
        blob[:at] + bytes([blob[at] ^ mask]) + blob[at + 1:]
        for at, mask in enumerate(masks)
        if mask
    ]
    damaged.append(blob + data.draw(st.binary(min_size=1, max_size=1)))
    for bad in damaged:
        decoded = outcome(decode_observations, bad)
        columns = outcome(decode_columns, bad)
        counted = outcome(count_observations, bad)
        assert columns[0] == counted[0] == decoded[0], bad
        if decoded[0] == "ok":
            assert counted[1] == len(decoded[1]), bad
            assert same_rows(rows_from_columns(columns[1]), decoded[1]), bad
