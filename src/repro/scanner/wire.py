"""Compact columnar IPC format for scan observations.

The worker→parent boundary of the parallel executor used to pickle every
:class:`~repro.scanner.records.ScanObservation` dataclass individually,
which made the fork-pool path *slower* than serial — per-instance pickle
overhead dwarfed the probe loop itself.  This module packs a batch of
observations into one struct-packed byte blob instead:

* a one-byte **flags** column (address family, engine-ID presence),
* a packed big-endian **address** column (4 or 16 bytes per row),
* a ``float64`` **receive-time** column (exact round-trip),
* four **adaptive-width integer** columns (boots, time, response count,
  wire bytes) — each column picks the narrowest of ``int8/16/32/64``
  that holds its min/max, with a length-prefixed bigint escape for the
  arbitrary-size integers corrupted BER can legitimately decode to,
* a length-prefixed **engine-ID** column for parsed rows.

Encoding is lossless and order-preserving: ``decode_observations(
encode_observations(batch)) == batch`` for every observation the scan
path can produce (property-tested in ``tests/scanner/test_wire.py``).
A typical discovery batch shrinks well over 3x versus per-instance
pickling — measured by ``benchmarks/test_bench_parallel.py``.

Four decoders share one frame parser, which validates the whole blob
and locates its columns before any row is built, so all four reject
exactly the same blobs:

* :func:`count_observations` returns the row count of the validated
  frame and builds nothing (the store's ``integrity`` audit);
* :func:`decode_columns` returns one sequence per field — addresses,
  receive times, raw engine-ID bytes, boots, engine times, response
  counts, wire bytes — without building a row object (the store's
  index and timeline folds);
* :func:`decode_observations` materialises every row as a
  :class:`~repro.scanner.records.ScanObservation`, zipped from
  :func:`decode_columns`;
* the point decoder :func:`find_observation`, which serves the store's
  ``history`` lookups, searches the raw address column for one key and
  materialises only the matching row.  For any blob and address it
  answers like decoding everything and keeping the first row at that
  address.

Integer width codes other than ``b``/``h``/``i``/``q`` and the bigint
escape are rejected, not passed to :mod:`struct`.

Blobs are a pure function of observation content and batch boundaries —
both of which the staged batch pipeline reproduces exactly (executor
``batch_size`` chunking is independent of the probe-loop shape) — so
pipeline on/off, any worker count and any window size all put identical
bytes on the wire.  The persistent store leans on the same property for
its segment determinism.
"""

from __future__ import annotations

import ipaddress
import struct
from bisect import bisect_left
from itertools import accumulate, islice
from typing import NamedTuple, Sequence

from repro.net.addresses import IPAddress
from repro.scanner.records import ScanObservation
from repro.snmp.engine_id import EngineId

#: Format version byte, bumped on any incompatible layout change.
WIRE_VERSION = 1

_FLAG_V6 = 0x01
_FLAG_PARSED = 0x02

#: Narrowest-first struct codes for the adaptive integer columns.
_INT_CODES: tuple[tuple[str, int, int], ...] = (
    ("b", -(1 << 7), (1 << 7) - 1),
    ("h", -(1 << 15), (1 << 15) - 1),
    ("i", -(1 << 31), (1 << 31) - 1),
    ("q", -(1 << 63), (1 << 63) - 1),
)
#: Column code for the length-prefixed bigint fallback.
_BIGINT = 0xFF
#: Width-code byte -> item size of that fixed-width integer column; 0
#: marks a byte that is no fixed-width code.
_INT_SIZES = bytes(
    struct.calcsize("<" + chr(byte)) if chr(byte) in {code for code, __, __ in _INT_CODES} else 0
    for byte in range(256)
)
#: Flag byte -> its IPv6 bit, its parsed bit, its row's address width;
#: tables for ``bytes.translate`` so whole columns are counted in C.
_V6_BIT = bytes(flag & _FLAG_V6 for flag in range(256))
_PARSED_BIT = bytes(flag & _FLAG_PARSED for flag in range(256))
_ADDRESS_WIDTH = bytes(16 if flag & _FLAG_V6 else 4 for flag in range(256))

_HEADER = struct.Struct("<BI")
_U16 = struct.Struct("<H")
_F64 = struct.Struct("<d")


class WireFormatError(ValueError):
    """Raised when a blob is not a valid observation batch."""


def _encode_int_column(values: "list[int]") -> bytes:
    """One column: a width-code byte followed by the packed values."""
    if values:
        lo, hi = min(values), max(values)
        for code, cmin, cmax in _INT_CODES:
            if cmin <= lo and hi <= cmax:
                return bytes([ord(code)]) + struct.pack(
                    f"<{len(values)}{code}", *values
                )
    # Arbitrary-precision escape: corrupted-but-parseable BER replies can
    # decode to integers wider than 64 bits, and they must round-trip.
    parts = [bytes([_BIGINT])]
    for value in values:
        if value >= 0:
            width = value.bit_length() // 8 + 1
        else:
            width = (value + 1).bit_length() // 8 + 1
        parts.append(_U16.pack(width))
        parts.append(value.to_bytes(width, "big", signed=True))
    return b"".join(parts)


def encode_observations(observations: "Sequence[ScanObservation]") -> bytes:
    """Pack a batch of observations into one columnar blob."""
    count = len(observations)
    flags = bytearray(count)
    addresses = bytearray()
    boots: "list[int]" = []
    times: "list[int]" = []
    responses: "list[int]" = []
    wire_bytes: "list[int]" = []
    engine_ids = bytearray()
    for row, obs in enumerate(observations):
        flag = 0
        if obs.address.version == 6:
            flag |= _FLAG_V6
            addresses += int(obs.address).to_bytes(16, "big")
        else:
            addresses += int(obs.address).to_bytes(4, "big")
        if obs.engine_id is not None:
            flag |= _FLAG_PARSED
            raw = obs.engine_id.raw
            engine_ids += _U16.pack(len(raw))
            engine_ids += raw
        flags[row] = flag
        boots.append(obs.engine_boots)
        times.append(obs.engine_time)
        responses.append(obs.response_count)
        wire_bytes.append(obs.wire_bytes)
    return b"".join(
        (
            _HEADER.pack(WIRE_VERSION, count),
            bytes(flags),
            bytes(addresses),
            struct.pack(f"<{count}d", *(obs.recv_time for obs in observations)),
            _encode_int_column(boots),
            _encode_int_column(times),
            _encode_int_column(responses),
            _encode_int_column(wire_bytes),
            bytes(engine_ids),
        )
    )


class _IntColumn(NamedTuple):
    """One validated integer column: fixed-width, or decoded bigints."""

    #: ``struct`` code of a fixed-width column; empty for the bigint escape.
    code: str
    #: Offset of the column's first value.
    offset: int
    #: Every value of a bigint column (the frame walk decodes them).
    bigints: "tuple[int, ...]"

    def values(self, blob: bytes, count: int) -> "Sequence[int]":
        if not self.code:
            return self.bigints
        return struct.unpack_from(f"<{count}{self.code}", blob, self.offset)

    def value(self, blob: bytes, row: int) -> int:
        if not self.code:
            return self.bigints[row]
        fmt = "<" + self.code
        return struct.unpack_from(fmt, blob, self.offset + row * struct.calcsize(fmt))[0]


class _Frame(NamedTuple):
    """Where the columns of one validated blob live."""

    count: int
    flags: bytes
    #: How many rows are IPv6.
    v6_rows: int
    #: Offset of each row's address, in row order.
    addresses: "Sequence[int]"
    #: Offset of the receive-time column, which ends the address column.
    times: int
    #: Boots, engine time, response count, wire bytes.
    ints: "tuple[_IntColumn, ...]"
    #: Offset of each parsed row's engine-ID length prefix, then the blob
    #: end: engine ID ``k`` is ``blob[ids[k] + 2 : ids[k + 1]]``.
    engine_ids: "list[int]"


def _int_column(blob: bytes, offset: int, count: int) -> "tuple[_IntColumn, int]":
    """Validate the integer column at ``offset``; returns it and its end."""
    if offset >= len(blob):
        raise WireFormatError("truncated integer column")
    code = blob[offset]
    offset += 1
    if code == _BIGINT:
        start = offset
        values: "list[int]" = []
        for __ in range(count):
            if offset + 2 > len(blob):
                raise WireFormatError("truncated bigint length")
            (width,) = _U16.unpack_from(blob, offset)
            offset += 2
            if offset + width > len(blob):
                raise WireFormatError("truncated bigint body")
            values.append(int.from_bytes(blob[offset : offset + width], "big", signed=True))
            offset += width
        return _IntColumn("", start, tuple(values)), offset
    size = _INT_SIZES[code]
    if not size:
        raise WireFormatError(f"unknown integer width code {code:#04x}")
    end = offset + size * count
    if end > len(blob):
        raise WireFormatError("truncated integer column body")
    return _IntColumn(chr(code), offset, ()), end


def _parse_frame(blob: bytes) -> _Frame:
    """Validate a whole blob and locate its columns, decoding no row.

    The one column walk behind all four decoders: every check that can
    reject a blob happens here, so they all reject exactly the same
    blobs.  Only the variable-width columns (bigints, engine IDs) are
    walked row by row.
    """
    if len(blob) < _HEADER.size:
        raise WireFormatError("truncated batch header")
    version, count = _HEADER.unpack_from(blob, 0)
    if version != WIRE_VERSION:
        raise WireFormatError(f"unsupported wire version {version}")
    offset = _HEADER.size
    flags = blob[offset : offset + count]
    if len(flags) != count:
        raise WireFormatError("truncated flags column")
    offset += count
    v6_rows = flags.translate(_V6_BIT).count(_FLAG_V6)
    addresses: "Sequence[int]"
    if v6_rows in (0, count):
        width = 16 if v6_rows else 4
        addresses = range(offset, offset + width * count, width)
    else:
        addresses = list(accumulate(flags[:-1].translate(_ADDRESS_WIDTH), initial=offset))
    offset += 4 * count + 12 * v6_rows
    if offset > len(blob):
        raise WireFormatError("truncated address column")
    times = offset
    offset += 8 * count
    if offset > len(blob):
        raise WireFormatError("truncated receive-time column")
    ints = []
    for __ in range(4):
        column, offset = _int_column(blob, offset, count)
        ints.append(column)
    engine_ids = [offset]
    append = engine_ids.append
    try:
        for __ in range(flags.translate(_PARSED_BIT).count(_FLAG_PARSED)):
            offset += 2 + blob[offset] + (blob[offset + 1] << 8)
            append(offset)
    except IndexError:
        raise WireFormatError("truncated engine-ID column") from None
    if offset > len(blob):
        raise WireFormatError("truncated engine-ID body")
    if offset != len(blob):
        raise WireFormatError("trailing bytes after observation batch")
    return _Frame(count, flags, v6_rows, addresses, times, tuple(ints), engine_ids)


class ObservationColumns(NamedTuple):
    """One blob's rows as one sequence per field, each in row order.

    Row ``i`` of every field holds what ``decode_observations(blob)[i]``
    holds in the field of the same name, except that ``engine_ids``
    carries the raw engine-ID bytes (``None`` for an unparsed row), not
    an :class:`~repro.snmp.engine_id.EngineId`.  The field order is
    :class:`~repro.scanner.records.ScanObservation`'s.
    """

    addresses: "Sequence[ipaddress.IPv4Address | ipaddress.IPv6Address]"
    recv_times: "Sequence[float]"
    engine_ids: "Sequence[bytes | None]"
    engine_boots: "Sequence[int]"
    engine_times: "Sequence[int]"
    response_counts: "Sequence[int]"
    wire_bytes: "Sequence[int]"


def count_observations(blob: bytes) -> int:
    """The row count of ``blob``, validated in full; no row is built.

    Raises :class:`WireFormatError` on exactly the blobs
    :func:`decode_observations` rejects.
    """
    return _parse_frame(blob).count


def decode_columns(blob: bytes) -> ObservationColumns:
    """Unpack a columnar blob into per-field columns, building no row."""
    frame = _parse_frame(blob)
    count, flags = frame.count, frame.flags
    addresses: "list[ipaddress.IPv4Address | ipaddress.IPv6Address]"
    if count and not frame.v6_rows:
        # All-IPv4 (every store block of that family): one C-level unpack.
        addresses = list(
            map(ipaddress.IPv4Address, struct.unpack_from(f">{count}I", blob, frame.addresses[0]))
        )
    else:
        addresses = [
            ipaddress.IPv6Address(blob[start : start + 16])
            if flag & _FLAG_V6
            else ipaddress.IPv4Address(blob[start : start + 4])
            for flag, start in zip(flags, frame.addresses)
        ]
    ids = frame.engine_ids
    raws: "list[bytes | None]" = [
        blob[start + 2 : end] for start, end in zip(ids, islice(ids, 1, None))
    ]
    if len(raws) != count:
        parsed = iter(raws)
        raws = [next(parsed) if flag & _FLAG_PARSED else None for flag in flags]
    boots, etimes, responses, wire_bytes = (
        column.values(blob, count) for column in frame.ints
    )
    return ObservationColumns(
        addresses,
        struct.unpack_from(f"<{count}d", blob, frame.times),
        raws,
        boots,
        etimes,
        responses,
        wire_bytes,
    )


def decode_observations(blob: bytes) -> "list[ScanObservation]":
    """Unpack a columnar blob back into observation records."""
    return [
        ScanObservation(
            address,
            recv_time,
            None if raw is None else EngineId(raw),
            boots,
            etime,
            responses,
            size,
        )
        for address, recv_time, raw, boots, etime, responses, size in zip(
            *decode_columns(blob)
        )
    ]


def find_observation(blob: bytes, address: IPAddress) -> "ScanObservation | None":
    """The first row of ``blob`` at ``address``, or ``None``; one row decoded.

    Equal to the first ``o`` in ``decode_observations(blob)`` with
    ``o.address == address``, and raises :class:`WireFormatError` on
    exactly the blobs that :func:`decode_observations` rejects (both
    validate through :func:`_parse_frame`).  The key is searched in the
    raw address column and a hit counts only at a row start of the
    key's family, so an IPv4 key never matches inside an IPv6 row or
    across two rows.  Only the matching row is materialised.
    """
    frame = _parse_frame(blob)
    if getattr(address, "scope_id", None) is not None:
        return None  # decoded rows carry no IPv6 scope, so none equals the key
    key = address.packed
    family = _FLAG_V6 if address.version == 6 else 0
    starts = frame.addresses
    hit = blob.find(key, _HEADER.size + frame.count, frame.times)
    while hit != -1:
        row = bisect_left(starts, hit)
        if row < frame.count and starts[row] == hit and frame.flags[row] & _FLAG_V6 == family:
            return _decode_row(blob, frame, row)
        hit = blob.find(key, hit + 1, frame.times)
    return None


def _decode_row(blob: bytes, frame: _Frame, row: int) -> ScanObservation:
    flag = frame.flags[row]
    start = frame.addresses[row]
    address: "ipaddress.IPv4Address | ipaddress.IPv6Address"
    if flag & _FLAG_V6:
        address = ipaddress.IPv6Address(blob[start : start + 16])
    else:
        address = ipaddress.IPv4Address(blob[start : start + 4])
    engine_id = None
    if flag & _FLAG_PARSED:
        ids = frame.engine_ids
        parsed = frame.flags[:row].translate(_PARSED_BIT).count(_FLAG_PARSED)
        engine_id = EngineId(blob[ids[parsed] + 2 : ids[parsed + 1]])
    boots, etime, responses, wire_bytes = (column.value(blob, row) for column in frame.ints)
    (recv_time,) = _F64.unpack_from(blob, frame.times + 8 * row)
    return ScanObservation(
        address=address,
        recv_time=recv_time,
        engine_id=engine_id,
        engine_boots=boots,
        engine_time=etime,
        response_count=responses,
        wire_bytes=wire_bytes,
    )


__all__ = [
    "WIRE_VERSION",
    "ObservationColumns",
    "WireFormatError",
    "count_observations",
    "decode_columns",
    "decode_observations",
    "encode_observations",
    "find_observation",
]
