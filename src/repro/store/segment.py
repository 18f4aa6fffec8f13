"""On-disk segment files — the store's append-only unit of persistence.

A segment holds the observations of one scan (one ``(round, label)``
pair, possibly split across several *parts* while ingesting) in the
exact columnar encoding of :mod:`repro.scanner.wire`, framed so a reader
can prune without decoding:

* a 4-byte magic (``RSEG``) and a format-version byte;
* a length-prefixed canonical-JSON **meta** object (round, label,
  address family, virtual schedule, part number);
* a sequence of length-prefixed **blocks**, each a
  :func:`repro.scanner.wire.encode_observations` blob over a fixed
  number of rows (the writer re-chunks incoming batches, so segment
  bytes never depend on how the executor happened to batch);
* a compact struct-packed **footer index** — one entry per block with
  its file offset, byte length, row count and min/max address — plus a
  trailing footer length and end magic so the index is reachable from
  the end of the file without scanning.

Segments are immutable once written: the store never appends to or
rewrites an existing segment file, it only writes new ones (ingest
parts, compaction outputs) and drops obsolete ones from the manifest.
Everything is deterministic — canonical JSON, fixed chunking, no
wall-clock — so one campaign at one seed produces byte-identical
segments at any worker count.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from repro.net.addresses import IPAddress
from repro.scanner.records import ScanObservation
from repro.scanner.wire import (
    ObservationColumns,
    WireFormatError,
    count_observations,
    decode_columns,
    decode_observations,
    encode_observations,
    find_observation,
)

_T = TypeVar("_T")

#: Segment format version, bumped on any incompatible layout change.
SEGMENT_VERSION = 1

#: Rows per columnar block; the writer re-chunks input to this size so
#: segment bytes are independent of executor batch boundaries.
DEFAULT_BLOCK_ROWS = 2048

MAGIC = b"RSEG"
END_MAGIC = b"GESR"

_U32 = struct.Struct("<I")
#: Footer entry: block offset, blob length, row count, min/max address
#: (16-byte big-endian, IPv4 left-padded) — fixed width for seekability.
_FOOTER_ENTRY = struct.Struct("<QII16s16s")
_TRAILER = struct.Struct("<I4s")


class SegmentError(ValueError):
    """Raised when a file is not a valid store segment."""


@dataclass(frozen=True)
class SegmentMeta:
    """Self-description stamped into every segment.

    Scan-level totals (``finished_at``, ``targets_probed``) live in the
    store manifest, not here: a streamed ingest writes its first part
    before those totals exist, and segment bytes must not depend on the
    ingest path taken.
    """

    round_id: int
    label: str
    ip_version: int
    started_at: float
    part: int = 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "round": self.round_id,
                "label": self.label,
                "ip_version": self.ip_version,
                "started_at": self.started_at,
                "part": self.part,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "SegmentMeta":
        row = json.loads(text)
        return cls(
            round_id=row["round"],
            label=row["label"],
            ip_version=row["ip_version"],
            started_at=row["started_at"],
            part=row["part"],
        )


@dataclass(frozen=True)
class BlockInfo:
    """One footer-index entry: where a block lives and what it spans."""

    offset: int
    length: int
    rows: int
    min_address: int
    max_address: int

    def may_contain(self, address: IPAddress) -> bool:
        return self.min_address <= int(address) <= self.max_address


def _chunk(
    observations: Iterable[ScanObservation], block_rows: int
) -> Iterator[list[ScanObservation]]:
    block: list[ScanObservation] = []
    for observation in observations:
        block.append(observation)
        if len(block) >= block_rows:
            yield block
            block = []
    if block:
        yield block


def write_segment(
    path: "str | Path",
    meta: SegmentMeta,
    observations: Iterable[ScanObservation],
    *,
    block_rows: int = DEFAULT_BLOCK_ROWS,
) -> int:
    """Write one segment file; returns the number of rows written.

    The caller owns deduplication and ordering — the writer persists
    exactly what it is handed, re-chunked to ``block_rows`` rows per
    block.  An empty observation stream still produces a valid (zero
    block) segment so a scan with no responders stays recorded.
    """
    if block_rows < 1:
        raise ValueError(f"block_rows must be positive, got {block_rows}")
    path = Path(path)
    meta_bytes = meta.to_json().encode("utf-8")
    entries: list[BlockInfo] = []
    rows_written = 0
    with path.open("wb") as handle:
        handle.write(MAGIC)
        handle.write(bytes([SEGMENT_VERSION]))
        handle.write(_U32.pack(len(meta_bytes)))
        handle.write(meta_bytes)
        offset = len(MAGIC) + 1 + _U32.size + len(meta_bytes)
        for block in _chunk(observations, block_rows):
            blob = encode_observations(block)
            handle.write(_U32.pack(len(blob)))
            handle.write(blob)
            addresses = [int(o.address) for o in block]
            entries.append(
                BlockInfo(
                    offset=offset + _U32.size,
                    length=len(blob),
                    rows=len(block),
                    min_address=min(addresses),
                    max_address=max(addresses),
                )
            )
            offset += _U32.size + len(blob)
            rows_written += len(block)
        footer = bytearray(_U32.pack(len(entries)))
        for entry in entries:
            footer += _FOOTER_ENTRY.pack(
                entry.offset,
                entry.length,
                entry.rows,
                entry.min_address.to_bytes(16, "big"),
                entry.max_address.to_bytes(16, "big"),
            )
        handle.write(footer)
        handle.write(_TRAILER.pack(len(footer), END_MAGIC))
    return rows_written


class SegmentReader:
    """Random- and sequential-access view over one segment file.

    The constructor reads only the head (meta) and the footer index;
    block bytes are fetched on demand.  A point lookup reads the blocks
    whose footer address range covers the key — with rows in probe
    order, that is every block of the key's family — and validates each
    in full, but builds only the matching row.
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        with self.path.open("rb") as handle:
            head = handle.read(len(MAGIC) + 1 + _U32.size)
            if len(head) < len(MAGIC) + 1 + _U32.size or head[: len(MAGIC)] != MAGIC:
                raise self._error("not a store segment")
            version = head[len(MAGIC)]
            if version != SEGMENT_VERSION:
                raise self._error(f"unsupported version {version}")
            (meta_len,) = _U32.unpack_from(head, len(MAGIC) + 1)
            meta_bytes = handle.read(meta_len)
            if len(meta_bytes) != meta_len:
                raise self._error("truncated meta")
            try:
                self.meta = SegmentMeta.from_json(meta_bytes.decode("utf-8"))
            except (ValueError, KeyError, TypeError) as error:
                raise self._error(f"bad meta ({error!r})") from error
            handle.seek(0, 2)
            size = handle.tell()
            if size < _TRAILER.size:
                raise self._error("too short for trailer")
            handle.seek(size - _TRAILER.size)
            footer_len, end_magic = _TRAILER.unpack(handle.read(_TRAILER.size))
            if end_magic != END_MAGIC:
                raise self._error("bad end magic")
            footer_start = size - _TRAILER.size - footer_len
            if footer_start < 0:
                raise self._error("footer overruns file")
            handle.seek(footer_start)
            footer = handle.read(footer_len)
        if len(footer) < _U32.size:
            raise self._error("truncated footer")
        (count,) = _U32.unpack_from(footer, 0)
        expected = _U32.size + count * _FOOTER_ENTRY.size
        if len(footer) != expected:
            raise self._error("footer length mismatch")
        self.blocks: list[BlockInfo] = []
        for index in range(count):
            offset, length, rows, lo, hi = _FOOTER_ENTRY.unpack_from(
                footer, _U32.size + index * _FOOTER_ENTRY.size
            )
            self.blocks.append(
                BlockInfo(
                    offset=offset,
                    length=length,
                    rows=rows,
                    min_address=int.from_bytes(lo, "big"),
                    max_address=int.from_bytes(hi, "big"),
                )
            )

    @property
    def rows(self) -> int:
        return sum(block.rows for block in self.blocks)

    def _decoded(
        self, blocks: "Sequence[BlockInfo]", decode: "Callable[[bytes], _T]"
    ) -> Iterator[_T]:
        """``decode`` applied to the blob of each of ``blocks``, in order.

        The blobs are read through one file handle.  A short read is a
        :class:`SegmentError` and a malformed blob a
        :class:`~repro.scanner.wire.WireFormatError`; either names this
        file and the block's index in it.
        """
        with self.path.open("rb") as handle:
            for block in blocks:
                handle.seek(block.offset)
                blob = handle.read(block.length)
                if len(blob) != block.length:
                    raise self._error("truncated block", block)
                try:
                    value = decode(blob)
                except WireFormatError as error:
                    raise WireFormatError(self._where(block, str(error))) from error
                yield value

    def _where(self, block: "BlockInfo | None", why: str) -> str:
        """``why``, prefixed with this file's name and ``block``'s index."""
        where = f"segment {self.path.name}"
        if block is not None:
            where += f" block {self.blocks.index(block)}"
        return f"{where}: {why}"

    def _error(self, why: str, block: "BlockInfo | None" = None) -> SegmentError:
        return SegmentError(self._where(block, why))

    def read_block(self, block: BlockInfo) -> list[ScanObservation]:
        (rows,) = self._decoded((block,), decode_observations)
        return rows

    def observations(self) -> Iterator[ScanObservation]:
        """All rows in block order, decoded one block at a time."""
        for rows in self._decoded(self.blocks, decode_observations):
            yield from rows

    def columns(self) -> Iterator[ObservationColumns]:
        """Each block's rows as columns, in block order; no row is built."""
        return self._decoded(self.blocks, decode_columns)

    def count_rows(self) -> int:
        """Rows counted from each block's validated frame; no row is built.

        Reads and validates every block like :meth:`observations`, so it
        raises on the same corruptions, but only sums the frame counts.
        """
        return sum(self._decoded(self.blocks, count_observations))

    def lookup(self, address: IPAddress) -> "ScanObservation | None":
        """The first row at ``address``, or ``None``; builds at most one row.

        Blocks whose footer range excludes the key are skipped unread.
        Each other block is validated in full and searched in its raw
        address column (:func:`repro.scanner.wire.find_observation`), so
        a corrupt block still raises although only the match is built.
        """
        candidates = [block for block in self.blocks if block.may_contain(address)]
        if not candidates:
            return None  # every block pruned: the file is not even opened
        for found in self._decoded(
            candidates, lambda blob: find_observation(blob, address)
        ):
            if found is not None:
                return found
        return None


def read_segment_meta(path: "str | Path") -> SegmentMeta:
    """Read just the meta header of a segment."""
    return SegmentReader(path).meta


def iter_segment(path: "str | Path") -> Iterator[ScanObservation]:
    """Stream every observation of a segment in storage order."""
    return SegmentReader(path).observations()


def segment_fingerprint(paths: "Sequence[str | Path]") -> bytes:
    """Order-sensitive digest over raw segment bytes (determinism tests)."""
    import hashlib

    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.digest()


__all__ = [
    "DEFAULT_BLOCK_ROWS",
    "SEGMENT_VERSION",
    "BlockInfo",
    "SegmentError",
    "SegmentMeta",
    "SegmentReader",
    "iter_segment",
    "read_segment_meta",
    "segment_fingerprint",
    "write_segment",
]
