"""The persistent scan observatory: rounds of scans on disk, queryable.

A :class:`Store` is a directory::

    store/
      MANIFEST.json          # format header + round/scan catalogue
      segments/
        r000001-v4-1-g000001-p0000.seg
        ...

Every scan of every ingested round lives in one or more immutable
:mod:`~repro.store.segment` files; ``MANIFEST.json`` (canonical JSON,
atomically replaced) names which segments currently back each scan and
carries the scan-level totals.  The design contract, enforced by the
tests in ``tests/store/``:

* **Append-only** — segment files are never modified after being
  written; ingest adds files, compaction swaps in merged replacements
  and only then drops the obsolete parts.
* **Deterministic** — one campaign config + seed yields byte-identical
  segments at any worker count and through either ingest path
  (materialized result or streamed batches); no wall-clock anywhere.
* **Compaction-invariant** — ``compact()`` merges the parts of each
  scan into one segment; bytes on disk change, no query or timeline
  answer does.

Longitudinal state (the :class:`~repro.store.timeline.TimelineAccumulator`)
and the secondary :class:`~repro.store.index.StoreIndex` are maintained
*incrementally*: each new round (timelines) or scan (index) is folded
once, at the first ``timelines()`` / ``index()`` call after its ingest,
without re-reading older rounds.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.net.addresses import IPAddress
from repro.scanner.records import ScanObservation, ScanResult
from repro.scanner.wire import ObservationColumns
from repro.store.index import StoreIndex
from repro.store.segment import (
    DEFAULT_BLOCK_ROWS,
    SegmentMeta,
    SegmentReader,
    write_segment,
)
from repro.store.timeline import (
    DEFAULT_REBOOT_THRESHOLD,
    TimelineAccumulator,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.scanner.campaign import CampaignResult, ScanStream
    from repro.store.query import StoreQuery

#: Store format version, stamped into the manifest.
STORE_VERSION = 1
STORE_FORMAT = "repro-store"

MANIFEST_NAME = "MANIFEST.json"
SEGMENT_DIR = "segments"

#: Rows per segment part during ingest; scans larger than this split
#: into multiple parts (which ``compact()`` later merges).
DEFAULT_SEGMENT_ROWS = 65536

#: Bounded re-reads of ``MANIFEST.json`` when a concurrent atomic swap
#: briefly hides or truncates it (filesystems without atomic rename).
MANIFEST_READ_ATTEMPTS = 8


class StoreError(ValueError):
    """Raised on invalid store state or misuse of the ingest contract."""


def _iter_chunks(
    observations: Iterable[ScanObservation], size: int
) -> "Iterator[list[ScanObservation]]":
    """Cut a flat observation iterable into lists of at most ``size``."""
    iterator = iter(observations)
    while True:
        chunk = list(islice(iterator, size))
        if not chunk:
            return
        yield chunk


@dataclass(frozen=True)
class StoredObservation:
    """An observation plus the round/scan coordinates it was stored under."""

    round_id: int
    label: str
    observation: ScanObservation


@dataclass(frozen=True)
class IngestStats:
    """What one scan ingest wrote."""

    round_id: int
    label: str
    rows: int
    segments: int
    bytes_written: int


@dataclass(frozen=True)
class CompactStats:
    """What one compaction pass did."""

    scans_compacted: int
    segments_before: int
    segments_after: int
    bytes_before: int
    bytes_after: int


class Store:
    """A persistent, append-only observatory of scan rounds.

    All constructor arguments are keyword-only (facade convention).
    ``root`` is created on first use; opening an existing directory
    validates its manifest.
    """

    def __init__(
        self,
        *,
        root: "str | Path",
        segment_rows: int = DEFAULT_SEGMENT_ROWS,
        block_rows: int = DEFAULT_BLOCK_ROWS,
        reboot_threshold: float = DEFAULT_REBOOT_THRESHOLD,
    ) -> None:
        if segment_rows < 1:
            raise StoreError(f"segment_rows must be positive, got {segment_rows}")
        self.root = Path(root)
        self.segment_rows = segment_rows
        self.block_rows = block_rows
        self.reboot_threshold = reboot_threshold
        self._segment_dir = self.root / SEGMENT_DIR
        self._segment_dir.mkdir(parents=True, exist_ok=True)
        self._manifest_path = self.root / MANIFEST_NAME
        if self._manifest_path.exists():
            self._manifest = self._load_manifest()
        else:
            fresh = {
                "format": STORE_FORMAT,
                "version": STORE_VERSION,
                "generation": 0,
                "rounds": {},
            }
            try:
                # Exclusive create: if another opener (or a swap window on
                # a filesystem without atomic rename) beat us to it, adopt
                # the existing manifest instead of clobbering it.
                with open(self._manifest_path, "x", encoding="utf-8") as f:
                    f.write(json.dumps(fresh, sort_keys=True, indent=2) + "\n")
                self._manifest = fresh
            except FileExistsError:
                self._manifest = self._load_manifest()
        self._readers: dict[str, SegmentReader] = {}
        self._timeline_acc: "TimelineAccumulator | None" = None
        self._index: "StoreIndex | None" = None

    @classmethod
    def open(cls, root: "str | Path") -> "Store":
        """Open an existing store (or create an empty one at ``root``)."""
        return cls(root=root)

    # -- manifest ----------------------------------------------------------

    def _load_manifest(self) -> dict:
        """Read and validate ``MANIFEST.json``, riding out swap windows.

        The manifest is replaced atomically (``os.replace``), so on POSIX
        a reader always sees a complete old or new file.  Filesystems
        without atomic rename can expose a brief ENOENT (or partial-read)
        window during the swap; a bounded retry absorbs it instead of
        failing a concurrent open/refresh.
        """
        last_error: "Exception | None" = None
        for attempt in range(MANIFEST_READ_ATTEMPTS):
            if attempt:
                time.sleep(0.001 * attempt)
            try:
                text = self._manifest_path.read_text(encoding="utf-8")
                manifest = json.loads(text)
            except (FileNotFoundError, json.JSONDecodeError) as error:
                last_error = error
                continue
            if manifest.get("format") != STORE_FORMAT:
                raise StoreError(f"{self.root} is not a repro store")
            if manifest.get("version") != STORE_VERSION:
                raise StoreError(
                    f"unsupported store version {manifest.get('version')}"
                )
            return manifest
        raise StoreError(
            f"manifest at {self._manifest_path} unreadable after "
            f"{MANIFEST_READ_ATTEMPTS} attempts"
        ) from last_error

    def _write_manifest(self) -> None:
        text = json.dumps(self._manifest, sort_keys=True, indent=2) + "\n"
        tmp = self._manifest_path.with_suffix(".json.tmp")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, self._manifest_path)

    def _next_generation(self) -> int:
        self._manifest["generation"] += 1
        return self._manifest["generation"]

    @property
    def generation(self) -> int:
        """Monotonic manifest generation; bumps on every ingest/compaction."""
        return int(self._manifest["generation"])

    def refresh(self) -> bool:
        """Re-read the manifest from disk, adopting concurrent writers.

        Returns ``True`` when the on-disk generation differs from the
        cached one.  On change, readers of segments no longer in the
        catalogue are dropped.  The caches survive as long as what they
        folded is still listed: the index unless one of its folded scans
        left the catalogue, the timeline accumulator unless an
        already-folded round's scan set changed.  Append-only stores only
        ever add rounds/labels, and compaction keeps every row, so
        recurring refreshes stay incremental.
        """
        manifest = self._load_manifest()
        if manifest["generation"] == self._manifest["generation"]:
            return False
        old_rounds = self._manifest["rounds"]
        self._manifest = manifest
        current = {
            name
            for rid in self.rounds()
            for label in self.labels(rid)
            for name in self._scan_entry(rid, label)["segments"]
        }
        for name in list(self._readers):
            if name not in current:
                del self._readers[name]
        index = self._index
        if index is not None and any(
            label not in manifest["rounds"].get(str(rid), {})
            for rid, label in index.folded
        ):
            self._index = None
        acc = self._timeline_acc
        if acc is not None:
            for rid in acc.folded_rounds:
                entry = manifest["rounds"].get(str(rid))
                if entry is None or set(entry) != set(
                    old_rounds.get(str(rid), {})
                ):
                    self._timeline_acc = None
                    break
        return True

    def _scan_entry(self, round_id: int, label: str) -> dict:
        rounds = self._manifest["rounds"]
        entry = rounds.get(str(round_id), {}).get(label)
        if entry is None:
            raise StoreError(f"round {round_id} has no scan {label!r}")
        return entry

    # -- ingest ------------------------------------------------------------

    def ingest_scan(
        self,
        observations: Iterable[ScanObservation],
        *,
        round_id: int,
        label: str,
        ip_version: int,
        started_at: float,
        finished_at: float = 0.0,
        targets_probed: int = 0,
    ) -> IngestStats:
        """Ingest one scan's observation stream as a new ``(round, label)``.

        Rows are deduplicated per address (first observation wins, the
        :meth:`~repro.scanner.records.ScanResult.add` rule) and cut into
        parts of ``segment_rows``.  Re-ingesting an existing scan is an
        error: the store is append-only and a scan is a fact, not a
        mutable table.
        """
        return self.ingest_scan_batches(
            _iter_chunks(observations, self.segment_rows),
            round_id=round_id,
            label=label,
            ip_version=ip_version,
            started_at=started_at,
            finished_at=finished_at,
            targets_probed=targets_probed,
        )

    def ingest_scan_batches(
        self,
        batches: "Iterable[list[ScanObservation]]",
        *,
        round_id: int,
        label: str,
        ip_version: int,
        started_at: float,
        finished_at: float = 0.0,
        targets_probed: int = 0,
    ) -> IngestStats:
        """Batch-granular ingest core (:meth:`ingest_scan` wraps this).

        Consumes whole observation batches — the executor's native unit —
        so a streamed campaign never pays a per-observation generator
        round-trip between decode and segment write.  Dedup order,
        segment boundaries and bytes on disk are identical to feeding the
        flattened stream through :meth:`ingest_scan`.
        """
        if round_id < 0:
            raise StoreError(f"round ids are non-negative, got {round_id}")
        rounds = self._manifest["rounds"]
        round_entry = rounds.setdefault(str(round_id), {})
        if label in round_entry:
            raise StoreError(
                f"round {round_id} scan {label!r} is already ingested"
            )
        seen: set[IPAddress] = set()
        seen_add = seen.add
        generation = self._next_generation()
        segment_rows = self.segment_rows
        part = 0
        rows_total = 0
        bytes_total = 0
        names: list[str] = []
        buffer: list[ScanObservation] = []
        append = buffer.append

        def flush(rows_out: "list[ScanObservation]") -> None:
            nonlocal part, rows_total, bytes_total
            name = (
                f"r{round_id:06d}-{label}-g{generation:06d}-p{part:04d}.seg"
            )
            path = self._segment_dir / name
            meta = SegmentMeta(
                round_id=round_id,
                label=label,
                ip_version=ip_version,
                started_at=started_at,
                part=part,
            )
            rows = write_segment(
                path, meta, rows_out, block_rows=self.block_rows
            )
            names.append(name)
            rows_total += rows
            bytes_total += path.stat().st_size
            part += 1

        for batch in batches:
            for observation in batch:
                address = observation.address
                if address in seen:
                    continue
                seen_add(address)
                append(observation)
            # Cut exactly at segment_rows so parts match the legacy
            # per-observation path byte for byte.
            while len(buffer) >= segment_rows:
                flush(buffer[:segment_rows])
                del buffer[:segment_rows]
        if buffer or not names:
            flush(buffer)  # a responder-less scan still gets one (empty) segment
            buffer.clear()
        round_entry[label] = {
            "segments": names,
            "rows": rows_total,
            "ip_version": ip_version,
            "started_at": started_at,
            "finished_at": finished_at,
            "targets_probed": targets_probed,
        }
        self._write_manifest()
        self._invalidate_round(round_id)
        return IngestStats(
            round_id=round_id,
            label=label,
            rows=rows_total,
            segments=len(names),
            bytes_written=bytes_total,
        )

    def ingest_result(self, scan: ScanResult, *, round_id: int) -> IngestStats:
        """Ingest one materialized :class:`ScanResult`."""
        return self.ingest_scan(
            scan.observations.values(),
            round_id=round_id,
            label=scan.label,
            ip_version=scan.ip_version,
            started_at=scan.started_at,
            finished_at=scan.finished_at,
            targets_probed=scan.targets_probed,
        )

    def ingest_campaign(
        self, result: "CampaignResult", *, round_id: "int | None" = None
    ) -> "list[IngestStats]":
        """Ingest every scan of one campaign result as one round."""
        if round_id is None:
            round_id = self.next_round_id()
        return [
            self.ingest_result(scan, round_id=round_id)
            for scan in sorted(
                result.scans.values(), key=lambda s: (s.started_at, s.label)
            )
        ]

    def ingest_stream(
        self, stream: "ScanStream", *, round_id: int
    ) -> IngestStats:
        """Ingest one streaming scan without materializing it.

        Observation batches flow straight from the executor into segment
        parts — no per-observation flattening between decode and write;
        the scan totals (``targets_probed``) are patched into the
        manifest after the stream is exhausted.  Byte-identical to
        :meth:`ingest_result` over the same scan at any worker count.
        """
        stats = self.ingest_scan_batches(
            stream.batches(),
            round_id=round_id,
            label=stream.label,
            ip_version=stream.ip_version,
            started_at=stream.started_at,
            finished_at=stream.execution.finished_at,
        )
        # probes_sent finalizes only once the stream is drained.
        entry = self._scan_entry(round_id, stream.label)
        entry["targets_probed"] = stream.execution.metrics.probes_sent
        self._write_manifest()
        return stats

    def next_round_id(self) -> int:
        """The smallest round ID strictly above every stored round."""
        rounds = self.rounds()
        return (rounds[-1] + 1) if rounds else 1

    # -- JSONL interchange -------------------------------------------------

    def import_jsonl(
        self, path: "str | Path", *, round_id: int, label: "str | None" = None
    ) -> IngestStats:
        """Backfill one existing scan JSONL export into the store.

        The export's self-describing header supplies the scan metadata;
        ``label`` overrides the recorded label (e.g. when the same file
        is replayed into several synthetic rounds).
        """
        from repro.io.exports import iter_scan_jsonl, read_scan_header

        header = read_scan_header(path)
        return self.ingest_scan(
            iter_scan_jsonl(path),
            round_id=round_id,
            label=label if label is not None else header["label"],
            ip_version=header["ip_version"],
            started_at=header["started_at"],
            finished_at=header["finished_at"],
            targets_probed=header["targets_probed"],
        )

    def export_jsonl(self, round_id: int, label: str, path: "str | Path") -> int:
        """Write one stored scan back out as a standard JSONL export.

        Produces exactly what :func:`repro.io.exports.export_scan_jsonl`
        would for the reconstructed scan, so JSONL → store → JSONL
        round-trips (byte-identical for sorted exports).
        """
        from repro.io.exports import export_scan_jsonl

        return export_scan_jsonl(self.scan_result(round_id, label), path)

    # -- catalogue ---------------------------------------------------------

    def rounds(self) -> "list[int]":
        return sorted(int(r) for r in self._manifest["rounds"])

    def labels(self, round_id: int) -> "list[str]":
        """A round's scan labels in virtual-schedule order."""
        entry = self._manifest["rounds"].get(str(round_id))
        if entry is None:
            raise StoreError(f"no such round: {round_id}")
        return sorted(
            entry, key=lambda label: (entry[label]["started_at"], label)
        )

    def scan_info(self, round_id: int, label: str) -> dict:
        """The manifest entry for one scan (copied)."""
        return dict(self._scan_entry(round_id, label))

    def segment_paths(
        self, round_id: "int | None" = None, label: "str | None" = None
    ) -> "list[Path]":
        """Current segment files, in catalogue order."""
        paths: list[Path] = []
        for rid in self.rounds():
            if round_id is not None and rid != round_id:
                continue
            for scan_label in self.labels(rid):
                if label is not None and scan_label != label:
                    continue
                for name in self._scan_entry(rid, scan_label)["segments"]:
                    paths.append(self._segment_dir / name)
        return paths

    def _reader(self, name: str) -> SegmentReader:
        reader = self._readers.get(name)
        if reader is None:
            reader = self._readers[name] = SegmentReader(
                self._segment_dir / name
            )
        return reader

    # -- reads -------------------------------------------------------------

    def observations(
        self, round_id: "int | None" = None, label: "str | None" = None
    ) -> Iterator[StoredObservation]:
        """Stream stored observations in catalogue + storage order."""
        for rid in self.rounds():
            if round_id is not None and rid != round_id:
                continue
            for scan_label in self.labels(rid):
                if label is not None and scan_label != label:
                    continue
                for obs in self._scan_rows(rid, scan_label):
                    yield StoredObservation(
                        round_id=rid, label=scan_label, observation=obs
                    )

    def _scan_rows(self, round_id: int, label: str) -> Iterator[ScanObservation]:
        """One scan's rows in storage order, across all its parts."""
        for name in self._scan_entry(round_id, label)["segments"]:
            yield from self._reader(name).observations()

    def _scan_columns(
        self, round_id: int, label: str
    ) -> Iterator[ObservationColumns]:
        """One scan's blocks as columns in storage order; no row is built."""
        for name in self._scan_entry(round_id, label)["segments"]:
            yield from self._reader(name).columns()

    def count_rows(self, round_id: int, label: str) -> int:
        """One scan's rows, counted from the validated frame of every
        block of every part; no row is built.

        Every listed block is read and validated in full, so a corrupt
        or missing part raises as a full decode would.
        """
        return sum(
            self._reader(name).count_rows()
            for name in self._scan_entry(round_id, label)["segments"]
        )

    def scan_result(self, round_id: int, label: str) -> ScanResult:
        """Rebuild one scan as a legacy :class:`ScanResult`."""
        info = self._scan_entry(round_id, label)
        scan = ScanResult(
            label=label,
            ip_version=info["ip_version"],
            started_at=info["started_at"],
            finished_at=info["finished_at"],
            targets_probed=info["targets_probed"],
        )
        for stored in self.observations(round_id=round_id, label=label):
            scan.add(stored.observation)
        return scan

    def history(self, address: IPAddress) -> "list[StoredObservation]":
        """Every stored observation of one address, oldest first.

        Each part's footer skips the blocks whose address range excludes
        the key.  With rows in probe order, only the other family's
        blocks are skipped.  Every other block is validated in full and
        searched in its raw address column, so a lookup builds at most
        one row per scan (:meth:`SegmentReader.lookup`).
        """
        sightings: list[StoredObservation] = []
        for rid in self.rounds():
            for scan_label in self.labels(rid):
                for name in self._scan_entry(rid, scan_label)["segments"]:
                    found = self._reader(name).lookup(address)
                    if found is not None:
                        sightings.append(
                            StoredObservation(
                                round_id=rid,
                                label=scan_label,
                                observation=found,
                            )
                        )
                        break  # one observation per scan: parts are disjoint
        return sightings

    def query(self) -> "StoreQuery":
        """The indexed query surface (see :class:`repro.store.query.StoreQuery`)."""
        from repro.store.query import StoreQuery

        return StoreQuery(store=self)

    def index(self) -> StoreIndex:
        """The secondary indexes, grown one scan at a time and cached.

        Each call folds only the scans the manifest lists that the index
        has not folded yet, so after an ingest it decodes just the new
        scan, as columns.  Compaction keeps every row and leaves the
        index as it is; :meth:`refresh` discards it only when a folded
        scan is no longer listed.  A fold cut short by a part deleted under it
        (``FileNotFoundError``, which :class:`~repro.service.query.QueryService`
        retries after :meth:`refresh`) leaves its scan unfolded, so the
        retried index equals one built from scratch.
        """
        index = self._index
        if index is None:
            index = self._index = StoreIndex()
        for rid in self.rounds():
            for label in self.labels(rid):
                if (rid, label) not in index.folded:
                    index.fold_scan(rid, label, self._scan_columns(rid, label))
        return index

    # -- timelines ---------------------------------------------------------

    def timelines(self) -> TimelineAccumulator:
        """Device timelines over all stored rounds, folded incrementally.

        The accumulator is cached: a call after a new round's ingest
        folds only that round, decoded as columns.  (Ingesting into an
        *already folded* round discards the cache — correctness beats
        incrementality.)
        """
        acc = self._timeline_acc
        if acc is None:
            acc = self._timeline_acc = TimelineAccumulator(
                reboot_threshold=self.reboot_threshold
            )
        for rid in self.rounds():
            if rid in acc.folded_rounds:
                continue
            # Every block is decoded before the fold starts, so a read
            # that fails part way leaves the accumulator as it was.
            scans = [
                (
                    label,
                    self._scan_entry(rid, label)["started_at"],
                    list(self._scan_columns(rid, label)),
                )
                for label in self.labels(rid)
            ]
            acc.fold_round(rid, scans)
        return acc

    def _invalidate_round(self, round_id: int) -> None:
        """Drop caches that a write into ``round_id`` stales.

        Only the timeline accumulator can be stale, when ``round_id`` is
        already folded.  The index never is: the new scan is one it has
        not folded, and the next :meth:`index` call folds it.
        """
        acc = self._timeline_acc
        if acc is not None and round_id in acc.folded_rounds:
            self._timeline_acc = None

    # -- compaction --------------------------------------------------------

    def compact(self) -> CompactStats:
        """Merge each scan's parts into one segment; answers are invariant.

        New merged segments are written first, the manifest is swapped to
        reference them, and only then are the obsolete parts deleted —
        a crash at any point leaves a readable store.
        """
        scans_compacted = 0
        segments_before = 0
        segments_after = 0
        bytes_before = 0
        bytes_after = 0
        obsolete: list[Path] = []
        for rid in self.rounds():
            for label in self.labels(rid):
                entry = self._scan_entry(rid, label)
                names = entry["segments"]
                segments_before += len(names)
                size = sum(
                    (self._segment_dir / name).stat().st_size for name in names
                )
                bytes_before += size
                if len(names) <= 1:
                    segments_after += len(names)
                    bytes_after += size
                    continue
                generation = self._next_generation()
                merged_name = f"r{rid:06d}-{label}-g{generation:06d}-p0000.seg"
                merged_path = self._segment_dir / merged_name
                meta = SegmentMeta(
                    round_id=rid,
                    label=label,
                    ip_version=entry["ip_version"],
                    started_at=entry["started_at"],
                    part=0,
                )
                rows = write_segment(
                    merged_path,
                    meta,
                    self._scan_rows(rid, label),
                    block_rows=self.block_rows,
                )
                if rows != entry["rows"]:  # pragma: no cover - invariant
                    merged_path.unlink()
                    raise StoreError(
                        f"compaction row drift on round {rid} {label}: "
                        f"{rows} != {entry['rows']}"
                    )
                obsolete.extend(self._segment_dir / name for name in names)
                entry["segments"] = [merged_name]
                scans_compacted += 1
                segments_after += 1
                bytes_after += merged_path.stat().st_size
        self._write_manifest()
        for path in obsolete:
            self._readers.pop(path.name, None)
            path.unlink(missing_ok=True)
        return CompactStats(
            scans_compacted=scans_compacted,
            segments_before=segments_before,
            segments_after=segments_after,
            bytes_before=bytes_before,
            bytes_after=bytes_after,
        )

    # -- stats -------------------------------------------------------------

    def stats(self) -> dict:
        """Roll-up of the store's physical and logical shape (JSON-safe)."""
        per_round: dict[str, dict] = {}
        segments = 0
        rows = 0
        size = 0
        for rid in self.rounds():
            round_rows = 0
            round_segments = 0
            for label in self.labels(rid):
                entry = self._scan_entry(rid, label)
                round_rows += entry["rows"]
                round_segments += len(entry["segments"])
                for name in entry["segments"]:
                    size += (self._segment_dir / name).stat().st_size
            per_round[str(rid)] = {
                "scans": len(self.labels(rid)),
                "rows": round_rows,
                "segments": round_segments,
            }
            segments += round_segments
            rows += round_rows
        return {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "generation": self._manifest["generation"],
            "rounds": len(per_round),
            "segments": segments,
            "rows": rows,
            "segment_bytes": size,
            "bytes_per_row": (size / rows) if rows else 0.0,
            "per_round": per_round,
        }


__all__ = [
    "DEFAULT_SEGMENT_ROWS",
    "STORE_FORMAT",
    "STORE_VERSION",
    "CompactStats",
    "IngestStats",
    "Store",
    "StoreError",
    "StoredObservation",
]
