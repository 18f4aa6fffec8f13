"""Serializers and loaders for measurement artifacts.

Formats are deliberately boring: JSON Lines for record streams (engine
IDs hex-encoded), CSV for tabular summaries.  Loaders reconstruct the
full Python objects, and every exporter/loader pair round-trips — see
``tests/io``.
"""

from __future__ import annotations

import csv
import ipaddress
import json
from pathlib import Path
from typing import Iterable, Iterator

from repro.alias.sets import AliasSets
from repro.scanner.records import ScanObservation, ScanResult
from repro.snmp.engine_id import EngineId

#: Schema version stamped into every JSONL header line.
FORMAT_VERSION = 1

#: Slack appended to the provisional header so the incremental writer can
#: rewrite it in place with the final counts (JSON tolerates the padding).
_HEADER_SLACK = 48


# -- scan observations ----------------------------------------------------------


def _scan_header(
    *,
    label: str,
    ip_version: int,
    started_at: float,
    finished_at: float,
    targets_probed: int,
    responsive: int,
) -> str:
    return json.dumps(
        {
            "format": "snmpv3-scan",
            "version": FORMAT_VERSION,
            "label": label,
            "ip_version": ip_version,
            "started_at": started_at,
            "finished_at": finished_at,
            "targets_probed": targets_probed,
            "responsive": responsive,
        }
    )


def _observation_row(obs: ScanObservation) -> str:
    return json.dumps(
        {
            "ip": str(obs.address),
            "recv_time": obs.recv_time,
            # An empty engine ID is falsy but parsed; only None is absent.
            "engine_id": (
                obs.engine_id.raw.hex() if obs.engine_id is not None else None
            ),
            "engine_boots": obs.engine_boots,
            "engine_time": obs.engine_time,
            "responses": obs.response_count,
            "wire_bytes": obs.wire_bytes,
        }
    )


def _row_observation(row: dict) -> ScanObservation:
    engine_hex = row["engine_id"]
    return ScanObservation(
        address=ipaddress.ip_address(row["ip"]),
        recv_time=row["recv_time"],
        engine_id=(
            EngineId(bytes.fromhex(engine_hex)) if engine_hex is not None else None
        ),
        engine_boots=row["engine_boots"],
        engine_time=row["engine_time"],
        response_count=row["responses"],
        wire_bytes=row["wire_bytes"],
    )


def export_scan_jsonl(scan: ScanResult, path: "str | Path") -> int:
    """Write one JSON line per responsive IP; returns the record count.

    The first line is a header object describing the scan (label, family,
    schedule, probe counts) so the file is self-describing.
    """
    path = Path(path)
    records = 0
    with path.open("w", encoding="utf-8") as handle:
        handle.write(
            _scan_header(
                label=scan.label,
                ip_version=scan.ip_version,
                started_at=scan.started_at,
                finished_at=scan.finished_at,
                targets_probed=scan.targets_probed,
                responsive=scan.responsive_count,
            )
            + "\n"
        )
        for obs in sorted(scan.observations.values(), key=lambda o: int(o.address)):
            handle.write(_observation_row(obs) + "\n")
            records += 1
    return records


class ScanJsonlWriter:
    """Incremental scan exporter: one observation (or batch) at a time.

    Streams rows to disk as they arrive so a scan never has to be
    materialized before export.  A provisional header is written first
    (space-padded — JSON parsers skip trailing whitespace) and rewritten
    in place on :meth:`close` with the final ``finished_at``,
    ``targets_probed`` and ``responsive`` counts, so the finished file is
    self-describing exactly like :func:`export_scan_jsonl` output and
    loads with the same readers.  Rows keep arrival order; readers do not
    depend on ordering.  Usable as a context manager.
    """

    def __init__(
        self,
        path: "str | Path",
        *,
        label: str,
        ip_version: int,
        started_at: float,
    ) -> None:
        self._path = Path(path)
        self._label = label
        self._ip_version = ip_version
        self._started_at = started_at
        #: Set these any time before :meth:`close`.
        self.finished_at = 0.0
        self.targets_probed = 0
        self.records = 0
        self._seen: set = set()
        self._handle = self._path.open("w", encoding="utf-8")
        try:
            provisional = self._header()
            self._header_width = len(provisional) + _HEADER_SLACK
            self._handle.write(provisional.ljust(self._header_width) + "\n")
        except BaseException:
            # A constructor that raises never hands the caller an object
            # to close; release the handle before propagating.
            self._handle.close()
            raise

    def _header(self) -> str:
        return _scan_header(
            label=self._label,
            ip_version=self._ip_version,
            started_at=self._started_at,
            finished_at=self.finished_at,
            targets_probed=self.targets_probed,
            responsive=self.records,
        )

    def write(self, observation: ScanObservation) -> None:
        """Append one observation (duplicate addresses keep the first)."""
        if observation.address in self._seen:
            return
        self._seen.add(observation.address)
        self._handle.write(_observation_row(observation) + "\n")
        self.records += 1

    def write_batch(self, batch: Iterable[ScanObservation]) -> int:
        """Append a batch in one write; returns how many rows were written.

        Duplicate-address semantics match :meth:`write` (first one wins),
        but the serialized rows are joined and handed to the file object
        once per batch instead of once per observation — the dominant
        ingest edge when a campaign streams millions of rows.
        """
        seen = self._seen
        add = seen.add
        rows: list[str] = []
        append = rows.append
        for observation in batch:
            address = observation.address
            if address in seen:
                continue
            add(address)
            append(_observation_row(observation))
        if rows:
            self._handle.write("\n".join(rows) + "\n")
            self.records += len(rows)
        return len(rows)

    @property
    def closed(self) -> bool:
        """True once the final header has been written and the file shut."""
        return self._handle.closed

    def close(self) -> int:
        """Finalize the header in place; returns the record count.

        Idempotent: the header is rewritten and the file closed exactly
        once, no matter how many times ``close`` runs — a ``with`` block
        whose body already called :meth:`close` stays a no-op on exit.
        """
        if self.closed:
            return self.records
        try:
            final = self._header()
            if len(final) > self._header_width:  # pragma: no cover - 48B slack
                raise ValueError("final scan header outgrew its reserved space")
            self._handle.seek(0)
            self._handle.write(final.ljust(self._header_width))
        finally:
            # The handle must shut even when finalization fails — an
            # unwritable header should not leak the descriptor too.
            self._handle.close()
        return self.records

    def __enter__(self) -> "ScanJsonlWriter":
        if self.closed:
            raise ValueError("cannot re-enter a closed ScanJsonlWriter")
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_scan_header(path: "str | Path") -> dict:
    """Read and validate just the header line of a scan export."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        header = json.loads(handle.readline())
    if header.get("format") != "snmpv3-scan":
        raise ValueError(f"{path} is not an snmpv3-scan export")
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported export version: {header.get('version')}")
    return header


def iter_scan_jsonl(path: "str | Path") -> "Iterator[ScanObservation]":
    """Stream observations from an export one at a time.

    Validates the header, then yields one :class:`ScanObservation` per
    line without ever holding the file in memory — feed this directly to
    :meth:`repro.pipeline.FilterPipeline.run_stream`.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        if header.get("format") != "snmpv3-scan":
            raise ValueError(f"{path} is not an snmpv3-scan export")
        if header.get("version") != FORMAT_VERSION:
            raise ValueError(f"unsupported export version: {header.get('version')}")
        for line in handle:
            if line.strip():
                yield _row_observation(json.loads(line))


def load_scan_jsonl(path: "str | Path") -> ScanResult:
    """Reconstruct a :class:`ScanResult` from an exported file."""
    header = read_scan_header(path)
    scan = ScanResult(
        label=header["label"],
        ip_version=header["ip_version"],
        started_at=header["started_at"],
        finished_at=header["finished_at"],
        targets_probed=header["targets_probed"],
    )
    for observation in iter_scan_jsonl(path):
        scan.add(observation)
    return scan


# -- alias sets ----------------------------------------------------------------------


def export_alias_sets_jsonl(sets: AliasSets, path: "str | Path") -> int:
    """One JSON line per alias set: ``{"id": n, "ips": [...]}``."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        header = {
            "format": "alias-sets",
            "version": FORMAT_VERSION,
            "technique": sets.technique,
            "sets": sets.count,
        }
        handle.write(json.dumps(header) + "\n")
        ordered = sorted(sets.sets, key=lambda g: min(int(a) for a in g))
        for index, group in enumerate(ordered):
            handle.write(
                json.dumps({"id": index, "ips": sorted(map(str, group))}) + "\n"
            )
    return sets.count


def load_alias_sets_jsonl(path: "str | Path") -> AliasSets:
    """Reconstruct :class:`AliasSets` from an exported file."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        if header.get("format") != "alias-sets":
            raise ValueError(f"{path} is not an alias-sets export")
        groups = []
        for line in handle:
            row = json.loads(line)
            groups.append(frozenset(ipaddress.ip_address(ip) for ip in row["ips"]))
    return AliasSets(sets=groups, technique=header.get("technique", ""))


def export_alias_sets_csv(sets: AliasSets, path: "str | Path") -> int:
    """Two-column CSV (``set_id,ip``) — the flat join-friendly form."""
    path = Path(path)
    rows = 0
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["set_id", "ip"])
        ordered = sorted(sets.sets, key=lambda g: min(int(a) for a in g))
        for index, group in enumerate(ordered):
            for ip in sorted(map(str, group)):
                writer.writerow([index, ip])
                rows += 1
    return rows


# -- vendor census --------------------------------------------------------------------------


def export_vendor_census_csv(
    rows: "Iterable[tuple[str, int]]", path: "str | Path"
) -> int:
    """``vendor,count`` CSV for the Figure 11/12 bar data."""
    path = Path(path)
    written = 0
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["vendor", "devices"])
        for vendor, count in rows:
            writer.writerow([vendor, count])
            written += 1
    return written
