"""Secondary indexes over a store's observations.

The index keeps the two inverted views the serving workloads need:

* **engine ID → addresses** — which IPs ever answered with an engine ID
  (the §5 alias-resolution join key);
* **device rollups** — per *device* (distinct raw engine ID) groupings
  by IANA enterprise number, by MAC-OUI vendor, and by the paper's final
  vendor verdict (:func:`repro.fingerprint.vendor.infer_vendor`): raw
  analogues of the Figure 11/12 censuses, counted before the §4.4
  filters and §5 de-aliasing.

There is no address → history view: :meth:`Store.history
<repro.store.store.Store.history>` answers point queries from the
segment footers.

The index is append-only, like the store under it.  It records which
``(round, label)`` scans it has folded, and the
:class:`~repro.store.store.Store` that caches it folds each newly listed
scan once.  Ingest only adds scans and compaction keeps every row, so
neither invalidates it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.fingerprint.vendor import infer_vendor
from repro.net.addresses import IPAddress
from repro.scanner.wire import ObservationColumns
from repro.snmp.engine_id import EngineId

#: Rollup bucket for engine IDs too short to carry an enterprise number.
NO_ENTERPRISE = -1


@dataclass
class StoreIndex:
    """Inverted views over every folded scan, grown one scan at a time.

    Holders of an instance see it grow as :meth:`fold_scan` adds scans;
    the views are mutated in place, never rebuilt.
    """

    engine_to_ips: "dict[bytes, set[IPAddress]]" = field(default_factory=dict)
    devices_by_enterprise: "dict[int, set[bytes]]" = field(default_factory=dict)
    devices_by_oui: "dict[str, set[bytes]]" = field(default_factory=dict)
    devices_by_vendor: "dict[str, set[bytes]]" = field(default_factory=dict)
    rows_indexed: int = 0
    #: The ``(round, label)`` scans folded so far.
    folded: "set[tuple[int, str]]" = field(default_factory=set)

    def fold_scan(
        self,
        round_id: int,
        label: str,
        batches: Iterable[ObservationColumns],
    ) -> None:
        """Fold one scan's column batches into the views, all or nothing.

        Every batch is read before any view changes, so a read that
        fails part way (a compaction deleting a part:
        ``FileNotFoundError``) leaves the index as it was and the scan
        unfolded.  Rows are staged as engine-ID bytes -> addresses; an
        :class:`~repro.snmp.engine_id.EngineId` is built, and vendor
        inference run, only for an engine ID new to the index.
        """
        rows = 0
        staged: dict[bytes, set[IPAddress]] = {}
        for columns in batches:
            rows += len(columns.addresses)
            for raw, address in zip(columns.engine_ids, columns.addresses):
                if raw is None:
                    continue
                addresses = staged.get(raw)
                if addresses is None:
                    staged[raw] = {address}
                else:
                    addresses.add(address)
        for raw, addresses in staged.items():
            members = self.engine_to_ips.get(raw)
            if members is not None:
                members |= addresses
                continue
            self.engine_to_ips[raw] = addresses
            engine_id = EngineId(raw)
            enterprise = (
                engine_id.enterprise
                if engine_id.enterprise is not None
                else NO_ENTERPRISE
            )
            self.devices_by_enterprise.setdefault(enterprise, set()).add(raw)
            verdict = infer_vendor(engine_id)
            if verdict.oui_vendor is not None:  # MAC-format IDs only
                self.devices_by_oui.setdefault(verdict.oui_vendor, set()).add(raw)
            self.devices_by_vendor.setdefault(verdict.vendor, set()).add(raw)
        self.rows_indexed += rows
        self.folded.add((round_id, label))

    @property
    def device_count(self) -> int:
        """Distinct engine IDs — the store's 'devices before de-aliasing'."""
        return len(self.engine_to_ips)

    def vendor_census(self) -> "list[tuple[str, int]]":
        """(vendor, distinct engine IDs), largest first.

        A raw count: every folded row's engine ID counts once, without
        the §4.4 filters or §5 de-aliasing behind the paper's Figure 11,
        so shared and non-conforming engine IDs are included and one
        device's aliases are not merged (ROADMAP item 6).
        """
        return sorted(
            ((vendor, len(devs)) for vendor, devs in self.devices_by_vendor.items()),
            key=lambda kv: (-kv[1], kv[0]),
        )

    def enterprise_census(self) -> "list[tuple[int, int]]":
        """(enterprise number, device count), largest first."""
        return sorted(
            (
                (enterprise, len(devs))
                for enterprise, devs in self.devices_by_enterprise.items()
            ),
            key=lambda kv: (-kv[1], kv[0]),
        )

    def oui_census(self) -> "list[tuple[str, int]]":
        """(MAC-OUI vendor, device count) for MAC-format engine IDs."""
        return sorted(
            ((vendor, len(devs)) for vendor, devs in self.devices_by_oui.items()),
            key=lambda kv: (-kv[1], kv[0]),
        )


__all__ = ["NO_ENTERPRISE", "StoreIndex"]
