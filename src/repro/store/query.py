"""The store's read API: point queries, rollups, timeline views.

:class:`StoreQuery` is the blessed serving surface over a
:class:`~repro.store.store.Store` — everything a downstream consumer
(the CLI verbs, the query service) needs, backed by the segments'
point decoder for address lookups and the in-memory
:class:`~repro.store.index.StoreIndex` for inverted queries.  Query
answers are pure functions of the stored rounds: compaction and ingest
parallelism never change them (property-tested in ``tests/store/``).
"""

from __future__ import annotations

import ipaddress
from typing import TYPE_CHECKING

from repro.net.addresses import IPAddress
from repro.snmp.engine_id import EngineId

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.store.index import StoreIndex
    from repro.store.store import Store, StoredObservation
    from repro.store.timeline import AliasDiff, DeviceTimeline, RebootEvent


def _engine_raw(engine_id: "EngineId | bytes | str") -> bytes:
    if isinstance(engine_id, EngineId):
        return engine_id.raw
    if isinstance(engine_id, bytes):
        return engine_id
    return bytes.fromhex(engine_id.removeprefix("0x"))


class StoreQuery:
    """Indexed, read-only view over one store."""

    def __init__(self, *, store: "Store") -> None:
        self._store = store

    @property
    def index(self) -> "StoreIndex":
        """The store's live index; it grows in place as scans are folded."""
        return self._store.index()

    # -- point queries -----------------------------------------------------

    def history(self, address: "IPAddress | str") -> "list[StoredObservation]":
        """Every sighting of one address, oldest round first.

        Served from the segments by :meth:`Store.history`, which builds
        one row per scan that saw the address and decodes no other row.
        A string is parsed with :func:`ipaddress.ip_address`, which
        raises ``ValueError`` if it is malformed.
        """
        if isinstance(address, str):
            address = ipaddress.ip_address(address)
        return self._store.history(address)

    def ips_with_engine_id(
        self, engine_id: "EngineId | bytes | str"
    ) -> "list[IPAddress]":
        """All addresses that ever answered with this engine ID, sorted."""
        members = self.index.engine_to_ips.get(_engine_raw(engine_id), set())
        return sorted(members, key=int)

    def engine_ids(self) -> "list[bytes]":
        """Every distinct engine ID observed, sorted."""
        return sorted(self.index.engine_to_ips)

    # -- rollups -----------------------------------------------------------

    @property
    def device_count(self) -> int:
        return self.index.device_count

    def vendor_census(self) -> "list[tuple[str, int]]":
        """(vendor, distinct raw engine IDs) from the index; see
        :meth:`~repro.store.index.StoreIndex.vendor_census`."""
        return self.index.vendor_census()

    def enterprise_census(self) -> "list[tuple[int, int]]":
        return self.index.enterprise_census()

    def oui_census(self) -> "list[tuple[str, int]]":
        return self.index.oui_census()

    def round_summary(self, round_id: int) -> dict:
        """Logical shape of one round: per-scan rows and totals."""
        store = self._store
        scans = {}
        for label in store.labels(round_id):
            info = store.scan_info(round_id, label)
            scans[label] = {
                "rows": info["rows"],
                "ip_version": info["ip_version"],
                "targets_probed": info["targets_probed"],
                "segments": len(info["segments"]),
            }
        return {"round": round_id, "scans": scans}

    # -- timeline views ----------------------------------------------------

    def timeline(
        self, engine_id: "EngineId | bytes | str"
    ) -> "DeviceTimeline | None":
        """One device's full longitudinal record, or ``None`` if unseen."""
        return self._store.timelines().timelines.get(_engine_raw(engine_id))

    def reboot_events(self) -> "list[RebootEvent]":
        return self._store.timelines().reboot_events()

    def alias_diffs(self) -> "list[AliasDiff]":
        return self._store.timelines().diffs

    def uptime_ecdf_inputs(self) -> "list[int]":
        return self._store.timelines().uptime_ecdf_inputs()

    def timeline_summary(self) -> dict:
        return self._store.timelines().summary()


__all__ = ["StoreQuery"]
