"""Incremental longitudinal layer: fold scan rounds into device timelines.

The paper's §7 statistics (uptime ECDFs, reboot counts) and the §5
cross-scan alias work are all *longitudinal*: they correlate engine ID /
boots / engine time for one device across repeated observations.  The
:class:`TimelineAccumulator` consumes one ingested round at a time —
never re-reading older rounds — and maintains, per engine ID:

* every **sighting** (round, scan, address, receive time, boots, time);
* **reboot events** between consecutive scans: a forward jump of the
  derived last-reboot time (``recv_time - engine_time``) beyond the
  consistency threshold, classified as ``boots-increment`` when the
  boots counter advanced and ``engine-time-regression`` when a device
  rebooted without incrementing boots (the paper's non-conforming
  population);
* **uptime samples** (the engine-time values feeding the §7 ECDF);
* per-round **alias membership** (the addresses answering with that
  engine ID), with consecutive-round **diffs**: addresses *born* (new
  in the later round), *died* (gone), and *moved* (answering with a
  different engine ID than before — renumbering / DHCP churn).

Detection is order-insensitive within a scan: each (engine, scan) pair
is represented by its lowest-address sighting, so the same rounds give
the same events no matter how the ingest happened to interleave rows.
Folding rounds one at a time is provably equivalent to recomputing from
all raw rounds (property-tested against a brute-force reference in
``tests/store/test_timeline.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

from repro.net.addresses import IPAddress
from repro.scanner.wire import ObservationColumns

#: Forward jump of the derived last-reboot time that counts as a reboot;
#: mirrors the filtering pipeline's 10-second consistency threshold.
DEFAULT_REBOOT_THRESHOLD = 10.0

KIND_BOOTS_INCREMENT = "boots-increment"
KIND_TIME_REGRESSION = "engine-time-regression"


class Sighting(NamedTuple):
    """One engine observed once, in one scan of one round.

    A named tuple: immutable, and about three times cheaper to build
    than a frozen dataclass, which matters at one per folded row.
    """

    round_id: int
    label: str
    address: IPAddress
    recv_time: float
    engine_boots: int
    engine_time: int

    @property
    def last_reboot(self) -> float:
        return self.recv_time - float(self.engine_time)


@dataclass(frozen=True)
class RebootEvent:
    """A detected restart between two consecutive sightings of an engine."""

    engine_id: bytes
    round_id: int
    label: str
    kind: str
    boots_before: int
    boots_after: int
    reboot_time: float
    previous_reboot_time: float


@dataclass(frozen=True)
class AliasDiff:
    """Membership change of the responsive population between two rounds."""

    prev_round: int
    next_round: int
    #: Addresses responsive in the later round but not the earlier one.
    born: frozenset[IPAddress]
    #: Addresses responsive in the earlier round but not the later one.
    died: frozenset[IPAddress]
    #: Addresses responsive in both, answering with a different engine ID.
    moved: frozenset[IPAddress]

    @property
    def churned(self) -> int:
        """Engine-ID churn: how many stable addresses changed identity."""
        return len(self.moved)


@dataclass
class DeviceTimeline:
    """Everything the store knows about one engine ID over time."""

    engine_id: bytes
    sightings: list[Sighting] = field(default_factory=list)
    reboot_events: list[RebootEvent] = field(default_factory=list)
    #: round -> the addresses that answered with this engine ID.
    members: dict[int, frozenset[IPAddress]] = field(default_factory=dict)

    @property
    def first_round(self) -> int:
        return min(self.members)

    @property
    def last_round(self) -> int:
        return max(self.members)

    @property
    def rounds_seen(self) -> int:
        return len(self.members)

    def member_history(self) -> "list[tuple[int, frozenset[IPAddress]]]":
        return sorted(self.members.items())


class TimelineError(ValueError):
    """Raised on out-of-order or duplicate round folds."""


class TimelineAccumulator:
    """Folds rounds into per-device timelines, strictly forward in time.

    ``fold_round`` must be called with strictly increasing round IDs;
    the accumulator never looks back at raw data from earlier rounds,
    which is what makes the store's timeline maintenance incremental —
    each ingest folds only the new round.
    """

    def __init__(self, *, reboot_threshold: float = DEFAULT_REBOOT_THRESHOLD) -> None:
        self.reboot_threshold = reboot_threshold
        self.timelines: dict[bytes, DeviceTimeline] = {}
        self.diffs: list[AliasDiff] = []
        self.folded_rounds: list[int] = []
        #: engine -> representative sighting of its most recent scan.
        self._last_sighting: dict[bytes, Sighting] = {}
        #: address -> engine it answered with, in the last folded round.
        self._prev_membership: dict[IPAddress, bytes] = {}

    # -- folding -----------------------------------------------------------

    def fold_round(
        self,
        round_id: int,
        scans: "Sequence[tuple[str, float, Iterable[ObservationColumns]]]",
    ) -> None:
        """Fold one round: ``scans`` is (label, started_at, column batches).

        Scans are processed in virtual-schedule order (``started_at``,
        then label), matching the order the campaign ran them.  Each
        batch is one block's :class:`~repro.scanner.wire.ObservationColumns`.
        """
        if self.folded_rounds and round_id <= self.folded_rounds[-1]:
            raise TimelineError(
                f"round {round_id} folded out of order "
                f"(last was {self.folded_rounds[-1]})"
            )
        timelines = self.timelines
        membership: dict[IPAddress, bytes] = {}
        members: dict[bytes, set[IPAddress]] = {}
        for label, started_at, batches in sorted(
            scans, key=lambda scan: (scan[1], scan[0])
        ):
            # Lowest-address representative per engine: within-scan row
            # order must not influence event detection.
            representatives: dict[bytes, Sighting] = {}
            for columns in batches:
                for address, recv_time, raw, boots, engine_time in zip(
                    columns.addresses,
                    columns.recv_times,
                    columns.engine_ids,
                    columns.engine_boots,
                    columns.engine_times,
                ):
                    if raw is None:
                        continue
                    sighting = Sighting(
                        round_id, label, address, recv_time, boots, engine_time
                    )
                    timeline = timelines.get(raw)
                    if timeline is None:
                        timeline = timelines[raw] = DeviceTimeline(engine_id=raw)
                    timeline.sightings.append(sighting)
                    addresses = members.get(raw)
                    if addresses is None:
                        members[raw] = {address}
                    else:
                        addresses.add(address)
                    # The latest scan's identity wins for churn accounting.
                    membership[address] = raw
                    best = representatives.get(raw)
                    if best is None or int(address) < int(best.address):
                        representatives[raw] = sighting
            for raw, sighting in sorted(representatives.items()):
                self._detect_reboot(raw, sighting)
                self._last_sighting[raw] = sighting
        for raw, addresses in members.items():
            timelines[raw].members[round_id] = frozenset(addresses)
        if self.folded_rounds:
            self.diffs.append(
                self._diff(self.folded_rounds[-1], round_id, membership)
            )
        self._prev_membership = membership
        self.folded_rounds.append(round_id)

    def _detect_reboot(self, raw: bytes, sighting: Sighting) -> None:
        previous = self._last_sighting.get(raw)
        if previous is None:
            return
        jump = sighting.last_reboot - previous.last_reboot
        if jump <= self.reboot_threshold:
            return
        kind = (
            KIND_BOOTS_INCREMENT
            if sighting.engine_boots > previous.engine_boots
            else KIND_TIME_REGRESSION
        )
        self.timelines[raw].reboot_events.append(
            RebootEvent(
                engine_id=raw,
                round_id=sighting.round_id,
                label=sighting.label,
                kind=kind,
                boots_before=previous.engine_boots,
                boots_after=sighting.engine_boots,
                reboot_time=sighting.last_reboot,
                previous_reboot_time=previous.last_reboot,
            )
        )

    def _diff(
        self,
        prev_round: int,
        next_round: int,
        membership: Mapping[IPAddress, bytes],
    ) -> AliasDiff:
        # A set built from a dict, differenced with a dict, reuses the
        # hashes both dicts already store: no IPv4Address.__hash__ (a
        # hex() per call) runs.  ``keys() - keys()`` would re-hash every
        # key of its right operand.
        prev = self._prev_membership
        born = frozenset(membership).difference(prev)
        died = frozenset(prev).difference(membership)
        moved = frozenset(
            a for a, raw in membership.items() if prev.get(a, raw) != raw
        )
        return AliasDiff(
            prev_round=prev_round,
            next_round=next_round,
            born=born,
            died=died,
            moved=moved,
        )

    # -- aggregate views ---------------------------------------------------

    def reboot_events(self) -> "list[RebootEvent]":
        """Every detected reboot, in (round, label, engine) order."""
        events = [
            event
            for timeline in self.timelines.values()
            for event in timeline.reboot_events
        ]
        events.sort(key=lambda e: (e.round_id, e.label, e.engine_id))
        return events

    def uptime_ecdf_inputs(self) -> "list[int]":
        """All engine-time samples, sorted — feed to the §7 uptime ECDF."""
        return sorted(
            sighting.engine_time
            for timeline in self.timelines.values()
            for sighting in timeline.sightings
        )

    def summary(self) -> "dict[str, object]":
        """Compact roll-up used by ``store timeline`` and the CI artifact."""
        events = self.reboot_events()
        return {
            "rounds": list(self.folded_rounds),
            "devices": len(self.timelines),
            "sightings": sum(
                len(t.sightings) for t in self.timelines.values()
            ),
            "reboot_events": len(events),
            "boots_increment_events": sum(
                1 for e in events if e.kind == KIND_BOOTS_INCREMENT
            ),
            "time_regression_events": sum(
                1 for e in events if e.kind == KIND_TIME_REGRESSION
            ),
            "diffs": [
                {
                    "prev_round": d.prev_round,
                    "next_round": d.next_round,
                    "born": len(d.born),
                    "died": len(d.died),
                    "moved": len(d.moved),
                }
                for d in self.diffs
            ],
        }


__all__ = [
    "DEFAULT_REBOOT_THRESHOLD",
    "KIND_BOOTS_INCREMENT",
    "KIND_TIME_REGRESSION",
    "AliasDiff",
    "DeviceTimeline",
    "RebootEvent",
    "Sighting",
    "TimelineAccumulator",
    "TimelineError",
]
