"""repro.store — the persistent longitudinal scan observatory.

Everything upstream of this package is one-shot: a campaign runs, its
:class:`~repro.scanner.records.ScanResult` objects are analysed, the
process exits and the measurement is gone.  The paper's longitudinal
results — §7 uptime/reboot statistics, §5 cross-scan alias resolution —
and all of the follow-up work are built on *corpora* of repeated scan
rounds.  This package is that corpus layer:

* :mod:`repro.store.segment` — immutable, deterministic segment files
  (the :mod:`repro.scanner.wire` columnar codec plus a footer index)
  and the one-row point lookups behind an address's history;
* :mod:`repro.store.store` — the :class:`Store`: append-only rounds,
  streaming ingest from campaigns or JSONL backfills, compaction;
* :mod:`repro.store.index` — inverted indexes (engine ID → IPs,
  enterprise/OUI/vendor → devices);
* :mod:`repro.store.timeline` — incremental device timelines (reboot
  events, uptime ECDF inputs, engine-ID churn, alias-set diffs);
* :mod:`repro.store.query` — :class:`StoreQuery`, the read surface.

Blessed via :mod:`repro.api`: ``Session(store=...)`` auto-ingests each
campaign round; the ``store`` CLI verbs drive the same API.
"""

from repro.store.index import StoreIndex
from repro.store.query import StoreQuery
from repro.store.segment import (
    SegmentError,
    SegmentMeta,
    SegmentReader,
    iter_segment,
    read_segment_meta,
    write_segment,
)
from repro.store.store import (
    CompactStats,
    IngestStats,
    Store,
    StoreError,
    StoredObservation,
)
from repro.store.timeline import (
    AliasDiff,
    DeviceTimeline,
    RebootEvent,
    Sighting,
    TimelineAccumulator,
    TimelineError,
)

__all__ = [
    "AliasDiff",
    "CompactStats",
    "DeviceTimeline",
    "IngestStats",
    "RebootEvent",
    "SegmentError",
    "SegmentMeta",
    "SegmentReader",
    "Sighting",
    "Store",
    "StoreError",
    "StoreIndex",
    "StoreQuery",
    "StoredObservation",
    "TimelineAccumulator",
    "TimelineError",
    "iter_segment",
    "read_segment_meta",
    "write_segment",
]
