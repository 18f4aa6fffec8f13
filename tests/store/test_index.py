"""The append-only StoreIndex vs a brute-force recomputation from rows."""

import random
import shutil
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.fingerprint.vendor import infer_vendor
from repro.snmp.engine_id import EngineId, EngineIdFormat
from repro.store import Store, StoreQuery
from repro.store.index import NO_ENTERPRISE
from repro.store.segment import SegmentReader

from tests.store.conftest import make_obs

#: Engine IDs covering every rollup branch: known and unassigned OUIs,
#: an OUI that disagrees with its enterprise number, non-MAC formats,
#: an ID too short for an enterprise number, and anonymous rows.
ENGINES = (
    EngineId(bytes.fromhex("800000090300000c000001")),  # Cisco OUI, Cisco PEN
    EngineId(bytes.fromhex("800000090300000c000002")),
    EngineId(bytes.fromhex("80000a4c03000585000001")),  # Juniper OUI + PEN
    EngineId(bytes.fromhex("800000090300e0fc000001")),  # Huawei OUI, Cisco PEN
    EngineId(bytes.fromhex("80000009030000000000aa")),  # unassigned OUI
    EngineId(bytes.fromhex("80001f8880abcdef0102030405")),  # Net-SNMP
    EngineId(bytes.fromhex("80000a4c01c0a80001")),  # IPv4 format, Juniper
    EngineId(bytes.fromhex("8000000904414243")),  # text format
    EngineId(b"\x00\x01\x02"),  # no enterprise number
    None,
)

SEGMENT_ROWS = 3


def brute_force(store):
    """Every index view recomputed from one pass over all stored rows.

    Deliberately device-first, nothing like the index's per-scan folds:
    gather each engine's addresses over the whole store, then classify
    each engine from its raw bytes alone.
    """
    rows = 0
    engine_to_ips = {}
    for stored in store.observations():
        rows += 1
        engine = stored.observation.engine_id
        if engine is not None:
            engine_to_ips.setdefault(engine.raw, set()).add(
                stored.observation.address
            )
    by_enterprise, by_oui, by_vendor = {}, {}, {}
    for raw in engine_to_ips:
        engine = EngineId(raw)
        verdict = infer_vendor(engine)
        enterprise = engine.enterprise
        by_enterprise.setdefault(
            NO_ENTERPRISE if enterprise is None else enterprise, set()
        ).add(raw)
        if engine.format is EngineIdFormat.MAC and verdict.oui_vendor:
            by_oui.setdefault(verdict.oui_vendor, set()).add(raw)
        by_vendor.setdefault(verdict.vendor, set()).add(raw)
    return {
        "engine_to_ips": engine_to_ips,
        "devices_by_enterprise": by_enterprise,
        "devices_by_oui": by_oui,
        "devices_by_vendor": by_vendor,
        "rows_indexed": rows,
    }


def census(groups):
    counts = [(key, len(devices)) for key, devices in groups.items()]
    return sorted(counts, key=lambda kv: (-kv[1], kv[0]))


def assert_index_matches_brute_force(store):
    index = store.index()
    expected = brute_force(store)
    assert index.engine_to_ips == expected["engine_to_ips"]
    assert index.devices_by_enterprise == expected["devices_by_enterprise"]
    assert index.devices_by_oui == expected["devices_by_oui"]
    assert index.devices_by_vendor == expected["devices_by_vendor"]
    assert index.rows_indexed == expected["rows_indexed"]
    query = StoreQuery(store=store)
    engine_to_ips = expected["engine_to_ips"]
    assert query.device_count == len(engine_to_ips)
    assert query.engine_ids() == sorted(engine_to_ips)
    assert query.vendor_census() == census(expected["devices_by_vendor"])
    assert query.enterprise_census() == census(
        expected["devices_by_enterprise"]
    )
    assert query.oui_census() == census(expected["devices_by_oui"])
    for raw, members in engine_to_ips.items():
        assert query.ips_with_engine_id(raw) == sorted(members, key=int)


def random_rows(rng, *, most=10):
    """Up to ``most`` rows over a small shared address and engine pool,
    so scans overlap and engines recur across rounds."""
    return [
        make_obs(
            f"10.0.0.{rng.randint(1, 24)}",
            float(n),
            rng.choice(ENGINES),
        )
        for n in range(rng.randint(0, most))
    ]


def ingest(store, rows, *, round_id, label):
    return store.ingest_scan(
        rows,
        round_id=round_id,
        label=label,
        ip_version=4,
        started_at=float(round_id),
    )


STEPS = st.lists(
    st.tuples(
        st.sampled_from(("ingest", "compact", "external")),
        st.integers(min_value=0, max_value=2**32 - 1),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(steps=STEPS)
def test_incremental_index_equals_brute_force(steps):
    """Property: through any mix of ingest, compaction and a second
    writer followed by refresh, a long-lived store's one index object
    equals a from-scratch recomputation after every step."""
    root = tempfile.mkdtemp(prefix="index-property-")
    try:
        store = Store(root=root, segment_rows=SEGMENT_ROWS)
        held = store.index()
        for step, (kind, seed) in enumerate(steps):
            rng = random.Random(seed)
            if kind == "compact":
                store.compact()
            elif kind == "ingest":
                ingest(store, random_rows(rng), round_id=rng.randint(1, 3),
                       label=f"s-{step}")
            else:
                writer = Store(root=root, segment_rows=SEGMENT_ROWS)
                ingest(writer, random_rows(rng), round_id=rng.randint(1, 3),
                       label=f"s-{step}")
                if rng.random() < 0.5:
                    writer.compact()
                assert store.refresh()
            assert_index_matches_brute_force(store)
            # Nothing left the catalogue, so the index was never discarded.
            assert store.index() is held
    finally:
        shutil.rmtree(root, ignore_errors=True)


@pytest.fixture()
def multipart_store(tmp_path):
    """Three multi-part scans over two rounds, already indexed."""
    store = Store(root=tmp_path / "s", segment_rows=SEGMENT_ROWS)
    rng = random.Random(7)
    for round_id, label in ((1, "s-1"), (1, "s-2"), (2, "s-1")):
        ingest(store, random_rows(rng, most=12), round_id=round_id, label=label)
    store.index()
    return store


def snapshot(index):
    """A deep copy of every view, to show a failed fold changed none."""
    return {
        "engine_to_ips": {r: set(v) for r, v in index.engine_to_ips.items()},
        "devices_by_enterprise": {
            k: set(v) for k, v in index.devices_by_enterprise.items()
        },
        "devices_by_oui": {k: set(v) for k, v in index.devices_by_oui.items()},
        "devices_by_vendor": {
            k: set(v) for k, v in index.devices_by_vendor.items()
        },
        "rows_indexed": index.rows_indexed,
        "folded": set(index.folded),
    }


def recording_decodes(monkeypatch):
    """Patch the column decoding the index folds from to log the
    segment name of every row it decodes."""
    decoded = []
    original = SegmentReader.columns

    def columns(self):
        for batch in original(self):
            decoded.extend([self.path.name] * len(batch.addresses))
            yield batch

    monkeypatch.setattr(SegmentReader, "columns", columns)
    return decoded


def test_next_index_decodes_only_the_new_scan(multipart_store, monkeypatch):
    store = multipart_store
    decoded = recording_decodes(monkeypatch)
    rows = [make_obs(f"10.9.0.{n}", float(n), ENGINES[n % 4]) for n in range(8)]
    ingest(store, rows, round_id=2, label="late")
    store.index()
    info = store.scan_info(2, "late")
    assert len(decoded) == info["rows"] == 8
    assert set(decoded) == set(info["segments"])

    # Compaction keeps every row: the index reads nothing afterwards.
    store.compact()
    decoded.clear()
    store.index()
    assert decoded == []
    assert_index_matches_brute_force(store)


def test_interrupted_fold_retries_to_the_brute_force_answer(
    multipart_store, monkeypatch
):
    """A second writer's compaction deletes the parts of an unfolded
    scan between two of its parts: the fold fails with
    FileNotFoundError, folds nothing, and the refresh-and-retry that
    QueryService performs yields the from-scratch index."""
    store = multipart_store
    held = store.index()
    before = snapshot(held)
    rows = [make_obs(f"10.8.0.{n}", float(n), ENGINES[n % 6]) for n in range(9)]
    ingest(store, rows, round_id=3, label="late")
    parts = store.scan_info(3, "late")["segments"]
    assert len(parts) == 3

    writer = Store(root=store.root, segment_rows=SEGMENT_ROWS)
    original = SegmentReader.columns
    compactions = []

    def columns(self):
        if self.path.name == parts[1] and not compactions:
            compactions.append(None)  # fire once
            compactions[0] = writer.compact()  # deletes every old part
        yield from original(self)

    monkeypatch.setattr(SegmentReader, "columns", columns)
    with pytest.raises(FileNotFoundError):
        store.index()
    assert compactions[0].scans_compacted >= 1
    assert snapshot(held) == before

    assert store.refresh()
    assert store.index() is held
    assert_index_matches_brute_force(store)


def test_refresh_discards_the_index_when_a_folded_scan_is_gone(tmp_path):
    root = tmp_path / "s"
    store = Store(root=root, segment_rows=SEGMENT_ROWS)
    rng = random.Random(3)
    ingest(store, random_rows(rng, most=12), round_id=1, label="s-1")
    ingest(store, random_rows(rng, most=12), round_id=1, label="s-2")
    held = store.index()

    # The directory is replaced by a different history that lacks a
    # folded scan (and sits at another generation).
    shutil.rmtree(root)
    other = Store(root=root, segment_rows=SEGMENT_ROWS)
    ingest(other, random_rows(rng, most=12), round_id=1, label="s-3")
    assert store.refresh()
    assert store.index() is not held
    assert_index_matches_brute_force(store)
