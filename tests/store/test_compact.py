"""Compaction: bytes on disk change, no query or timeline answer does."""

import ipaddress

import pytest

from repro.store import Store
from repro.store.query import StoreQuery

from tests.store.conftest import random_rounds, store_fingerprint


def build_store(root, corpus, *, segment_rows):
    """Ingest a corpus with tiny parts so compaction has work to do."""
    store = Store(root=root, segment_rows=segment_rows)
    for round_id, scans in corpus:
        for label, started_at, observations in scans:
            store.ingest_scan(
                observations,
                round_id=round_id,
                label=label,
                ip_version=4,
                started_at=started_at,
            )
    return store


def all_answers(store):
    """Every externally visible answer, as one comparable structure."""
    query = StoreQuery(store=store)
    addresses = sorted(
        {s.observation.address for s in store.observations()}, key=int
    )
    return {
        "rounds": store.rounds(),
        "labels": {r: store.labels(r) for r in store.rounds()},
        "observations": [
            (s.round_id, s.label, s.observation) for s in store.observations()
        ],
        "history": {
            str(a): [
                (s.round_id, s.label, s.observation) for s in store.history(a)
            ]
            for a in addresses
        },
        "vendor_census": query.vendor_census(),
        "engine_ids": query.engine_ids(),
        "reboot_events": query.reboot_events(),
        "alias_diffs": [
            (d.prev_round, d.next_round, d.born, d.died, d.moved)
            for d in query.alias_diffs()
        ],
        "uptimes": query.uptime_ecdf_inputs(),
        "timeline_summary": query.timeline_summary(),
    }


class TestCompactInvariance:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("segment_rows", [3, 7])
    def test_answers_identical_bytes_not(self, tmp_path, seed, segment_rows):
        """Property: for random corpora and part sizes, compaction is
        invisible to every query and timeline answer."""
        corpus = random_rounds(seed, rounds=3, devices=10)
        store = build_store(tmp_path / "s", corpus, segment_rows=segment_rows)

        before_answers = all_answers(store)
        before_fp = store_fingerprint(store)
        before_segments = store.stats()["segments"]

        stats = store.compact()
        assert stats.segments_before == before_segments
        assert stats.segments_after < stats.segments_before
        assert stats.scans_compacted > 0

        assert store_fingerprint(store) != before_fp
        assert all_answers(store) == before_answers

        # A reopened store agrees too: the swap was durable.
        reopened = Store.open(tmp_path / "s")
        assert all_answers(reopened) == before_answers

    def test_compact_is_idempotent(self, tmp_path):
        corpus = random_rounds(3, rounds=2, devices=8)
        store = build_store(tmp_path / "s", corpus, segment_rows=4)
        store.compact()
        answers = all_answers(store)
        fp = store_fingerprint(store)
        second = store.compact()
        assert second.scans_compacted == 0
        assert store_fingerprint(store) == fp
        assert all_answers(store) == answers

    def test_obsolete_segments_deleted(self, tmp_path):
        corpus = random_rounds(1, rounds=2, devices=8)
        store = build_store(tmp_path / "s", corpus, segment_rows=3)
        segment_dir = tmp_path / "s" / "segments"
        before = {p.name for p in segment_dir.iterdir()}
        store.compact()
        after = {p.name for p in segment_dir.iterdir()}
        live = {
            p.name
            for r in store.rounds()
            for label in store.labels(r)
            for p in store.segment_paths(r, label)
        }
        assert after == live
        assert not (before - live) & after

    def test_point_lookup_after_compact(self, tmp_path):
        corpus = random_rounds(5, rounds=3, devices=10)
        store = build_store(tmp_path / "s", corpus, segment_rows=4)
        target = next(iter(store.observations())).observation.address
        before = [
            (s.round_id, s.label, s.observation)
            for s in store.history(target)
        ]
        store.compact()
        assert [
            (s.round_id, s.label, s.observation)
            for s in store.history(target)
        ] == before
        assert store.history(ipaddress.ip_address("203.0.113.77")) == []
