"""Timeline folding vs a brute-force in-memory reference recomputation."""

import dataclasses
import ipaddress
import random

import pytest

from repro.scanner.wire import decode_columns, encode_observations
from repro.store.timeline import (
    DEFAULT_REBOOT_THRESHOLD,
    KIND_BOOTS_INCREMENT,
    KIND_TIME_REGRESSION,
    TimelineAccumulator,
    TimelineError,
)

from tests.store.conftest import make_engine, make_obs, random_rounds


def brute_force(corpus, threshold=DEFAULT_REBOOT_THRESHOLD):
    """Recompute every longitudinal answer directly from the raw rounds.

    Deliberately structured nothing like TimelineAccumulator: flatten
    all (engine, scan) representative sightings into one global list,
    then derive events and memberships from scratch.
    """
    # One representative (lowest address) per engine per scan, globally.
    sightings = []  # (round_id, started_at, label, raw, sighting-tuple)
    memberships = {}  # round_id -> {address: raw} with latest scan winning
    for round_id, scans in corpus:
        membership = {}
        for label, started_at, observations in sorted(
            scans, key=lambda s: (s[1], s[0])
        ):
            reps = {}
            for obs in observations:
                if obs.engine_id is None:
                    continue
                raw = obs.engine_id.raw
                membership[obs.address] = raw
                prev = reps.get(raw)
                if prev is None or int(obs.address) < int(prev.address):
                    reps[raw] = obs
            for raw, obs in reps.items():
                sightings.append((round_id, started_at, label, raw, obs))
        memberships[round_id] = membership

    # Reboot events: walk each engine's representative sightings in time.
    events = []
    per_engine = {}
    for round_id, started_at, label, raw, obs in sightings:
        per_engine.setdefault(raw, []).append((round_id, started_at, label, obs))
    for raw, seq in per_engine.items():
        seq.sort(key=lambda item: (item[0], item[1], item[2]))
        for before, after in zip(seq, seq[1:]):
            prev_obs, next_obs = before[3], after[3]
            prev_reboot = prev_obs.recv_time - float(prev_obs.engine_time)
            next_reboot = next_obs.recv_time - float(next_obs.engine_time)
            if next_reboot - prev_reboot <= threshold:
                continue
            kind = (
                KIND_BOOTS_INCREMENT
                if next_obs.engine_boots > prev_obs.engine_boots
                else KIND_TIME_REGRESSION
            )
            events.append(
                (after[0], after[2], raw, kind,
                 prev_obs.engine_boots, next_obs.engine_boots)
            )
    events.sort(key=lambda e: (e[0], e[1], e[2]))

    # Alias diffs between consecutive rounds.
    diffs = []
    round_ids = [round_id for round_id, __ in corpus]
    for prev_id, next_id in zip(round_ids, round_ids[1:]):
        prev, nxt = memberships[prev_id], memberships[next_id]
        diffs.append(
            (
                prev_id,
                next_id,
                frozenset(a for a in nxt if a not in prev),
                frozenset(a for a in prev if a not in nxt),
                frozenset(a for a in nxt if a in prev and prev[a] != nxt[a]),
            )
        )

    uptimes = sorted(
        obs.engine_time for __, __, __, __, obs in sightings
    )
    return events, diffs, uptimes


#: Rows per encoded batch, so most scans arrive as several batches.
BATCH_ROWS = 3


def fold(acc, round_id, scans):
    """Fold ``(label, started_at, rows)`` scans the way the store does:
    each scan's rows are encoded to wire blobs of ``BATCH_ROWS`` rows and
    handed over as their decoded columns."""
    acc.fold_round(
        round_id,
        [
            (
                label,
                started_at,
                [
                    decode_columns(encode_observations(rows[at : at + BATCH_ROWS]))
                    for at in range(0, len(rows), BATCH_ROWS)
                ],
            )
            for label, started_at, rows in scans
        ],
    )


def fold_corpus(corpus, **kwargs):
    acc = TimelineAccumulator(**kwargs)
    for round_id, scans in corpus:
        fold(acc, round_id, scans)
    return acc


def assert_matches_brute_force(corpus):
    acc = fold_corpus(corpus)
    events, diffs, uptimes = brute_force(corpus)
    got_events = [
        (e.round_id, e.label, e.engine_id, e.kind, e.boots_before, e.boots_after)
        for e in acc.reboot_events()
    ]
    assert got_events == events
    got_diffs = [
        (d.prev_round, d.next_round, d.born, d.died, d.moved)
        for d in acc.diffs
    ]
    assert got_diffs == diffs
    assert acc.uptime_ecdf_inputs() == uptimes


class TestHandcrafted:
    def test_matches_brute_force(self, three_rounds):
        assert_matches_brute_force(three_rounds)

    def test_expected_events(self, three_rounds):
        acc = fold_corpus(three_rounds)
        a, b, c = make_engine(1), make_engine(2), make_engine(3)

        events = acc.reboot_events()
        assert [(e.engine_id, e.round_id, e.kind) for e in events] == [
            (a.raw, 2, KIND_BOOTS_INCREMENT),
            (b.raw, 3, KIND_TIME_REGRESSION),
        ]
        a_event = events[0]
        assert (a_event.boots_before, a_event.boots_after) == (2, 3)
        b_event = events[1]
        assert (b_event.boots_before, b_event.boots_after) == (7, 7)

        ip = ipaddress.ip_address
        assert [
            (d.prev_round, d.next_round, d.born, d.died, d.moved)
            for d in acc.diffs
        ] == [
            (1, 2,
             frozenset({ip("10.0.0.3"), ip("10.0.0.4")}),
             frozenset({ip("10.0.0.2")}),
             frozenset()),
            (2, 3,
             frozenset({ip("10.0.0.2")}),
             frozenset({ip("10.0.0.1"), ip("10.0.0.4")}),
             frozenset({ip("10.0.0.3")})),
        ]

    def test_member_history(self, three_rounds):
        acc = fold_corpus(three_rounds)
        b = make_engine(2)
        timeline = acc.timelines[b.raw]
        ip = ipaddress.ip_address
        assert timeline.member_history() == [
            (1, frozenset({ip("10.0.0.2")})),
            (2, frozenset({ip("10.0.0.3")})),
            (3, frozenset({ip("10.0.0.2")})),
        ]
        assert timeline.first_round == 1
        assert timeline.last_round == 3
        assert timeline.rounds_seen == 3

    def test_summary_counts(self, three_rounds):
        acc = fold_corpus(three_rounds)
        summary = acc.summary()
        assert summary["rounds"] == [1, 2, 3]
        assert summary["devices"] == 3
        assert summary["reboot_events"] == 2
        assert summary["boots_increment_events"] == 1
        assert summary["time_regression_events"] == 1
        assert [d["moved"] for d in summary["diffs"]] == [0, 1]


class TestRandomCorpora:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        assert_matches_brute_force(random_rounds(seed))

    @pytest.mark.parametrize("seed", [100, 101])
    def test_larger_corpora(self, seed):
        assert_matches_brute_force(
            random_rounds(seed, rounds=5, devices=40)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_lowest_address_represents_an_aliased_engine(self, seed):
        """Half the rows gain an alias row: the same engine on a second
        address, lower or higher than the first, reporting an engine
        time 500 s apart.  Which row represents the engine in its scan
        now decides the events, and it must be the lowest address.
        (The reference's uptimes are its representatives only, while
        the accumulator samples every row, so uptimes are compared with
        every row's engine time instead.)"""
        rng = random.Random(seed)
        corpus = [
            (round_id, [
                (label, started, observations + [
                    dataclasses.replace(
                        obs,
                        address=ipaddress.ip_address(
                            f"10.0.50.{obs.engine_id.raw[-1] + 1}"
                        ),
                        engine_time=obs.engine_time + rng.choice((-500, 500)),
                    )
                    for obs in observations
                    if rng.random() < 0.5
                ])
                for label, started, observations in scans
            ])
            for round_id, scans in random_rounds(seed)
        ]
        acc = fold_corpus(corpus)
        events, diffs, __ = brute_force(corpus)
        assert [
            (e.round_id, e.label, e.engine_id, e.kind, e.boots_before, e.boots_after)
            for e in acc.reboot_events()
        ] == events
        assert [
            (d.prev_round, d.next_round, d.born, d.died, d.moved)
            for d in acc.diffs
        ] == diffs
        assert acc.uptime_ecdf_inputs() == sorted(
            obs.engine_time
            for __, scans in corpus
            for __, __, observations in scans
            for obs in observations
        )

    def test_within_scan_order_is_irrelevant(self):
        corpus = random_rounds(7)
        shuffled = [
            (round_id, [
                (label, started, list(reversed(observations)))
                for label, started, observations in scans
            ])
            for round_id, scans in corpus
        ]
        base, other = fold_corpus(corpus), fold_corpus(shuffled)
        assert base.reboot_events() == other.reboot_events()
        assert [
            (d.born, d.died, d.moved) for d in base.diffs
        ] == [(d.born, d.died, d.moved) for d in other.diffs]


class TestFoldContract:
    def test_out_of_order_round_raises(self, three_rounds):
        acc = TimelineAccumulator()
        fold(acc, 2, three_rounds[1][1])
        with pytest.raises(TimelineError, match="out of order"):
            fold(acc, 1, three_rounds[0][1])
        with pytest.raises(TimelineError):
            fold(acc, 2, three_rounds[1][1])

    def test_threshold_suppresses_small_jumps(self):
        engine = make_engine(5)
        scans = [
            ("s-1", 100.0, [make_obs("10.0.0.1", 100.0, engine,
                                     boots=1, engine_time=50)]),
            ("s-2", 200.0, [make_obs("10.0.0.1", 200.0, engine,
                                     boots=1, engine_time=145)]),
        ]
        acc = TimelineAccumulator()
        fold(acc, 1, scans)
        # last_reboot drifts 50 -> 55: below the 10s threshold.
        assert acc.reboot_events() == []
        loose = TimelineAccumulator(reboot_threshold=4.0)
        fold(loose, 1, scans)
        assert len(loose.reboot_events()) == 1

    def test_anonymous_observations_ignored(self):
        scans = [("s-1", 1.0, [make_obs("10.0.0.1", 1.0, None)])]
        acc = TimelineAccumulator()
        fold(acc, 1, scans)
        assert acc.timelines == {}
        assert acc.summary()["devices"] == 0
