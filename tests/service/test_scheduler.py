"""The scheduler daemon: determinism, serving, overlap, resume, graceful drain."""

import pytest

from repro.api import Session
from repro.clock import ManualClock, PerfCounterClock
from repro.service.query import QueryService
from repro.service.scheduler import DEFAULT_JOBS, JobSpec

#: A compressed schedule: one sweep then interleaved re-probes.
FAST_JOBS = (
    JobSpec(name="sweep", kind="sweep", period=100.0, jitter=5.0),
    JobSpec(name="reprobe", kind="reprobe", period=40.0, offset=50.0,
            jitter=2.0),
)

SCALE = 16_000.0


def make_scheduler(root, *, seed=11, jobs=FAST_JOBS, clock=None, scale=SCALE):
    session = Session(scale=scale, seed=seed, store=root)
    return session.scheduler(
        jobs=jobs, clock=clock if clock is not None else ManualClock(0.0)
    )


class TestJobSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            JobSpec(name="x", kind="audit", period=1.0)

    def test_rejects_non_positive_period(self):
        with pytest.raises(ValueError, match="period"):
            JobSpec(name="x", kind="sweep", period=0.0)

    def test_rejects_negative_offset_or_jitter(self):
        with pytest.raises(ValueError, match=">= 0"):
            JobSpec(name="x", kind="sweep", period=1.0, jitter=-1.0)

    def test_default_jobs_cover_both_kinds(self):
        assert {job.kind for job in DEFAULT_JOBS} == {"sweep", "reprobe"}


class TestConstruction:
    def test_requires_a_store(self):
        session = Session(scale=SCALE, seed=1)
        with pytest.raises(ValueError, match="store"):
            session.scheduler()

    def test_rejects_duplicate_job_names(self, tmp_path):
        session = Session(scale=SCALE, seed=1, store=tmp_path / "obs")
        twin = (FAST_JOBS[0], JobSpec(name="sweep", kind="reprobe", period=9.0))
        with pytest.raises(ValueError, match="unique"):
            session.scheduler(jobs=twin)

    def test_run_requires_a_bound(self, tmp_path):
        scheduler = make_scheduler(tmp_path / "obs")
        with pytest.raises(ValueError, match="bound"):
            scheduler.run()

    def test_non_manual_clock_requires_a_waiter(self, tmp_path):
        session = Session(scale=SCALE, seed=1, store=tmp_path / "obs")
        scheduler = session.scheduler(jobs=FAST_JOBS, clock=PerfCounterClock())
        with pytest.raises(ValueError, match="waiter"):
            scheduler.run(max_runs=1)


class TestDeterminism:
    def test_replay_is_byte_identical(self, tmp_path):
        """Same seed, fresh store, fresh clock: identical runs end to end.

        The fingerprint field hashes the round's segment bytes, so
        equality here is the acceptance bar: same job order, same due
        times, same scan results, byte-identical segments.
        """
        first = make_scheduler(tmp_path / "a").run(max_runs=4)
        second = make_scheduler(tmp_path / "b").run(max_runs=4)
        assert [r.to_dict() for r in first] == [r.to_dict() for r in second]
        assert all(run.fingerprint for run in first)

    def test_jitter_is_seeded_per_job_and_firing(self, tmp_path):
        runs = make_scheduler(tmp_path / "a", seed=3).run(max_runs=3)
        other = make_scheduler(tmp_path / "b", seed=4).run(max_runs=3)
        assert [r.due for r in runs] != [r.due for r in other]

    def test_jobs_fire_in_due_order(self, tmp_path):
        runs = make_scheduler(tmp_path / "obs").run(max_runs=4)
        assert [r.due for r in runs] == sorted(r.due for r in runs)
        assert [r.job for r in runs] == ["sweep", "reprobe", "reprobe", "sweep"]

    def test_until_bound_stops_before_future_jobs(self, tmp_path):
        runs = make_scheduler(tmp_path / "obs").run(until=60.0)
        assert [r.job for r in runs] == ["sweep", "reprobe"]
        assert all(r.due <= 60.0 for r in runs)


class TestExecution:
    def test_sweep_ingests_a_full_round(self, tmp_path):
        scheduler = make_scheduler(tmp_path / "obs")
        (run,) = scheduler.run(max_runs=1)
        store = Session(scale=SCALE, seed=11, store=tmp_path / "obs").store
        assert run.kind == "sweep"
        assert run.round_id == 1
        assert set(store.labels(1)) == {"v4-1", "v4-2", "v6-1", "v6-2"}
        assert run.rows > 0

    def test_reprobe_rounds_only_carry_reprobe_labels(self, tmp_path):
        scheduler = make_scheduler(tmp_path / "obs")
        runs = scheduler.run(max_runs=2)
        store = scheduler._store
        assert runs[1].kind == "reprobe"
        labels = store.labels(runs[1].round_id)
        assert labels
        assert all(label.startswith("reprobe-") for label in labels)

    def test_quiet_network_still_checkpoints_an_empty_round(self, tmp_path):
        """With no prior round there is no churn: the reprobe ingests an
        empty scan so the firing still counts across restarts."""
        jobs = (JobSpec(name="reprobe", kind="reprobe", period=10.0),)
        session = Session(scale=SCALE, seed=11, store=tmp_path / "obs")
        scheduler = session.scheduler(jobs=jobs)
        (run,) = scheduler.run(max_runs=1)
        assert run.rows == 0 and run.targets == 0
        assert session.store.labels(run.round_id) == ["reprobe-v4"]


class TestServing:
    def test_a_service_open_across_firings_answers_like_a_fresh_one(
        self, tmp_path
    ):
        """A service kept open while the scheduler fires grows its store
        index scan by scan, sweeps and re-probes alike; it must answer
        the index endpoints like a service opened afterwards, over a
        store that passes the integrity audit."""
        indexed = ("device-count", "engine-ids", "vendor-census",
                   "enterprise-census", "oui-census")
        root = tmp_path / "obs"
        scheduler = make_scheduler(root, scale=2000.0)
        live = QueryService(store=root)
        for _ in range(4):
            scheduler.run(max_runs=1)
            for endpoint in indexed:
                live.request(endpoint)
        fresh = QueryService(store=root)
        assert fresh.request("device-count").value > 0
        for endpoint in indexed:
            assert (
                live.request(endpoint).value == fresh.request(endpoint).value
            ), endpoint
        assert fresh.request("integrity").value["consistent"] is True


class TestOverlapSuppression:
    def test_overrunning_job_skips_missed_firings(self, tmp_path):
        clock = ManualClock(0.0)
        scheduler = make_scheduler(tmp_path / "obs", clock=clock)

        def slow_execute(job, firing):
            clock.advance(250.0)  # overruns both periods several times
            return None, 0, 0, ""

        scheduler._execute = slow_execute
        runs = scheduler.run(max_runs=4)
        assert runs[0].skipped_firings >= 2
        # Suppression is per-job: each job rejoins at a slot strictly in
        # the future of its own overrun (no backlog of missed firings).
        for name in ("sweep", "reprobe"):
            mine = [r for r in runs if r.job == name]
            for earlier, later in zip(mine, mine[1:]):
                assert later.due >= earlier.finished
                assert later.firing > earlier.firing + earlier.skipped_firings

    def test_on_time_jobs_skip_nothing(self, tmp_path):
        runs = make_scheduler(tmp_path / "obs").run(max_runs=3)
        assert all(run.skipped_firings == 0 for run in runs)


class TestResume:
    def test_firing_counters_resume_from_the_manifest(self, tmp_path):
        root = tmp_path / "obs"
        first = make_scheduler(root).run(max_runs=3)  # sweep, reprobe x2
        resumed = make_scheduler(root)
        assert resumed.incomplete_rounds == []
        runs = resumed.run(max_runs=2)
        # Continues numbering: sweep firing 1, reprobe firing 2.
        assert [(r.job, r.firing) for r in runs] == [
            ("sweep", 1), ("reprobe", 2),
        ]
        assert runs[0].round_id == first[-1].round_id + 1

    def test_resumed_schedule_matches_an_uninterrupted_run(self, tmp_path):
        """The manifest checkpoint reconstructs the exact schedule.

        Due times, job order, firing numbers and round ids all line up
        with the uninterrupted run; scan *contents* may differ because
        the simulated world's aging state lives in the session (a real
        network carries its own state across daemon restarts).
        """
        whole = make_scheduler(tmp_path / "a").run(max_runs=5)
        make_scheduler(tmp_path / "b").run(max_runs=3)
        tail = make_scheduler(tmp_path / "b").run(max_runs=2)
        assert [
            (r.job, r.firing, r.due, r.round_id) for r in tail
        ] == [
            (r.job, r.firing, r.due, r.round_id) for r in whole[3:]
        ]

    def test_partial_rounds_are_surfaced_never_reused(self, tmp_path):
        from .conftest import make_obs

        root = tmp_path / "obs"
        scheduler = make_scheduler(root)
        scheduler.run(max_runs=1)
        # A crash mid-sweep leaves a round with only some campaign labels.
        store = scheduler._store
        store.ingest_scan(
            [make_obs("10.9.0.1", 1.0, None)],
            round_id=2,
            label="v4-1",
            ip_version=4,
            started_at=1.0,
            finished_at=2.0,
        )
        resumed = make_scheduler(root)
        assert resumed.incomplete_rounds == [2]
        (run,) = resumed.run(max_runs=1)
        assert run.round_id == 3  # fresh id; round 2 left as evidence
        assert resumed.summary()["incomplete_rounds"] == [2]


class TestDrain:
    def test_stop_request_finishes_the_inflight_job(self, tmp_path):
        scheduler = make_scheduler(tmp_path / "obs")
        original = scheduler._execute

        def stopping_execute(job, firing):
            scheduler.request_stop()
            return original(job, firing)

        scheduler._execute = stopping_execute
        runs = scheduler.run(max_runs=5)
        assert len(runs) == 1
        assert runs[0].fingerprint  # the job completed and ingested

    def test_summary_reports_progress(self, tmp_path):
        scheduler = make_scheduler(tmp_path / "obs")
        scheduler.run(max_runs=3)
        summary = scheduler.summary()
        assert summary["runs"] == 3
        assert summary["jobs"]["sweep"]["completed"] == 1
        assert summary["jobs"]["reprobe"]["completed"] == 2
        assert summary["jobs"]["reprobe"]["next_firing"] == 2
