"""Snapshot isolation under fire: readers vs concurrent ingest + compaction.

The store's claim is that a reader pinned to one manifest generation can
never observe a torn mix of two generations.  These tests race real
reader threads over a mix of point, index, timeline and audit endpoints
against a writer that keeps ingesting multi-part rounds and compacting
them; the ``integrity`` endpoint recounts every scan's rows against the
manifest totals, so any torn read fails loudly.
"""

import threading

from repro.service.query import QueryService
from repro.store import Store

from .conftest import populate, synthetic_round

READERS = 4
WRITER_ROUNDS = 10
#: Each reader cycles through this mix from its own offset, so the
#: endpoints in flight at any moment differ.  10.1.0.1 answers in round 1.
MIX = (
    ("rounds", None),
    ("device-count", None),
    ("integrity", None),
    ("vendor-census", None),
    ("history", "10.1.0.1"),
    ("timeline-summary", None),
    ("integrity", None),
    ("stats", None),
)


class TestSnapshotIsolation:
    def test_readers_never_observe_a_torn_generation(self, tmp_path):
        root = tmp_path / "obs"
        populate(root, rounds=2)
        service = QueryService(store=root, cache_entries=8)
        writer = Store(root=root, segment_rows=4)

        # Later rounds answer on other addresses with the same engines,
        # so these answers hold at every generation the writer makes.
        invariant = {
            (endpoint, argument): service.request(endpoint, argument).value
            for endpoint, argument in MIX
            if endpoint in ("history", "device-count", "vendor-census")
        }
        stop = threading.Event()
        failures: list[str] = []
        generations: dict[int, list[int]] = {}
        integrity_samples = [0] * READERS

        def read(worker: int) -> None:
            seen: list[int] = generations.setdefault(worker, [])
            step = worker
            while not stop.is_set():
                endpoint, argument = MIX[step % len(MIX)]
                step += 1
                try:
                    response = service.request(endpoint, argument)
                except Exception as error:  # noqa: BLE001 - collected
                    failures.append(f"{endpoint}: {type(error).__name__}: {error}")
                    return
                seen.append(response.generation)
                want = invariant.get((endpoint, argument), response.value)
                if response.value != want:
                    failures.append(f"{endpoint}: {response.value} != {want}")
                if endpoint == "integrity":
                    integrity_samples[worker] += 1
                    if response.value["consistent"] is not True:
                        failures.append(f"inconsistent: {response.value}")
                elif endpoint == "rounds" and response.value != sorted(
                    response.value
                ):
                    failures.append(f"unsorted rounds: {response.value}")

        threads = [
            threading.Thread(target=read, args=(n,)) for n in range(READERS)
        ]
        for thread in threads:
            thread.start()
        compactions = 0
        try:
            # Interleave ingest and compaction: every ingest bumps the
            # generation; every compaction additionally deletes the
            # obsolete parts readers may still be holding.
            for round_id in range(3, 3 + WRITER_ROUNDS):
                for scan in synthetic_round(round_id):
                    writer.ingest_result(scan, round_id=round_id)
                if round_id % 2:
                    writer.compact()
                    compactions += 1
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[:5]
        assert compactions >= 2, "the window must cover two compactions"
        assert sum(integrity_samples) > 0, "no integrity sample completed"

        for worker, seen in generations.items():
            assert seen, f"reader {worker} never completed a query"
            # Generations are monotonic per reader: the service never
            # falls back to an older manifest once it adopted a newer one.
            assert seen == sorted(seen), f"reader {worker} went backwards"
        # The writer's churn was actually observed while it was running.
        final = max(max(seen) for seen in generations.values())
        assert final >= service.generation - 1
        assert service.request("rounds").value == list(
            range(1, 3 + WRITER_ROUNDS)
        )
        # A service that served through the churn answers like a new one.
        fresh = QueryService(store=root)
        for endpoint, argument in MIX:
            assert (
                service.request(endpoint, argument).value
                == fresh.request(endpoint, argument).value
            ), endpoint

    def test_cache_keys_pin_generations_across_compaction(self, tmp_path):
        root = tmp_path / "obs"
        service = QueryService(store=populate(root, rounds=3))
        before = service.request("device-count")
        writer = Store(root=root, segment_rows=4)
        writer.compact()
        after = service.request("device-count")
        # Compaction changed the physical layout (new generation, cold
        # cache) but not a single answer.
        assert after.generation > before.generation
        assert after.cached is False
        assert after.value == before.value
