"""The concurrent query service: snapshots, cache, shedding, metrics."""

import pytest

from repro.clock import ManualClock
from repro.net.ratelimit import RateLimit
from repro.service.query import (
    ENDPOINTS,
    QueryService,
    RateLimitExceeded,
    ServiceError,
)
from repro.store import Store

from .conftest import corrupt_first_block, populate, synthetic_round


class TestEndpoints:
    @pytest.fixture(scope="class")
    def service(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("qsvc") / "obs"
        populate(root, rounds=2)
        return QueryService(store=root)

    def test_accepts_a_path_and_serves_rounds(self, service):
        response = service.request("rounds")
        assert response.value == [1, 2]
        assert response.endpoint == "rounds"
        assert response.generation >= 1

    def test_every_registered_endpoint_is_listed(self, service):
        assert service.endpoints() == sorted(ENDPOINTS)

    def test_device_count(self, service):
        assert service.request("device-count").value == 8

    def test_engine_ids_are_hex(self, service):
        value = service.request("engine-ids").value
        assert len(value) == 8
        assert all(raw == raw.lower() and len(raw) > 10 for raw in value)

    def test_round_summary_requires_argument(self, service):
        with pytest.raises(ServiceError, match="requires a round id"):
            service.request("round-summary")

    def test_round_summary_rejects_garbage_argument(self, service):
        with pytest.raises(ServiceError, match="invalid round id"):
            service.request("round-summary", "not-a-number")

    def test_round_summary_of_missing_round_is_an_error(self, service):
        with pytest.raises(ServiceError, match="no such round"):
            service.request("round-summary", "99")

    def test_round_summary_shape(self, service):
        value = service.request("round-summary", "1").value
        assert value["round"] == 1
        assert set(value["scans"]) == {"v4-1", "v4-2"}
        assert value["scans"]["v4-1"]["rows"] == 8

    def test_history_requires_argument(self, service):
        with pytest.raises(ServiceError, match="requires an address"):
            service.request("history")

    def test_history_is_json_safe(self, service):
        value = service.request("history", "10.1.0.1").value
        assert [row["label"] for row in value] == ["v4-1", "v4-2"]
        assert all(isinstance(row["engine_id"], str) for row in value)

    def test_history_rejects_a_malformed_address(self, tmp_path):
        service = QueryService(store=populate(tmp_path / "obs"))
        with pytest.raises(ServiceError, match="invalid address"):
            service.request("history", "not-an-ip")
        service.request("history", "10.1.0.1")
        history = service.metrics_summary()["endpoints"]["history"]
        assert history["errors"] == 1
        assert history["requests"] == 2 == (
            history["hits"] + history["misses"] + history["errors"] + history["shed"]
        )

    def test_unknown_endpoint_lists_known_ones(self, service):
        with pytest.raises(ServiceError, match="unknown endpoint 'nope'"):
            service.request("nope")

    def test_integrity_passes_on_a_quiet_store(self, service):
        value = service.request("integrity").value
        assert value["consistent"] is True
        assert value["scans"] == 4
        assert value["rows"] == 32

    def test_cache_entries_must_be_positive(self, tmp_path):
        populate(tmp_path / "obs")
        with pytest.raises(ServiceError, match="cache_entries"):
            QueryService(store=tmp_path / "obs", cache_entries=0)


class TestCorruptStore:
    def test_a_corrupt_block_is_an_error_naming_the_part_and_block(
        self, tmp_path
    ):
        """Every endpoint that reads the corrupt block raises a
        ServiceError naming the part and block, counted in ``errors``;
        endpoints that read only the manifest still answer."""
        store = populate(tmp_path / "obs")
        service = QueryService(store=store)
        name = corrupt_first_block(store)
        readers = {
            "integrity": None,
            "history": "10.1.0.1",
            "device-count": None,
            "timeline-summary": None,
        }
        for endpoint, argument in readers.items():
            with pytest.raises(ServiceError) as caught:
                service.request(endpoint, argument)
            message = str(caught.value)
            assert f"{name} block 0" in message, message
            assert "wire version 9" in message, message
        assert service.request("rounds").value == [1, 2]
        summary = service.metrics_summary()
        for endpoint in readers:
            metrics = summary["endpoints"][endpoint]
            assert metrics["errors"] == metrics["requests"] == 1, endpoint
        assert summary["requests"] == (
            summary["hits"] + summary["misses"] + summary["shed"]
            + sum(m["errors"] for m in summary["endpoints"].values())
        )


class TestCache:
    def test_integrity_is_never_served_from_the_cache(self, tmp_path):
        service = QueryService(store=populate(tmp_path / "obs"))
        first = service.request("integrity")
        second = service.request("integrity")
        assert first.generation == second.generation
        assert first.cached is False and second.cached is False
        assert second.value == first.value
        assert service.request("rounds").cached is False
        assert service.request("rounds").cached is True

    def test_second_request_hits_the_cache(self, tmp_path):
        service = QueryService(store=populate(tmp_path / "obs"))
        assert service.request("rounds").cached is False
        assert service.request("rounds").cached is True

    def test_argument_is_part_of_the_key(self, tmp_path):
        service = QueryService(store=populate(tmp_path / "obs"))
        service.request("round-summary", "1")
        assert service.request("round-summary", "2").cached is False
        assert service.request("round-summary", "1").cached is True

    def test_ingest_invalidates_by_bumping_the_generation(self, tmp_path):
        root = tmp_path / "obs"
        service = QueryService(store=populate(root, rounds=2))
        first = service.request("rounds")
        assert service.request("rounds").cached is True

        # A separate Store object (another process, in production) writes.
        writer = Store(root=root)
        for scan in synthetic_round(3):
            writer.ingest_result(scan, round_id=3)

        fresh = service.request("rounds")
        assert fresh.cached is False
        assert fresh.generation > first.generation
        assert fresh.value == [1, 2, 3]

    def test_lru_evicts_oldest_key(self, tmp_path):
        service = QueryService(store=populate(tmp_path / "obs"), cache_entries=2)
        service.request("rounds")
        service.request("device-count")
        service.request("stats")  # evicts "rounds"
        assert service.request("rounds").cached is False
        assert service.request("stats").cached is True


class TestRateLimiting:
    def test_excess_requests_are_shed_not_queued(self, tmp_path):
        clock = ManualClock(0.0)
        service = QueryService(
            store=populate(tmp_path / "obs"),
            rate_limit=RateLimit(rate=1.0, burst=2.0),
            clock=clock,
        )
        service.request("rounds", client="alice")
        service.request("rounds", client="alice")
        with pytest.raises(RateLimitExceeded, match="alice"):
            service.request("rounds", client="alice")
        # Refill on the injected clock re-admits the client.
        clock.advance(1.0)
        assert service.request("rounds", client="alice").cached is True

    def test_buckets_are_per_client(self, tmp_path):
        service = QueryService(
            store=populate(tmp_path / "obs"),
            rate_limit=RateLimit(rate=1.0, burst=1.0),
            clock=ManualClock(0.0),
        )
        service.request("rounds", client="alice")
        service.request("rounds", client="bob")
        with pytest.raises(RateLimitExceeded):
            service.request("rounds", client="alice")

    def test_shed_requests_count_in_metrics(self, tmp_path):
        service = QueryService(
            store=populate(tmp_path / "obs"),
            rate_limit=RateLimit(rate=1.0, burst=1.0),
            clock=ManualClock(0.0),
        )
        service.request("rounds")
        with pytest.raises(RateLimitExceeded):
            service.request("rounds")
        summary = service.metrics_summary()
        assert summary["shed"] == 1
        assert summary["endpoints"]["rounds"]["shed"] == 1


class TestMetrics:
    def test_summary_rolls_up_hits_misses_and_latency(self, tmp_path):
        service = QueryService(store=populate(tmp_path / "obs"))
        service.request("rounds")
        service.request("rounds")
        service.request("device-count")
        summary = service.metrics_summary()
        assert summary["requests"] == 3
        assert summary["hits"] == 1
        assert summary["misses"] == 2
        assert summary["hit_ratio"] == pytest.approx(1 / 3, abs=1e-3)
        rounds = summary["endpoints"]["rounds"]
        assert rounds["requests"] == 2
        assert rounds["p99_ms"] >= rounds["p50_ms"] >= 0.0

    def test_errors_are_counted(self, tmp_path):
        service = QueryService(store=populate(tmp_path / "obs"))
        with pytest.raises(ServiceError):
            service.request("round-summary", "99")
        assert service.metrics_summary()["endpoints"]["round-summary"]["errors"] == 1
