"""The stdlib HTTP front-end: routing, status codes, lifecycle."""

import http.client
import json
import time
import urllib.error
import urllib.request
from statistics import median

import pytest

from repro.clock import ManualClock
from repro.net.ratelimit import RateLimit
from repro.service.http import ServiceHttpServer
from repro.service.query import QueryService

from .conftest import corrupt_first_block, populate


def fetch(address, path):
    host, port = address
    try:
        with urllib.request.urlopen(f"http://{host}:{port}{path}") as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture(scope="module")
def server(served_store):
    service = QueryService(store=served_store)
    with ServiceHttpServer(service=service, port=0) as server:
        server.start()
        yield server


class TestRouting:
    def test_healthz(self, server):
        status, body = fetch(server.address, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["generation"] >= 1

    def test_v1_endpoint_carries_the_pinned_generation(self, server):
        status, body = fetch(server.address, "/v1/rounds")
        assert status == 200
        assert body["value"] == [1, 2]
        assert body["endpoint"] == "rounds"
        assert isinstance(body["generation"], int)

    def test_repeat_requests_hit_the_cache(self, server):
        fetch(server.address, "/v1/device-count")
        status, body = fetch(server.address, "/v1/device-count")
        assert status == 200
        assert body["cached"] is True

    def test_arg_parameter_reaches_the_endpoint(self, server):
        status, body = fetch(server.address, "/v1/round-summary?arg=1")
        assert status == 200
        assert body["value"]["round"] == 1

    def test_unknown_endpoint_is_404(self, server):
        status, body = fetch(server.address, "/v1/nope")
        assert status == 404
        assert "unknown endpoint" in body["error"]

    def test_bad_argument_is_400(self, server):
        status, body = fetch(server.address, "/v1/round-summary?arg=zzz")
        assert status == 400
        assert "invalid round id" in body["error"]

    def test_unknown_path_is_404(self, server):
        status, body = fetch(server.address, "/elsewhere")
        assert status == 404
        assert "no such path" in body["error"]

    def test_metrics_rolls_up_the_traffic(self, server):
        fetch(server.address, "/v1/stats")
        status, body = fetch(server.address, "/metrics")
        assert status == 200
        assert body["requests"] >= 1
        assert "stats" in body["endpoints"]


class TestRateLimiting:
    def test_shed_requests_are_429(self, tmp_path):
        service = QueryService(
            store=populate(tmp_path / "obs"),
            rate_limit=RateLimit(rate=0.001, burst=2.0),
            clock=ManualClock(0.0),
        )
        with ServiceHttpServer(service=service, port=0) as server:
            server.start()
            codes = [
                fetch(server.address, "/v1/rounds?client=alice")[0]
                for _ in range(3)
            ]
        assert codes == [200, 200, 429]

    def test_client_parameter_scopes_the_bucket(self, tmp_path):
        service = QueryService(
            store=populate(tmp_path / "obs"),
            rate_limit=RateLimit(rate=0.001, burst=1.0),
            clock=ManualClock(0.0),
        )
        with ServiceHttpServer(service=service, port=0) as server:
            server.start()
            assert fetch(server.address, "/v1/rounds?client=a")[0] == 200
            assert fetch(server.address, "/v1/rounds?client=b")[0] == 200
            assert fetch(server.address, "/v1/rounds?client=a")[0] == 429


class TestKeepAlive:
    def test_one_connection_serves_mixed_answers_without_stalls(
        self, tmp_path
    ):
        """Twenty requests over one keep-alive connection: small and
        large (over 8 KB) answers and errors all frame correctly, the
        socket is never replaced, and no answer waits on a delayed ACK
        (~44 ms each when headers and body leave as two Nagle-held
        sends)."""
        service = QueryService(
            store=populate(tmp_path / "obs", rounds=1, devices=600)
        )
        mix = [
            ("/v1/rounds", 200),
            ("/v1/engine-ids", 200),
            ("/v1/nope", 404),
            ("/v1/round-summary?arg=zzz", 400),
        ]
        with ServiceHttpServer(service=service, port=0) as server:
            server.start()
            conn = http.client.HTTPConnection(*server.address, timeout=10)
            try:
                round_trips = []
                sizes = {}
                sock = None
                for path, expected in mix * 5:
                    started = time.perf_counter()
                    conn.request("GET", path)
                    response = conn.getresponse()
                    raw = response.read()
                    round_trips.append(time.perf_counter() - started)
                    assert response.status == expected, path
                    body = json.loads(raw)
                    assert ("value" in body) == (expected == 200)
                    sizes[path] = len(raw)
                    if sock is None:
                        sock = conn.sock
                    assert conn.sock is sock  # never reconnected
                conn.request("GET", "/healthz")
                assert json.loads(conn.getresponse().read())["status"] == "ok"
                assert conn.sock is sock
            finally:
                conn.close()
        assert sizes["/v1/rounds"] < 100
        assert sizes["/v1/engine-ids"] > 8192
        assert median(round_trips) < 0.020

    def test_bad_history_address_is_400_and_keeps_the_connection(
        self, server
    ):
        """A malformed address is answered, not dropped: the socket
        serves the next request."""
        conn = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            conn.request("GET", "/v1/history?arg=not-an-ip")
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert "invalid address" in body["error"]
            sock = conn.sock
            conn.request("GET", "/v1/history?arg=10.1.0.1")
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 200
            assert [row["round"] for row in body["value"]] == [1, 1]
            assert conn.sock is sock
        finally:
            conn.close()


    def test_corrupt_block_is_500_and_keeps_the_connection(self, tmp_path):
        """A block that fails to decode is answered 500 with an error
        naming the part and block, counted in ``errors``, and the
        socket serves the next request."""
        store = populate(tmp_path / "obs")
        service = QueryService(store=store)
        name = corrupt_first_block(store)
        with ServiceHttpServer(service=service, port=0) as server:
            server.start()
            conn = http.client.HTTPConnection(*server.address, timeout=10)
            try:
                sock = None
                for path in ("/v1/integrity", "/v1/history?arg=10.1.0.1"):
                    conn.request("GET", path)
                    response = conn.getresponse()
                    body = json.loads(response.read())
                    assert response.status == 500, path
                    assert f"{name} block 0" in body["error"], body
                    sock = sock or conn.sock
                    assert conn.sock is sock
                conn.request("GET", "/v1/rounds")
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["value"] == [1, 2]
                assert conn.sock is sock
            finally:
                conn.close()
        endpoints = service.metrics_summary()["endpoints"]
        assert endpoints["integrity"]["errors"] == 1
        assert endpoints["history"]["errors"] == 1


class TestLifecycle:
    def test_close_is_idempotent_and_releases_the_port(self, tmp_path):
        service = QueryService(store=populate(tmp_path / "obs"))
        server = ServiceHttpServer(service=service, port=0)
        server.start()
        host, port = server.address
        server.close()
        server.close()  # idempotent
        # The port is free again: a new server can bind it immediately.
        rebound = ServiceHttpServer(service=service, host=host, port=port)
        rebound.close()
