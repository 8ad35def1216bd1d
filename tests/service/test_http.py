"""The stdlib HTTP front-end: routing, status codes, lifecycle."""

import http.client
import json
import time
import urllib.error
import urllib.request

import pytest

from repro.clock import ManualClock
from repro.net.ratelimit import RateLimit
from repro.service.http import ServiceHttpServer
from repro.service.query import QueryService

from .conftest import populate


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


class TestBadAddress:
    @pytest.mark.parametrize("arg", ["bogus", "%ff"])
    def test_history_of_a_bad_address_is_400_and_keeps_the_connection(
        self, server, arg
    ):
        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request("GET", f"/v1/history?arg={arg}")
            response = connection.getresponse()
            assert response.status == 400
            assert "invalid address" in json.loads(response.read())["error"]
            connection.request("GET", "/v1/history?arg=10.1.0.1")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["endpoint"] == "history"
        finally:
            connection.close()
        status, body = fetch(server.address, "/metrics")
        assert status == 200
        assert body["endpoints"]["history"]["errors"] >= 1


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


class TestKeepAlive:
    def test_sequential_requests_do_not_wait_on_delayed_ack(self, server):
        """Headers and body go out as two writes; with Nagle on, each
        keep-alive reply stalls about 40 ms on the client's delayed ACK,
        so 40 requests would take at least 1.6 s."""
        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            started = time.perf_counter()
            for _ in range(40):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["status"] == "ok"
            elapsed = time.perf_counter() - started
        finally:
            connection.close()
        assert elapsed < 1.0, f"40 keep-alive requests took {elapsed:.2f}s"
