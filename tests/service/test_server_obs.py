"""Observability routes and headers on the legacy threaded server."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs import get_tracer, set_tracing, tracing_enabled
from repro.obs.context import parse_traceparent
from repro.service import MeasureService, MeasureStore, make_server
from repro.service.server import shutdown_gracefully

from tests.service.conftest import make_records


@pytest.fixture(autouse=True)
def _tracer_isolation():
    was = tracing_enabled()
    get_tracer().reset()
    yield
    set_tracing(was)
    get_tracer().reset()


@pytest.fixture()
def server(tmp_path, service_workflow):
    store = MeasureStore(str(tmp_path / "store"))
    svc = MeasureService(store, service_workflow)
    svc.bootstrap(make_records(600, seed=51))
    server = make_server(
        svc,
        port=0,
        access_log_path=str(tmp_path / "access.log"),
        slow_query_path=str(tmp_path / "slow.log"),
        slow_query_seconds=0.0,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    shutdown_gracefully(server)
    server.server_close()


@pytest.fixture()
def served(server, tmp_path):
    port = server.server_address[1]
    return f"http://127.0.0.1:{port}", str(tmp_path / "access.log")


def _get(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request) as response:
            return (
                response.status,
                json.loads(response.read()),
                dict(response.headers),
            )
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


class TestHealthAndStatus:
    def test_healthz_reports_store_facts(self, served):
        url, __ = served
        status, health, __ = _get(f"{url}/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["generation"] >= 1
        assert health["facts"] > 0
        assert health["uptime_seconds"] >= 0

    def test_statusz_shape(self, served):
        url, __ = served
        status, data, __ = _get(f"{url}/statusz")
        assert status == 200
        assert data["service"] == "repro-measure-service"
        assert "tracing" in data
        assert data["stats"]["generation"] >= 1
        assert data["slow_query_threshold_seconds"] == 0.0
        assert data["slo"]["objectives"]


class TestTraceHeaders:
    def test_every_response_carries_correlation_headers(self, served):
        url, __ = served
        status, __, headers = _get(f"{url}/stats")
        assert status == 200
        assert headers["X-Request-Id"]
        assert parse_traceparent(headers["traceparent"]) is not None

    def test_incoming_trace_and_request_id_are_honored(self, served):
        url, __ = served
        trace_id = "ab" * 16
        span_id = "cd" * 8
        status, __, headers = _get(
            f"{url}/stats",
            headers={
                "traceparent": f"00-{trace_id}-{span_id}-01",
                "X-Request-Id": "req-legacy-1",
            },
        )
        assert status == 200
        parsed = parse_traceparent(headers["traceparent"])
        assert parsed.trace_id == trace_id
        assert parsed.span_id != span_id
        assert headers["X-Request-Id"] == "req-legacy-1"

    def test_debug_trace_returns_the_request_tree(self, served):
        url, __ = served
        set_tracing(True)
        status, __, headers = _get(f"{url}/measures")
        assert status == 200
        trace_id = parse_traceparent(headers["traceparent"]).trace_id
        status, data, __ = _get(f"{url}/debug/trace/{trace_id}")
        assert status == 200
        assert data["trace_id"] == trace_id
        assert data["tree"][0].startswith("http:/measures")

    def test_debug_trace_unknown_id_is_404(self, served):
        url, __ = served
        status, data, __ = _get(f"{url}/debug/trace/" + "e" * 32)
        assert status == 404
        assert "no recorded events" in data["error"]


class TestAccessLog:
    def test_requests_append_structured_entries(self, served):
        url, access_path = served
        _get(f"{url}/stats")
        _get(f"{url}/nope")
        with open(access_path, encoding="utf-8") as fh:
            entries = [json.loads(line) for line in fh if line.strip()]
        by_route = {entry["route"]: entry for entry in entries}
        assert by_route["/stats"]["status"] == 200
        assert by_route["/stats"]["method"] == "GET"
        assert by_route["/stats"]["request_id"]
        assert by_route["/stats"]["duration_ms"] >= 0
        assert by_route["/nope"]["status"] == 404

    def test_response_is_sent_even_if_the_observer_fails(
        self, server, served
    ):
        """The reply is staged until the request has been observed; an
        observer error must not swallow it."""

        def broken(**fields):
            raise OSError("access log unwritable")

        server.observer.observe = broken
        server.handle_error = lambda request, address: None  # quiet
        url, __ = served
        status, stats, __ = _get(f"{url}/stats")
        assert status == 200 and stats["generation"] >= 1

    def test_metrics_include_latency_histogram_and_slo(self, served):
        url, __ = served
        _get(f"{url}/stats")
        with urllib.request.urlopen(f"{url}/metrics") as response:
            text = response.read().decode()
        assert "repro_http_request_seconds_bucket" in text
        assert "repro_slo_burn_rate" in text
