"""Observability routes and headers, over every backend kind the one
HTTP server serves without tenants (plain store, 2-shard cluster)."""

import json

import pytest

from repro.obs import get_tracer, set_tracing, tracing_enabled
from repro.obs.context import parse_traceparent
from repro.service import MeasureService

from tests.service.conftest import Running, make_records


@pytest.fixture(autouse=True)
def _tracer_isolation():
    was = tracing_enabled()
    get_tracer().reset()
    yield
    set_tracing(was)
    get_tracer().reset()


@pytest.fixture()
def served(open_backend, tmp_path):
    running = Running(
        open_backend(make_records(600, seed=51)),
        access_log_path=str(tmp_path / "access.log"),
        slow_query_path=str(tmp_path / "slow.log"),
        slow_query_seconds=0.0,
    )
    running.access_path = str(tmp_path / "access.log")
    yield running
    running.stop()


def _is_store(served) -> bool:
    return isinstance(served.backend, MeasureService)


class TestHealthAndStatus:
    def test_healthz_reports_what_a_probe_can_alert_on(self, served):
        status, health = served.request("GET", "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        if _is_store(served):
            assert health["generation"] >= 1
            assert health["facts"] > 0
            assert health["dirty_measures"] == []
            assert health["uptime_seconds"] >= 0
        else:
            assert health["fenced"] is False
            assert health["epoch"] >= 1
            assert [s["shard"] for s in health["shards"]] == [0, 1]
            assert all(s["alive"] for s in health["shards"])

    def test_statusz_shape(self, served):
        status, data = served.request("GET", "/statusz")
        assert status == 200
        assert "tracing" in data
        assert data["uptime_seconds"] >= 0
        assert data["health"]["status"] == "ok"
        assert data["slow_query_threshold_seconds"] == 0.0
        assert data["slo"]["objectives"]
        assert data["slo"]["windows"]
        if _is_store(served):
            assert data["service"] == "repro-measure-service"
            assert data["stats"]["generation"] >= 1
        else:
            assert data["service"] == "repro-cluster-frontend"


class TestTraceHeaders:
    def test_every_response_carries_correlation_headers(self, served):
        for method, target in (
            ("GET", "/stats"),
            ("GET", "/rollup?measure=Count"),
            ("GET", "/nope"),
            ("POST", "/ingest"),
        ):
            __, __, headers = served.exchange(method, target)
            assert headers["X-Request-Id"]
            assert parse_traceparent(headers["traceparent"]) is not None

    def test_incoming_trace_and_request_id_are_honored(self, served):
        trace_id = "ab" * 16
        span_id = "cd" * 8
        status, __, headers = served.exchange(
            "GET", "/stats",
            headers={
                "traceparent": f"00-{trace_id}-{span_id}-01",
                "X-Request-Id": "req-corr-1",
            },
        )
        assert status == 200
        parsed = parse_traceparent(headers["traceparent"])
        assert parsed.trace_id == trace_id
        assert parsed.span_id != span_id
        assert headers["X-Request-Id"] == "req-corr-1"

    def test_debug_trace_returns_the_request_tree(self, served):
        set_tracing(True)
        status, __, headers = served.exchange("GET", "/measures")
        assert status == 200
        trace_id = parse_traceparent(headers["traceparent"]).trace_id
        status, data = served.request("GET", f"/debug/trace/{trace_id}")
        assert status == 200
        assert data["trace_id"] == trace_id
        assert data["tree"][0].startswith("http:/measures")

    def test_debug_trace_unknown_id_is_404(self, served):
        status, data = served.request("GET", "/debug/trace/" + "e" * 32)
        assert status == 404
        assert "no recorded events" in data["error"]


class TestAccessLog:
    def test_entry_is_written_before_the_response_is_readable(
        self, served
    ):
        """No sleep, no retry: a client holding its answer can rely on
        the access-log line being there."""
        served.request("GET", "/stats")
        served.request("GET", "/nope")
        with open(served.access_path, encoding="utf-8") as fh:
            entries = [json.loads(line) for line in fh if line.strip()]
        by_route = {entry["route"]: entry for entry in entries}
        assert by_route["/stats"]["status"] == 200
        assert by_route["/stats"]["method"] == "GET"
        assert by_route["/stats"]["request_id"]
        assert by_route["/stats"]["duration_ms"] >= 0
        # Paths outside the route table share one label; the request
        # path survives in the logged error.
        assert by_route["unmatched"]["status"] == 404
        assert "/nope" in by_route["unmatched"]["error"]

    def test_response_is_sent_even_if_the_observer_fails(self, served):
        def broken(**fields):
            raise OSError("access log unwritable")

        served.frontend.observer.observe = broken
        status, stats = served.request("GET", "/stats")
        assert status == 200 and stats["generation"] >= 1

    def test_metrics_include_latency_histogram_and_slo(self, served):
        served.request("GET", "/stats")
        status, text = served.request("GET", "/metrics")
        assert status == 200
        assert "repro_http_request_seconds_bucket" in text
        assert 'route="/stats"' in text
        assert "repro_slo_burn_rate" in text
