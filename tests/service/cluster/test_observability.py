"""End-to-end request observability over the sharded front end.

The acceptance bar for the tracing work: a query and an ingest against
a 2-shard *process-mode* cluster must each produce ONE trace tree that
spans the frontend, the router, and both shard worker processes —
reassembled from span/parent ids, not interval containment, because
the spans were recorded in three different address spaces.

Correlation headers, ``/statusz`` and ``/debug/trace`` misses are the
same for every backend; ``tests/service/test_server_obs.py`` asserts
them per backend kind.
"""

import json

import pytest

from repro.obs import (
    get_tracer,
    set_tracing,
    tracing_enabled,
)
from repro.obs.context import parse_traceparent
from repro.obs.trace import span_tree
from repro.service.cluster import bootstrap_cluster
from repro.testkit.failpoints import failpoint

from tests.service.conftest import Running, make_records


@pytest.fixture(autouse=True)
def _tracer_isolation():
    """Save/restore the process tracing flag, drop recorded events."""
    was = tracing_enabled()
    get_tracer().reset()
    yield
    set_tracing(was)
    get_tracer().reset()


@pytest.fixture()
def served(tmp_path, mergeable_cluster_workflow):
    """A 2-shard process-mode cluster behind a running frontend."""
    set_tracing(True)
    cluster = bootstrap_cluster(
        str(tmp_path / "cluster"),
        mergeable_cluster_workflow,
        make_records(240, seed=81),
        num_shards=2,
        mode="process",
    )
    running = Running(cluster)
    yield running
    running.stop()


def _tree_pids(node):
    pids = {node["event"]["pid"]}
    for child in node["children"]:
        pids |= _tree_pids(child)
    return pids


def _tree_names(node):
    names = {node["event"]["name"]}
    for child in node["children"]:
        names |= _tree_names(child)
    return names


def _fetch_trace(served, headers):
    traceparent = headers["traceparent"]
    trace_id = parse_traceparent(traceparent).trace_id
    status, data, __ = served.exchange(
        "GET", f"/debug/trace/{trace_id}"
    )
    assert status == 200, data
    assert data["trace_id"] == trace_id
    return data


class TestTracePropagation:
    def test_query_trace_spans_frontend_router_and_both_workers(
        self, served
    ):
        frontend_pid = __import__("os").getpid()
        status, data, headers = served.exchange(
            "GET", "/table?measure=Total"
        )
        assert status == 200 and data["rows"]
        trace = _fetch_trace(served, headers)
        roots = span_tree(trace["events"])
        assert len(roots) == 1, [r["event"]["name"] for r in roots]
        (root,) = roots
        assert root["event"]["name"] == "http:/table"
        names = _tree_names(root)
        assert "cluster:table" in names
        assert "shard:table_rows" in names
        pids = _tree_pids(root)
        # Frontend/router process plus BOTH shard worker processes.
        assert frontend_pid in pids
        assert len(pids - {frontend_pid}) == 2
        # The rendered tree nests the shard spans under the router's.
        assert trace["tree"][0].startswith("http:/table")

    def test_ingest_trace_spans_frontend_router_and_both_workers(
        self, served
    ):
        frontend_pid = __import__("os").getpid()
        records = [list(r) for r in make_records(40, seed=82)]
        status, report, headers = served.exchange(
            "POST", "/ingest", body={"records": records}
        )
        assert status == 200 and report["epoch"] == 2
        trace = _fetch_trace(served, headers)
        roots = span_tree(trace["events"])
        assert len(roots) == 1
        (root,) = roots
        assert root["event"]["name"] == "http:/ingest"
        names = _tree_names(root)
        assert "cluster:ingest" in names
        assert "shard:ingest" in names
        pids = _tree_pids(root)
        assert frontend_pid in pids
        assert len(pids - {frontend_pid}) == 2

class TestStatusEndpoints:
    def test_metrics_expose_latency_histogram_and_burn_rate(
        self, served
    ):
        served.exchange("GET", "/table?measure=Total")
        status, text, __ = served.exchange("GET", "/metrics")
        assert status == 200
        assert "repro_http_request_seconds_bucket" in text
        assert 'route="/table"' in text
        assert "repro_slo_burn_rate" in text
        assert "repro_shard_op_seconds_bucket" in text

    def test_healthz_turns_503_when_fenced(
        self, tmp_path, mergeable_cluster_workflow
    ):
        cluster = bootstrap_cluster(
            str(tmp_path / "fenceable"),
            mergeable_cluster_workflow,
            make_records(120, seed=83),
            num_shards=2,
        )
        running = Running(cluster)
        try:
            status, health, __ = running.exchange("GET", "/healthz")
            assert status == 200 and health["status"] == "ok"
            delta = [list(r) for r in make_records(30, seed=84)]
            with failpoint("cluster.shard-prepare", "raise"):
                status, data, __ = running.exchange(
                    "POST", "/ingest", body={"records": delta}
                )
            assert status == 500
            status, health, __ = running.exchange("GET", "/healthz")
            assert status == 503
            assert health["status"] == "fenced"
            assert health["fenced"] is True
            assert health["journal_pending"] is True
        finally:
            # A fenced cluster refuses the final flush; lift the fence
            # so the frontend can drain and stop cleanly.
            try:
                cluster.recover()
            except Exception:
                pass
            running.stop()

    def test_slow_query_log_captures_stage_timings(
        self, tmp_path, mergeable_cluster_workflow
    ):
        set_tracing(True)
        cluster = bootstrap_cluster(
            str(tmp_path / "slow"),
            mergeable_cluster_workflow,
            make_records(120, seed=85),
            num_shards=2,
            mode="process",
        )
        slow_path = str(tmp_path / "slow.log")
        running = Running(
            cluster,
            slow_query_seconds=0.0,  # every request is "slow"
            slow_query_path=slow_path,
        )
        try:
            status, data, __ = running.exchange(
                "GET", "/table?measure=Count"
            )
            assert status == 200 and data["rows"]
            status, statusz, __ = running.exchange("GET", "/statusz")
            entries = [
                e for e in statusz["slow_queries"]
                if e["route"] == "/table"
            ]
            assert entries
            stages = entries[0].get("stages", [])
            assert any(
                s["stage"] == "shard:table_rows" for s in stages
            )
            with open(slow_path, encoding="utf-8") as fh:
                logged = [json.loads(line) for line in fh if line.strip()]
            assert any(e["route"] == "/table" for e in logged)
        finally:
            running.stop()


class TestMetamorphicTelemetry:
    def test_results_identical_with_telemetry_on_and_off(self, served):
        set_tracing(True)
        status, traced, __ = served.exchange(
            "GET", "/table?measure=Total"
        )
        assert status == 200
        set_tracing(False)
        status, dark, __ = served.exchange(
            "GET", "/table?measure=Total"
        )
        assert status == 200
        assert traced["rows"] == dark["rows"]
        set_tracing(True)
        status, relit, __ = served.exchange(
            "GET", "/table?measure=Total"
        )
        assert status == 200
        assert relit["rows"] == traced["rows"]
