"""The asyncio HTTP front end: routes, error contracts, shutdown.

The front end runs on a private event loop in a background thread;
tests talk to it over real sockets with ``http.client`` so status
codes, JSON bodies, and keep-alive behaviour are exercised end to end.
"""

import base64
import http.client
import json
import pickle
import threading
import urllib.parse

import asyncio

import pytest

from repro.service.cluster import (
    ClusterFrontend,
    TenantManager,
    bootstrap_cluster,
)
from repro.testkit.mutations import mutant

from tests.service.conftest import make_records


class _Running:
    """A frontend serving on a background event loop."""

    def __init__(self, backend, **kwargs):
        self.frontend = ClusterFrontend(backend, port=0, **kwargs)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, daemon=True
        )
        self.thread.start()
        asyncio.run_coroutine_threadsafe(
            self.frontend.start(), self.loop
        ).result(timeout=10)

    def request(self, method, target, body=None):
        conn = http.client.HTTPConnection(
            self.frontend.host, self.frontend.port, timeout=30
        )
        try:
            payload = (
                json.dumps(body).encode() if body is not None else None
            )
            conn.request(
                method, target, body=payload,
                headers={"Content-Type": "application/json"}
                if payload else {},
            )
            response = conn.getresponse()
            raw = response.read()
            ctype = response.getheader("Content-Type", "")
            data = (
                json.loads(raw) if "json" in ctype else raw.decode()
            )
            return response.status, data
        finally:
            conn.close()

    def stop(self):
        asyncio.run_coroutine_threadsafe(
            self.frontend.stop(), self.loop
        ).result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


@pytest.fixture()
def served(tmp_path, mergeable_cluster_workflow):
    cluster = bootstrap_cluster(
        str(tmp_path / "cluster"),
        mergeable_cluster_workflow,
        make_records(300, seed=61),
        num_shards=2,
    )
    running = _Running(cluster)
    yield running
    running.stop()


@pytest.fixture()
def tenant_served(tmp_path):
    manager = TenantManager(str(tmp_path / "svc"))
    running = _Running(manager)
    yield running
    running.stop()


def _workflow_body(workflow, **extra):
    return {
        "workflow": base64.b64encode(
            pickle.dumps(workflow)
        ).decode("ascii"),
        **extra,
    }


class TestClusterRoutes:
    def test_healthz(self, served):
        status, health = served.request("GET", "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["fenced"] is False
        assert health["epoch"] >= 1
        assert [s["shard"] for s in health["shards"]] == list(
            range(len(health["shards"]))
        )
        assert all(s["alive"] for s in health["shards"])

    def test_measures_and_stats(self, served):
        status, data = served.request("GET", "/measures")
        assert status == 200
        names = {m["measure"] for m in data["measures"]}
        assert {"Count", "Total", "sCount"} <= names
        status, stats = served.request("GET", "/stats")
        assert status == 200
        assert stats["epoch"] == 1
        assert len(stats["shards"]) == 2

    def test_point_range_table_agree(self, served):
        status, table = served.request("GET", "/table?measure=Total")
        assert status == 200 and table["rows"]
        key, value = table["rows"][0]
        key_param = ",".join(str(part) for part in key)
        status, point = served.request(
            "GET", f"/point?measure=Total&key={key_param}"
        )
        assert status == 200
        assert point["value"] == pytest.approx(value)
        status, ranged = served.request(
            "GET", f"/range?measure=Total&prefix={key_param}"
        )
        assert status == 200
        assert [key, pytest.approx(value)] in [
            [k, pytest.approx(v)] for k, v in ranged["rows"]
        ]

    def test_rollup_route(self, served):
        spec = urllib.parse.quote(json.dumps({"d0": "d0.L2"}))
        status, data = served.request(
            "GET", f"/rollup?measure=Count&spec={spec}&agg=sum"
        )
        assert status == 200
        assert data["rows"]

    def test_ingest_advances_the_epoch(self, served):
        records = [list(r) for r in make_records(40, seed=62)]
        status, report = served.request(
            "POST", "/ingest", body={"records": records}
        )
        assert status == 200
        assert report["epoch"] == 2
        status, stats = served.request("GET", "/stats")
        assert stats["epoch"] == 2

    def test_unknown_route_is_404(self, served):
        status, data = served.request("GET", "/nope")
        assert status == 404
        assert "unknown route" in data["error"]

    def test_unknown_measure_is_404_on_get(self, served):
        status, data = served.request("GET", "/table?measure=Nope")
        assert status == 404
        assert "unknown measure" in data["error"]

    def test_wrong_width_region_key_is_400(self, served):
        status, data = served.request("GET", "/point?measure=Total&key=0,0")
        assert status == 400
        assert "one per dimension" in data["error"]

    def test_tenants_route_requires_tenant_mode(self, served):
        status, data = served.request("GET", "/tenants")
        assert status == 404
        assert "tenant mode" in data["error"]

    def test_metrics_render_as_prometheus_text(self, served):
        status, text = served.request("GET", "/metrics")
        assert status == 200
        assert isinstance(text, str)
        assert "repro_" in text

    def test_stop_refuses_new_connections(
        self, tmp_path, mergeable_cluster_workflow
    ):
        cluster = bootstrap_cluster(
            str(tmp_path / "c2"),
            mergeable_cluster_workflow,
            make_records(60, seed=63),
            num_shards=1,
        )
        running = _Running(cluster)
        host, port = running.frontend.host, running.frontend.port
        assert running.request("GET", "/healthz")[0] == 200
        running.stop()
        with pytest.raises(OSError):
            conn = http.client.HTTPConnection(host, port, timeout=2)
            conn.request("GET", "/healthz")
            conn.getresponse()


class TestTenantRoutes:
    def test_register_then_serve_a_tenant(
        self, tenant_served, mergeable_cluster_workflow
    ):
        records = [list(r) for r in make_records(120, seed=64)]
        status, data = tenant_served.request(
            "POST", "/workflow?tenant=alpha",
            body=_workflow_body(
                mergeable_cluster_workflow, records=records
            ),
        )
        assert status == 200
        assert data["ok"] is True
        assert data["tenant"] == "alpha"
        assert data["epoch"] == 1
        assert data["estimate"] > 0
        status, data = tenant_served.request("GET", "/tenants")
        assert status == 200 and data == {"tenants": ["alpha"]}
        status, data = tenant_served.request(
            "GET", "/table?measure=Count&tenant=alpha"
        )
        assert status == 200 and data["rows"]

    def test_lint_rejection_is_422_with_diagnostics(
        self, tenant_served, syn_schema
    ):
        status, data = tenant_served.request(
            "POST", "/workflow",
            body=_workflow_body(mutant("CSM101", syn_schema)),
        )
        assert status == 422
        assert "rejected by static analysis" in data["error"]
        assert any(
            d["code"] == "CSM101" for d in data["diagnostics"]
        )

    def test_admission_rejection_is_429_with_payload(
        self, tmp_path, mergeable_cluster_workflow
    ):
        manager = TenantManager(
            str(tmp_path / "tiny"), default_budget=10
        )
        running = _Running(manager)
        try:
            records = [list(r) for r in make_records(200, seed=65)]
            status, data = running.request(
                "POST", "/workflow?tenant=greedy",
                body=_workflow_body(
                    mergeable_cluster_workflow, records=records
                ),
            )
            assert status == 429
            assert data["admission"]["tenant"] == "greedy"
            assert data["admission"]["reason"] == "memory-budget"
            assert data["admission"]["retryable"] is False
            assert data["admission"]["estimate"] > 10
            assert data["admission"]["budget"] == 10
            assert "exceeds the tenant budget" in data["error"]
        finally:
            running.stop()

    def test_tenant_scoped_ingest(
        self, tenant_served, mergeable_cluster_workflow
    ):
        records = [list(r) for r in make_records(100, seed=66)]
        tenant_served.request(
            "POST", "/workflow?tenant=a",
            body=_workflow_body(
                mergeable_cluster_workflow, records=records
            ),
        )
        delta = [list(r) for r in make_records(20, seed=67)]
        status, report = tenant_served.request(
            "POST", "/ingest?tenant=a", body={"records": delta}
        )
        assert status == 200
        assert report["epoch"] == 2

    def test_unknown_tenant_read_is_404(self, tenant_served):
        status, data = tenant_served.request(
            "GET", "/table?measure=Count&tenant=ghost"
        )
        assert status == 404
        assert "unknown tenant" in data["error"]

    def test_malformed_workflow_body_is_400(self, tenant_served):
        status, data = tenant_served.request(
            "POST", "/workflow", body={"workflow": "!!not-base64!!"}
        )
        assert status == 400
        assert "bad request" in data["error"]

    def test_tenant_statusz_reports_workload_sharing(
        self, tenant_served, mergeable_cluster_workflow
    ):
        records = [list(r) for r in make_records(100, seed=68)]
        for tenant in ("alpha", "beta"):
            status, __ = tenant_served.request(
                "POST", f"/workflow?tenant={tenant}",
                body=_workflow_body(
                    mergeable_cluster_workflow, records=records
                ),
            )
            assert status == 200
        status, data = tenant_served.request("GET", "/statusz")
        assert status == 200
        workload = data["workload"]
        assert workload["tenants"] == 2
        # Identical dashboards: beta's workflow is subsumed by alpha's.
        assert "CSM405" in workload["codes"]
        assert workload["estimated_saving"] > 0

    def test_tenant_mode_metrics_pull_worker_telemetry(
        self, tmp_path, mergeable_cluster_workflow, monkeypatch
    ):
        manager = TenantManager(str(tmp_path / "svc"))
        manager.register(
            "alpha", mergeable_cluster_workflow, make_records(80, seed=71)
        )
        pulled = []
        cluster = manager.cluster("alpha")
        monkeypatch.setattr(
            cluster, "pull_telemetry", lambda: pulled.append("alpha")
        )
        running = _Running(manager)
        try:
            status, text = running.request("GET", "/metrics")
            assert status == 200 and "repro_" in text
            assert pulled == ["alpha"]
        finally:
            running.stop()


class TestWorkflowEncoding:
    """Declarative query families and the pickle trust gate."""

    def test_named_query_family_is_accepted(self, tenant_served):
        status, data = tenant_served.request(
            "POST", "/workflow", body={"query": "q1"}
        )
        assert status == 200
        assert data["ok"] is True

    def test_unknown_query_family_is_400(self, tenant_served):
        status, data = tenant_served.request(
            "POST", "/workflow", body={"query": "nope"}
        )
        assert status == 400
        assert "unknown query family" in data["error"]

    def test_missing_query_and_workflow_is_400(self, tenant_served):
        status, data = tenant_served.request(
            "POST", "/workflow", body={}
        )
        assert status == 400
        assert "query" in data["error"]
        assert data["queries"] == sorted(
            ["combined", "escalation", "examples", "multirecon",
             "q1", "q2"]
        )

    def test_pickle_refused_when_gated(
        self, tmp_path, mergeable_cluster_workflow
    ):
        manager = TenantManager(str(tmp_path / "svc"))
        running = _Running(manager, allow_pickle_workflows=False)
        try:
            status, data = running.request(
                "POST", "/workflow",
                body=_workflow_body(mergeable_cluster_workflow),
            )
            assert status == 403
            assert "disabled" in data["error"]
            assert "queries" in data
            # Named families still work on the gated frontend.
            status, data = running.request(
                "POST", "/workflow", body={"query": "q1"}
            )
            assert status == 200 and data["ok"] is True
        finally:
            running.stop()
