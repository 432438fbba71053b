"""The HTTP front end over a cluster and over a tenant manager.

What the front end answers whatever it serves (reads, error statuses,
observability routes, shutdown) is asserted once for every backend
kind in ``tests/service/test_server*.py``, ``test_metrics_endpoint.py``,
``test_workflow_gate.py`` and ``test_shutdown.py``; this file holds
what only a cluster or only a tenant manager answers, and the
protocol-level contracts of the server itself.
"""

import base64
import pickle
import re

import pytest

from repro.service.cluster import TenantManager, bootstrap_cluster
from repro.testkit.mutations import mutant

from tests.service.conftest import Running, make_records


@pytest.fixture()
def served(tmp_path, mergeable_cluster_workflow):
    cluster = bootstrap_cluster(
        str(tmp_path / "cluster"),
        mergeable_cluster_workflow,
        make_records(300, seed=61),
        num_shards=2,
    )
    running = Running(cluster)
    yield running
    running.stop()


@pytest.fixture()
def tenant_served(tmp_path):
    manager = TenantManager(str(tmp_path / "svc"))
    running = Running(manager)
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
    def test_measures_and_stats(self, served):
        status, data = served.request("GET", "/measures")
        assert status == 200
        names = {m["measure"] for m in data["measures"]}
        assert {"Count", "Total", "sCount"} <= names
        status, stats = served.request("GET", "/stats")
        assert status == 200
        assert stats["epoch"] == 1
        assert len(stats["shards"]) == 2

    def test_ingest_advances_the_epoch(self, served):
        records = [list(r) for r in make_records(40, seed=62)]
        status, report = served.request(
            "POST", "/ingest", body={"records": records}
        )
        assert status == 200
        assert report["epoch"] == 2
        status, stats = served.request("GET", "/stats")
        assert stats["epoch"] == 2


class TestProtocol:
    """What the server answers before any route runs."""

    @pytest.mark.parametrize(
        "head",
        [
            b"garbage\r\n\r\n",
            b"POST /ingest HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
            b"POST /ingest HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        ],
        ids=["request-line", "content-length-text",
             "content-length-negative"],
    )
    def test_malformed_request_is_400_and_closes(self, served, head):
        answer = served.raw(head)
        status_line, __, rest = answer.partition(b"\r\n")
        assert status_line == b"HTTP/1.1 400 Bad Request"
        assert b"Connection: close" in rest
        assert b'"error"' in rest
        # The server survived it.
        assert served.request("GET", "/healthz")[0] == 200


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
        running = Running(manager)
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
        running = Running(manager)
        try:
            status, text = running.request("GET", "/metrics")
            assert status == 200 and "repro_" in text
            assert pulled == ["alpha"]
        finally:
            running.stop()


    def test_clients_cannot_mint_metric_series(
        self, tenant_served, mergeable_cluster_workflow
    ):
        """Route labels come from the route table and tenant labels
        from the registered tenants, so distinct bad paths, trace ids
        and tenant names add O(1) series to ``/metrics``."""
        records = [list(r) for r in make_records(60, seed=69)]
        tenant_served.request(
            "POST", "/workflow?tenant=alpha",
            body=_workflow_body(
                mergeable_cluster_workflow, records=records
            ),
        )

        def flood(serials) -> set:
            """The labelled series ``/metrics`` exposes afterwards."""
            for i in serials:
                for target in (
                    f"/nope{i}?tenant=t{i}",
                    f"/debug/trace/{i:032x}",
                    f"/table?measure=Count&tenant=ghost{i}",
                    "/table?measure=Count&tenant=alpha",
                ):
                    tenant_served.request("GET", target)
            status, text = tenant_served.request("GET", "/metrics")
            assert status == 200
            return {
                line.rsplit(" ", 1)[0]
                for line in text.splitlines()
                if re.search(r'(route|tenant)="', line)
            }

        once = flood(range(1))
        assert any('route="unmatched"' in series for series in once)
        assert any('route="/debug/trace/:id"' in series for series in once)
        assert any('tenant="unknown"' in series for series in once)
        assert any('tenant="alpha"' in series for series in once)
        assert flood(range(1, 26)) == once


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
        running = Running(manager, allow_pickle_workflows=False)
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
