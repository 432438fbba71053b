"""The measure service rejects workflows with error-level diagnostics.

Workflows reach the service over the wire (pickled at bootstrap, or
POSTed to ``/workflow``), bypassing the builder's incremental checks —
the static analyzer is the submit/ingest gate, and its findings must
come back in the HTTP error body.
"""

import base64
import pickle

import pytest

from repro.errors import ServiceError
from repro.service import MeasureService, MeasureStore
from repro.service.ingest import Ingestor
from repro.testkit.mutations import clean_workflow, mutant

from tests.service.conftest import Running, make_records


class TestIngestorGate:
    def test_rejects_error_level_workflow(self, tmp_path, syn_schema):
        store = MeasureStore(str(tmp_path / "store"))
        with pytest.raises(
            ServiceError, match="rejected by static analysis"
        ) as excinfo:
            Ingestor(store, mutant("CSM105", syn_schema))
        codes = [d.code for d in excinfo.value.diagnostics]
        assert "CSM105" in codes

    def test_service_construction_rejects_too(
        self, tmp_path, syn_schema
    ):
        store = MeasureStore(str(tmp_path / "store"))
        with pytest.raises(ServiceError, match="CSM101"):
            MeasureService(store, mutant("CSM101", syn_schema))

    def test_accepts_clean_workflow(self, tmp_path, syn_schema):
        store = MeasureStore(str(tmp_path / "store"))
        service = MeasureService(store, clean_workflow(syn_schema))
        service.bootstrap(make_records(300, seed=7))
        assert service.table("perCell")

    def test_warnings_are_not_rejected(self, tmp_path, syn_schema):
        # CSM202's mutant is warning-level: disjoint-dimension basics
        # stream badly but compute correctly, so the service serves it.
        store = MeasureStore(str(tmp_path / "store"))
        service = MeasureService(store, mutant("CSM202", syn_schema))
        service.bootstrap(make_records(300, seed=8))
        assert service.table("byd0")


class TestHTTPWorkflowRoute:
    """``POST /workflow`` over every backend kind the one HTTP server
    serves without tenants (plain store, 2-shard cluster)."""

    @pytest.fixture()
    def serve(self, open_backend, syn_schema):
        started = []

        def start(**kwargs):
            backend = open_backend(
                make_records(300, seed=9), clean_workflow(syn_schema)
            )
            started.append(Running(backend, **kwargs))
            return started[-1]

        yield start
        for running in started:
            running.stop()

    @staticmethod
    def _pickled(workflow) -> dict:
        return {
            "workflow": base64.b64encode(
                pickle.dumps(workflow)
            ).decode("ascii"),
        }

    def test_invalid_submission_is_422_with_diagnostics(
        self, serve, syn_schema
    ):
        status, payload = serve().request(
            "POST", "/workflow",
            self._pickled(mutant("CSM101", syn_schema)),
        )
        assert status == 422
        assert "rejected by static analysis" in payload["error"]
        errors = [
            d for d in payload["diagnostics"]
            if d["severity"] == "error"
        ]
        assert [d["code"] for d in errors] == ["CSM101"]
        assert errors[0]["measure"] == "agg"
        assert "fix" not in errors[0]  # suggestion rides its own key
        assert errors[0]["suggestion"]

    def test_clean_submission_is_accepted(self, serve, syn_schema):
        status, payload = serve().request(
            "POST", "/workflow",
            self._pickled(clean_workflow(syn_schema)),
        )
        assert status == 200
        assert payload["ok"] is True
        assert payload["counts"]["error"] == 0

    def test_malformed_submission_is_400(self, serve):
        status, payload = serve().request(
            "POST", "/workflow", {"workflow": "!!not-base64!!"}
        )
        assert status == 400
        assert "bad request" in payload["error"]

    def test_named_query_family_is_accepted(self, serve):
        status, payload = serve().request(
            "POST", "/workflow", {"query": "q1"}
        )
        assert status == 200
        assert payload["ok"] is True

    def test_pickle_refused_when_gated(self, serve, syn_schema):
        gated = serve(allow_pickle_workflows=False)
        status, payload = gated.request(
            "POST", "/workflow",
            self._pickled(clean_workflow(syn_schema)),
        )
        assert status == 403
        assert "disabled" in payload["error"]
        assert "queries" in payload
        # Named families remain available on the gated server.
        status, payload = gated.request(
            "POST", "/workflow", {"query": "q1"}
        )
        assert status == 200 and payload["ok"] is True
