"""Tests for the concurrent query layer and its HTTP routes.

``TestHTTPEndpoint`` runs over every backend kind the one HTTP server
serves without tenants (one plain store, a 2-shard cluster).
"""

import json
import threading
import time
import urllib.parse

import pytest

from repro.errors import GranularityError, ServiceError
from repro.engine.sort_scan import SortScanEngine
from repro.service import MeasureService, MeasureStore
from repro.storage.table import InMemoryDataset

from tests.service.conftest import Running, make_records


@pytest.fixture()
def service(tmp_path, service_workflow):
    store = MeasureStore(str(tmp_path / "store"))
    svc = MeasureService(store, service_workflow)
    svc.bootstrap(make_records(1200, seed=40))
    return svc


class TestReads:
    def test_point_and_cache(self, service):
        table = service.table("Count")
        key = table.keys()[3]
        assert service.point("Count", key) == table[key]
        misses = service.cache_misses
        assert service.point("Count", key) == table[key]
        assert service.cache_hits >= 1
        assert service.cache_misses == misses
        assert service.point("Count", (63, 63, 63), default=-1) == -1

    def test_range_prefix(self, service):
        table = service.table("Count")
        prefix = table.keys()[0][:1]
        rows = service.range("Count", prefix)
        assert rows == [
            (key, value)
            for key, value in table.items()
            if key[:1] == prefix
        ]

    def test_unknown_measure(self, service):
        with pytest.raises(ServiceError, match="unknown measure"):
            service.point("nope", (0, 0, 0))

    def test_wrong_width_key_is_rejected_not_absent(self, service):
        """A 2-wide key on the 3-dimension schema names no region: it
        is a caller error, never a ``None``/default answer."""
        with pytest.raises(GranularityError, match="2 components"):
            service.point("Count", (0, 0))
        with pytest.raises(GranularityError, match="4 components"):
            service.point("Count", (0, 0, 0, 0), default=-1)

    def test_rollup_on_read(self, service, syn_schema):
        rolled = service.rollup("Count", {"d0": "d0.L1"}, agg="sum")
        assert dict(rolled.rows) == dict(service.table("sCount").rows)

    def test_rollup_rejects_finer_target(self, service):
        with pytest.raises(ServiceError, match="not coarser"):
            service.rollup(
                "Total", {"d0": "d0.L0", "d1": "d1.L0"}, agg="sum"
            )

    def test_measures_listing(self, service, service_workflow):
        names = [entry["measure"] for entry in service.measures()]
        assert names == sorted(service_workflow.outputs())


class TestIngestIntegration:
    def test_ingest_invalidates_caches(self, service, syn_schema):
        table = service.table("Count")
        key = table.keys()[0]
        service.point("Count", key)
        report = service.ingest(make_records(200, seed=41))
        assert report.generation >= 2
        # Cache was dropped: the next read reflects the new facts.
        fresh = service.table("Count")
        assert service.point("Count", key) == fresh.get(key)

    def test_holistic_read_triggers_lazy_resolution(
        self, service, service_workflow, syn_schema
    ):
        base = make_records(1200, seed=40)
        delta = make_records(150, seed=42)
        service.ingest(delta)
        assert "MedV" in service.store.dirty_measures()
        reference = SortScanEngine().evaluate(
            InMemoryDataset(syn_schema, base + delta), service_workflow
        )
        got = service.table("MedV")  # forces resolution
        assert got.equal_rows(reference["MedV"])
        assert service.store.dirty_measures() == set()

    def test_clean_point_read_skips_resolution(self, service):
        # A tiny delta: most of MedV's 16 regions stay untouched.
        delta = make_records(5, seed=43)
        service.ingest(delta)
        dirty_keys = service.store.dirty_nodes()["MedV"]
        clean_keys = [
            key
            for key, __ in service.store.iter_table("MedV")
            if key not in dirty_keys
        ]
        assert clean_keys, "delta touched every region; rescale test"
        value = service.point("MedV", clean_keys[0])
        assert value is not None
        # Untouched region served from the stored table, no resolve.
        assert "MedV" in service.store.dirty_measures()


class TestConcurrency:
    def test_parallel_reads_with_ingest(self, service, syn_schema):
        errors = []

        def reader():
            try:
                for __ in range(30):
                    table = service.table("Count")
                    if len(table):
                        key = table.keys()[0]
                        service.point("Count", key)
                    service.range("Total", ())
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def writer():
            try:
                for i in range(3):
                    service.ingest(make_records(40, seed=50 + i))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=reader) for __ in range(4)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []


class TestHTTPEndpoint:
    @pytest.fixture()
    def served(self, open_backend):
        running = Running(open_backend(make_records(1200, seed=40)))
        yield running
        running.stop()

    @staticmethod
    def _get(served, target):
        status, payload = served.request("GET", target)
        assert status == 200, payload
        return payload

    def test_measures_and_stats(self, served):
        payload = self._get(served, "/measures")
        names = [e["measure"] for e in payload["measures"]]
        assert "Count" in names
        stats = self._get(served, "/stats")
        assert stats["generation"] >= 1 and stats["facts"] > 0

    def test_point_range_table(self, served):
        table = served.backend.table("Count")
        key = table.keys()[0]
        key_text = ",".join(str(part) for part in key)
        point = self._get(
            served, f"/point?measure=Count&key={key_text}"
        )
        assert point["value"] == table[key]
        rows = self._get(
            served, f"/range?measure=Count&prefix={key[0]}"
        )["rows"]
        assert [tuple(k) for k, __ in rows] == [
            k for k in table.keys() if k[:1] == key[:1]
        ]
        full = self._get(served, "/table?measure=Count")
        assert full["levels"] == list(table.granularity.levels)
        assert [(tuple(k), v) for k, v in full["rows"]] == list(
            table.items()
        )

    def test_rollup_on_read(self, served):
        spec = {"d0": "d0.L1"}
        data = self._get(
            served,
            "/rollup?measure=Count&agg=sum&spec="
            + urllib.parse.quote(json.dumps(spec)),
        )
        assert data["agg"] == "sum"
        rolled = served.backend.rollup("Count", spec, agg="sum")
        assert {tuple(k): v for k, v in data["rows"]} == dict(
            rolled.rows
        )
        assert dict(rolled.rows) == dict(
            served.backend.table("sCount").rows
        )

    def test_error_statuses(self, served):
        status, __ = served.request("GET", "/point?measure=nope&key=0")
        assert status == 404
        status, __ = served.request("GET", "/point?measure=Count")
        assert status == 400

    def test_post_ingest(self, served):
        before = served.backend.stats()["facts"]
        status, payload = served.request(
            "POST", "/ingest", {"records": make_records(25, seed=60)}
        )
        assert status == 200
        assert payload["records"] == 25
        assert {"updated_measures", "deferred_measures"} <= set(payload)
        assert served.backend.stats()["facts"] == before + 25

    def test_concurrent_http_queries(self, served):
        table = served.backend.table("Count")
        keys = table.keys()[:8]
        errors = []

        def worker(key):
            try:
                key_text = ",".join(str(part) for part in key)
                payload = self._get(
                    served, f"/point?measure=Count&key={key_text}"
                )
                assert payload["value"] == table[key]
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(key,))
            for key in keys * 3
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

    # -- error paths ---------------------------------------------------

    def test_unknown_measure_is_404_everywhere(self, served):
        for route in ("point?measure=nope&key=0",
                      "range?measure=nope",
                      "table?measure=nope",
                      "rollup?measure=nope"):
            status, data = served.request("GET", f"/{route}")
            assert status == 404
            assert "unknown measure" in data["error"]

    def test_malformed_region_key_is_client_error(self, served):
        status, data = served.request(
            "GET", "/point?measure=Count&key=one,two"
        )
        assert status == 404
        assert "malformed region key" in data["error"]

    def test_wrong_width_region_key_is_400(self, served):
        status, data = served.request(
            "GET", "/point?measure=Count&key=0,0"
        )
        assert status == 400
        assert "one per dimension" in data["error"]

    def test_unknown_route_is_404(self, served):
        status, data = served.request("GET", "/frobnicate")
        assert status == 404
        assert "unknown route" in data["error"]

    def test_unrouted_method_is_405(self, served):
        status, data = served.request("PUT", "/point")
        assert status == 405
        assert "PUT" in data["error"]

    def test_tenant_routes_refuse_without_tenants(self, served):
        status, data = served.request("GET", "/tenants")
        assert status == 404
        assert "tenant mode" in data["error"]

    def test_post_ingest_malformed_json_is_400(self, served):
        status, data = served.request(
            "POST", "/ingest", b"{not json at all"
        )
        assert status == 400
        assert "bad request" in data["error"]

    def test_post_ingest_missing_records_is_400(self, served):
        status, data = served.request("POST", "/ingest", {"rows": []})
        assert status == 400
        assert "bad request" in data["error"]

    def test_post_ingest_non_list_records_is_400(self, served):
        status, __ = served.request("POST", "/ingest", {"records": 42})
        assert status == 400

    def test_post_to_unknown_route_is_404(self, served):
        status, __ = served.request("POST", "/measures", {})
        assert status == 404

    def test_query_during_in_flight_ingest(self, served):
        # Slow the commit down with the shared ingest fail point, then
        # read over HTTP while the POST is folding: the backend's locks
        # must serialize them — the read never observes a half-applied
        # delta, whichever side of the commit it lands on.
        from repro.testkit import failpoint

        backend = served.backend
        table = backend.table("Count")
        key = table.keys()[0]
        key_text = ",".join(str(part) for part in key)
        records = make_records(30, seed=77)
        results, errors = [], []

        def writer():
            try:
                results.append(
                    served.request(
                        "POST", "/ingest", {"records": records}
                    )
                )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        before = backend.stats()["generation"]
        with failpoint("ingest.fold", "delay:0.4"):
            thread = threading.Thread(target=writer)
            thread.start()
            time.sleep(0.1)  # let the POST reach the armed fold
            payload = self._get(
                served, f"/point?measure=Count&key={key_text}"
            )
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert errors == []
        assert results[0][0] == 200
        assert results[0][1]["records"] == len(records)
        # The read returned a committed value: either the pre-ingest
        # table's, or the post-ingest one recomputed from the store.
        after_table = backend.table("Count")
        assert payload["value"] in (table[key], after_table[key])
        assert backend.stats()["generation"] == before + 1
