"""The Prometheus ``/metrics`` route, scraped cold and under load, over
every backend kind the one HTTP server serves without tenants."""

import threading

import pytest

from repro.obs import reset_registry

from tests.service.conftest import Running, make_records


@pytest.fixture()
def served(open_backend, mergeable_workflow):
    # A fresh registry *before* the backend and the frontend exist:
    # both bind their counters at construction time.
    reset_registry()
    running = Running(
        open_backend(make_records(800, seed=50), mergeable_workflow)
    )
    yield running
    running.stop()


@pytest.fixture()
def service(served):
    return served.backend


@pytest.fixture()
def stores(service):
    """Stores behind the backend: each folds its share of an ingest
    and counts it once."""
    return getattr(service, "num_shards", 1)


def scrape(served):
    status, text, headers = served.exchange("GET", "/metrics")
    assert status == 200
    return text, headers["Content-Type"]


def metric_value(text, name):
    for line in text.splitlines():
        if line.startswith(f"{name} ") or line.startswith(f"{name}{{"):
            return float(line.rsplit(" ", 1)[1])
    raise AssertionError(f"metric {name!r} not in exposition")


class TestScrape:
    def test_content_type_is_prometheus_text(self, served):
        __, content_type = scrape(served)
        assert "text/plain" in content_type
        assert "version=0.0.4" in content_type

    def test_acceptance_metrics_present(self, served, service):
        # Warm the query path so cache counters exist with real values.
        table = service.table("Count")
        key = table.keys()[0]
        service.point("Count", key)
        service.point("Count", key)
        text, __ = scrape(served)
        # Store shape.
        assert metric_value(text, "repro_store_segments") > 0
        assert metric_value(text, "repro_store_generation") == 1
        # Ingest/commit latency histogram (bootstrap committed once).
        assert (
            metric_value(text, "repro_store_commit_seconds_count") >= 1
        )
        # Query cache hit/miss counters.
        assert metric_value(text, "repro_query_cache_misses_total") >= 1
        assert metric_value(text, "repro_query_cache_hits_total") >= 1
        # Engine sort/scan second counters (bootstrap ran the engine).
        assert "# TYPE repro_engine_sort_seconds_total counter" in text
        assert "# TYPE repro_engine_scan_seconds_total counter" in text
        assert metric_value(text, "repro_engine_runs_total") >= 1

    def test_ingest_latency_histogram_filled(
        self, served, service, stores
    ):
        service.ingest(make_records(100, seed=51))
        text, __ = scrape(served)
        assert metric_value(text, "repro_ingest_batches_total") == stores
        assert metric_value(text, "repro_ingest_records_total") == 100
        assert (
            metric_value(text, "repro_ingest_commit_seconds_count")
            == stores
        )
        assert 'le="+Inf"' in text

    def test_http_requests_counted_by_route(self, served):
        scrape(served)
        text, __ = scrape(served)
        route_metric = 'repro_http_requests_total{route="/metrics"}'
        assert metric_value(text, route_metric) >= 1


class TestConcurrentScrape:
    def test_metrics_stable_under_ingest_and_query(
        self, served, service, stores
    ):
        """Scrape /metrics while writers and readers hammer the store."""
        errors = []
        stop = threading.Event()

        def reader():
            try:
                table = service.table("Count")
                keys = table.keys()[:8]
                while not stop.is_set():
                    for key in keys:
                        service.point("Count", key)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def writer():
            try:
                for seed in (52, 53, 54):
                    service.ingest(make_records(60, seed=seed))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=reader),
            threading.Thread(target=reader),
            threading.Thread(target=writer),
        ]
        for thread in threads:
            thread.start()
        try:
            scrapes = [scrape(served)[0] for __ in range(10)]
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert errors == []
        final, __ = scrape(served)
        assert (
            metric_value(final, "repro_ingest_batches_total")
            == 3 * stores
        )
        assert (
            metric_value(final, "repro_ingest_records_total") == 180
        )
        # Every mid-flight scrape was well-formed text exposition.
        for text in scrapes:
            for line in text.strip().splitlines():
                assert line.startswith("#") or " " in line
