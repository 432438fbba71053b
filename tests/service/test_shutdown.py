"""Graceful teardown of the HTTP front end, over every backend kind
it serves without tenants (plain store, 2-shard cluster).

The guarantees under test: ``stop()`` drains the requests in flight
rather than abandoning them, a silent client cannot hold it up, and
the post-drain resolve leaves the on-disk MANIFESTs final — a
restarted server recomputes nothing.
"""

import socket
import threading
import time

import pytest

from repro.service.cluster import frontend as frontend_module
from repro.testkit import failpoint

from tests.service.conftest import Running, dirty_on_disk, make_records


@pytest.fixture()
def running(open_backend):
    running = Running(open_backend(make_records(400, seed=71)))
    yield running
    if not running.loop.is_closed():
        running.stop()


class TestGracefulShutdown:
    def test_drains_resolves_and_stops_accepting(self, running):
        # An ingest the fold fail point holds in flight across the
        # stop; its delta defers the holistic MedV, so the stores hold
        # dirty measures when the drain ends.
        answers = []

        def ingest():
            answers.append(
                running.request(
                    "POST", "/ingest",
                    {"records": make_records(50, seed=72)},
                )
            )

        with failpoint("ingest.fold", "delay:0.5"):
            client = threading.Thread(target=ingest)
            client.start()
            time.sleep(0.2)  # let the POST reach the armed fold
            running.stop()
        client.join(timeout=30)
        assert not client.is_alive()
        status, report = answers[0]
        assert status == 200 and report["records"] == 50
        assert "MedV" in report["deferred_measures"]
        # The post-drain resolve finalized the MANIFESTs on disk.
        assert dirty_on_disk(running.backend) == set()
        with pytest.raises(OSError):
            socket.create_connection(running.address, timeout=2).close()

    def test_idle_keepalive_connection_does_not_delay_stop(
        self, running, monkeypatch
    ):
        # A client that connects and then goes silent sits in a
        # *timed* read; shrink the timeout so the test proves the
        # bound without waiting out the production 30 s.
        monkeypatch.setattr(frontend_module, "IDLE_TIMEOUT", 0.5)
        idle = socket.create_connection(running.address, timeout=5)
        try:
            assert running.request("GET", "/healthz")[0] == 200
            started = time.monotonic()
            running.stop()
            assert time.monotonic() - started < 5.0
        finally:
            idle.close()
