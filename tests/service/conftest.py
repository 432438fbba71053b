"""Shared fixtures for the measure-service tests."""

from __future__ import annotations

import asyncio
import http.client
import itertools
import json
import random
import socket
import threading

import pytest

from repro.service import MeasureService, MeasureStore
from repro.service.cluster import ClusterFrontend, bootstrap_cluster
from repro.service.cluster.manifest import shard_dir
from repro.workflow.workflow import AggregationWorkflow


@pytest.fixture()
def service_workflow(syn_schema):
    """Distributive + algebraic + holistic + derived measures."""
    wf = AggregationWorkflow(syn_schema, name="service-test")
    wf.basic("Count", {"d0": "d0.L1", "d1": "d1.L1"}, agg="count")
    wf.basic("Total", {"d0": "d0.L1"}, agg=("sum", "v"))
    wf.basic("AvgV", {"d1": "d1.L1"}, agg=("avg", "v"))
    wf.basic("MedV", {"d0": "d0.L1"}, agg=("median", "v"))
    wf.rollup("sCount", {"d0": "d0.L1"}, source="Count", agg="sum")
    return wf


@pytest.fixture()
def cluster_workflow(syn_schema):
    """Partitionable mix: distributive, holistic, and a rollup.

    Every measure keeps ``d0`` (the partition dimension) at a non-ALL
    level — the cluster's partitionability requirement, which
    ``service_workflow`` (``AvgV`` drops ``d0``) does not meet.
    """
    wf = AggregationWorkflow(syn_schema, name="cluster-test")
    wf.basic("Count", {"d0": "d0.L1", "d1": "d1.L1"}, agg="count")
    wf.basic("Total", {"d0": "d0.L1"}, agg=("sum", "v"))
    wf.basic("MedV", {"d0": "d0.L1"}, agg=("median", "v"))
    wf.rollup("sCount", {"d0": "d0.L1"}, source="Count", agg="sum")
    return wf


@pytest.fixture()
def mergeable_workflow(syn_schema):
    """No holistic measures: every ingest is fully incremental."""
    wf = AggregationWorkflow(syn_schema, name="mergeable-test")
    wf.basic("Count", {"d0": "d0.L1", "d1": "d1.L1"}, agg="count")
    wf.basic("Total", {"d0": "d0.L1"}, agg=("sum", "v"))
    wf.rollup("sCount", {"d0": "d0.L1"}, source="Count", agg="sum")
    return wf


def make_records(count: int, seed: int) -> list[tuple]:
    """Seeded synthetic records for the 3-dim/64-value schema."""
    rng = random.Random(seed)
    return [
        (
            rng.randrange(64),
            rng.randrange(64),
            rng.randrange(64),
            round(rng.random(), 6),
        )
        for __ in range(count)
    ]


class Running:
    """A frontend serving ``backend`` on a background event loop.

    Tests talk to it over real sockets, so status codes, bodies,
    headers and keep-alive behaviour are exercised end to end.
    """

    def __init__(self, backend, **kwargs):
        self.backend = backend
        self.frontend = ClusterFrontend(backend, port=0, **kwargs)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, daemon=True
        )
        self.thread.start()
        asyncio.run_coroutine_threadsafe(
            self.frontend.start(), self.loop
        ).result(timeout=10)
        self.address = (self.frontend.host, self.frontend.port)

    def exchange(self, method, target, body=None, headers=None):
        """One request; ``(status, body, response headers)``.  A
        ``bytes`` body goes out as is, anything else as JSON."""
        conn = http.client.HTTPConnection(*self.address, timeout=60)
        try:
            if body is not None and not isinstance(body, bytes):
                body = json.dumps(body).encode()
            sent = dict(headers or {})
            if body:
                sent.setdefault("Content-Type", "application/json")
            conn.request(method, target, body=body, headers=sent)
            response = conn.getresponse()
            raw = response.read()
            ctype = response.getheader("Content-Type", "")
            data = json.loads(raw) if "json" in ctype else raw.decode()
            return response.status, data, dict(response.getheaders())
        finally:
            conn.close()

    def request(self, method, target, body=None):
        return self.exchange(method, target, body)[:2]

    def raw(self, payload: bytes) -> bytes:
        """Send bytes that no HTTP client would; everything the
        server writes before it closes the connection."""
        with socket.create_connection(self.address, timeout=10) as sock:
            sock.sendall(payload)
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        return b"".join(chunks)

    async def _stop(self):
        await self.frontend.stop()
        # stop() does not wait for connections parked between
        # requests; let their handlers see the stream end (or the idle
        # timeout) before the loop goes.
        handlers = asyncio.all_tasks() - {asyncio.current_task()}
        if handlers:
            await asyncio.wait(handlers, timeout=5)

    def stop(self):
        asyncio.run_coroutine_threadsafe(
            self._stop(), self.loop
        ).result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


@pytest.fixture(params=["store", "cluster"])
def open_backend(request, tmp_path, service_workflow, cluster_workflow):
    """Bootstrap a backend of each kind the frontend serves without
    tenants: one plain store, and a 2-shard cluster.

    The default workflows differ on purpose — the plain store serves
    one a cluster could not partition — and share ``Count``, ``Total``,
    ``MedV`` (holistic) and ``sCount``.
    """
    kind = request.param
    serial = itertools.count()

    def build(records, workflow=None):
        path = str(tmp_path / f"{kind}-{next(serial)}")
        if kind == "cluster":
            return bootstrap_cluster(
                path, workflow or cluster_workflow, records, num_shards=2
            )
        service = MeasureService(
            MeasureStore(path), workflow or service_workflow
        )
        service.bootstrap(records)
        return service

    return build


def dirty_on_disk(backend) -> set:
    """Dirty measures in the MANIFESTs a restarted server would read."""
    if isinstance(backend, MeasureService):
        paths = [backend.store.path]
    else:
        paths = [
            shard_dir(backend.root, index)
            for index in range(backend.num_shards)
        ]
    return set().union(
        *(MeasureStore(path).dirty_measures() for path in paths)
    )
