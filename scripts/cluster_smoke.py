"""End-to-end smoke of the sharded service: CI's `cluster-smoke` job.

Boots a 2-shard process-mode cluster behind the asyncio front end,
hammers it with concurrent HTTP ingests and queries, hard-kills one
shard worker mid-traffic, and requires the whole thing to keep
answering correctly (the router respawns the worker transparently).
Exits non-zero on any failed request, any wrong answer, or a missed
respawn — no green-by-silence.

A second leg drives the same front end over one *plain* store, the way
an operator does: ``python -m repro serve --store DIR`` as a
subprocess, a few reads and an ingest over HTTP, then SIGINT — which
must exit 0 and leave no deferred (dirty) measure on disk.

Run from the repository root:

    PYTHONPATH=src python scripts/cluster_smoke.py
"""

from __future__ import annotations

import asyncio
import http.client
import json
import random
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.parse

from repro.schema.dataset_schema import synthetic_schema
from repro.service import MeasureService, MeasureStore
from repro.service.cluster import ClusterFrontend, bootstrap_cluster
from repro.workflow.workflow import AggregationWorkflow

BOOTSTRAP = 2_000
DELTA = 100
TRAFFIC_SECONDS = 6.0
KILL_AFTER = 2.0


def _workflow(schema) -> AggregationWorkflow:
    wf = AggregationWorkflow(schema, name="cluster-smoke")
    wf.basic("Count", {"d0": "d0.L1", "d1": "d1.L1"}, agg="count")
    wf.basic("Total", {"d0": "d0.L1"}, agg=("sum", "v"))
    wf.rollup("sCount", {"d0": "d0.L2"}, source="Count", agg="sum")
    return wf


def _records(rng: random.Random, count: int) -> list:
    return [
        (
            rng.randrange(64),
            rng.randrange(64),
            rng.randrange(64),
            round(rng.random(), 6),
        )
        for __ in range(count)
    ]


def _request(host, port, method, target, body=None):
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, target, body=payload, headers=headers)
        response = conn.getresponse()
        data = json.loads(response.read())
        if response.status != 200:
            raise RuntimeError(
                f"{method} {target} -> {response.status}: {data}"
            )
        return data
    finally:
        conn.close()


class _Traffic(threading.Thread):
    """One client thread: mostly reads, occasional ingests."""

    def __init__(self, host, port, seed, stop, ingests):
        super().__init__(name=f"smoke-client-{seed}")
        self.host, self.port = host, port
        self.rng = random.Random(seed)
        self.stop = stop
        self.ingests = ingests
        self.requests = 0
        self.error: BaseException | None = None

    def run(self):
        try:
            while not self.stop.is_set():
                roll = self.rng.random()
                if roll < 0.05 and self.ingests:
                    _request(
                        self.host, self.port, "POST", "/ingest",
                        {"records": _records(self.rng, DELTA)},
                    )
                elif roll < 0.6:
                    key = self.rng.randrange(16)
                    _request(
                        self.host, self.port, "GET",
                        f"/point?measure=Total&key={key},0,0",
                    )
                else:
                    _request(
                        self.host, self.port, "GET",
                        "/table?measure=sCount",
                    )
                self.requests += 1
        except BaseException as exc:
            self.error = exc


def plain_store_leg() -> int:
    """``repro serve --store <plain store>``: reads, rollup, health,
    and a SIGINT that flushes deferred work before exiting 0."""
    rng = random.Random(11)
    schema = synthetic_schema(3, 3, 4)
    workflow = _workflow(schema)
    # Holistic, and without d0: deferred on ingest, and a shape no
    # cluster could partition — only a plain store serves it.
    workflow.basic("MedV", {"d1": "d1.L1"}, agg=("median", "v"))
    with tempfile.TemporaryDirectory(prefix="plain-smoke-") as root:
        path = f"{root}/store"
        MeasureService(MeasureStore(path), workflow).bootstrap(
            _records(rng, BOOTSTRAP)
        )
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--store", path, "--port", "0"],
            stderr=subprocess.PIPE, text=True,
        )
        try:
            match = None
            for banner in server.stderr:  # ends when serve exits
                match = re.search(
                    r"http://([\d.]+):(\d+) \(routes: (.*)\)", banner
                )
                if match is not None:
                    break
            if match is None:
                print("FAIL: serve exited without a serving banner")
                return 1
            host, port = match.group(1), int(match.group(2))
            if "GET /rollup" not in match.group(3):
                print(f"FAIL: banner does not list /rollup: {banner!r}")
                return 1
            print(f"serving plain store on {host}:{port}")
            point = _request(
                host, port, "GET", "/point?measure=Total&key=0,0,0"
            )
            spec = urllib.parse.quote(json.dumps({"d0": "d0.L2"}))
            rollup = _request(
                host, port, "GET", f"/rollup?measure=Count&spec={spec}"
            )
            expected = _request(host, port, "GET", "/table?measure=sCount")
            if point["value"] is None or rollup["rows"] != expected["rows"]:
                print(f"FAIL: wrong answer: {point} / {rollup['rows'][:3]}")
                return 1
            report = _request(
                host, port, "POST", "/ingest",
                {"records": _records(rng, DELTA)},
            )
            health = _request(host, port, "GET", "/healthz")
            if report["deferred_measures"] != ["MedV"] or health[
                "dirty_measures"
            ] != ["MedV"]:
                print(f"FAIL: nothing deferred: {report} / {health}")
                return 1
            server.send_signal(signal.SIGINT)
            code = server.wait(timeout=60)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
        if code != 0:
            print(f"FAIL: serve exited {code} on SIGINT")
            return 1
        dirty = MeasureStore(path).dirty_measures()
        if dirty:
            print(f"FAIL: dirty measures left on disk: {sorted(dirty)}")
            return 1
    print("plain-store smoke ok")
    return 0


def main() -> int:
    return cluster_leg() or plain_store_leg()


def cluster_leg() -> int:
    rng = random.Random(7)
    schema = synthetic_schema(3, 3, 4)
    with tempfile.TemporaryDirectory(prefix="cluster-smoke-") as root:
        cluster = bootstrap_cluster(
            f"{root}/cluster",
            _workflow(schema),
            _records(rng, BOOTSTRAP),
            num_shards=2,
            mode="process",
        )
        frontend = ClusterFrontend(cluster, port=0)
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        asyncio.run_coroutine_threadsafe(
            frontend.start(), loop
        ).result(timeout=30)
        host, port = frontend.host, frontend.port
        print(f"serving 2-shard process-mode cluster on {host}:{port}")

        health = _request(host, port, "GET", "/healthz")
        if health["status"] != "ok" or health["fenced"]:
            print(f"FAIL: unhealthy at boot: {health}")
            return 1
        if not all(s["alive"] for s in health["shards"]):
            print(f"FAIL: dead shard at boot: {health['shards']}")
            return 1

        stop = threading.Event()
        clients = [
            _Traffic(host, port, seed, stop, ingests=(seed % 2 == 0))
            for seed in range(4)
        ]
        for client in clients:
            client.start()
        time.sleep(KILL_AFTER)
        print("killing shard worker 0 under traffic")
        cluster.kill_worker(0)
        time.sleep(TRAFFIC_SECONDS - KILL_AFTER)
        stop.set()
        for client in clients:
            client.join(timeout=60)

        failures = [c.error for c in clients if c.error is not None]
        total = sum(c.requests for c in clients)
        stats = _request(host, port, "GET", "/stats")
        health = _request(host, port, "GET", "/healthz")
        asyncio.run_coroutine_threadsafe(
            frontend.stop(), loop
        ).result(timeout=60)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30)

        respawns = cluster.shards[0].respawns
        print(
            f"{total} requests, epoch {stats['epoch']}, "
            f"facts {stats['facts']}, worker-0 respawns {respawns}"
        )
        if failures:
            print(f"FAIL: {len(failures)} client error(s): {failures[0]}")
            return 1
        if respawns < 1:
            print("FAIL: killed worker was never respawned")
            return 1
        if stats["epoch"] < 2:
            print("FAIL: no ingest committed during the smoke")
            return 1
        # Real health, not a hollow liveness ping: after the kill and
        # transparent respawn the cluster must report every shard
        # alive again, with the respawn on the record.
        if health["status"] != "ok" or health["fenced"]:
            print(f"FAIL: unhealthy after recovery: {health}")
            return 1
        if not all(s["alive"] for s in health["shards"]):
            print(f"FAIL: dead shard after recovery: {health['shards']}")
            return 1
        if health["shards"][0]["respawns"] != respawns:
            print(f"FAIL: /healthz respawn count mismatch: {health}")
            return 1
        print("cluster smoke ok")
        return 0


if __name__ == "__main__":
    sys.exit(main())
