"""The serve path: HTTP → ``ClusterFrontend`` → ``MeasureCluster`` →
shard ``MeasureService`` → ``MeasureStore``.

Everything runs in this one process: shards are ``mode="local"``, the
front end runs on an asyncio loop in a joined thread, and the load is at
most two client threads with one keep-alive connection each.  Readers
are a closed loop (the next request leaves when the previous answer
arrived); the writer is an open loop (one ``/ingest`` every
``ingest_every`` seconds, timed from the moment it was due).

The traced run adds the replay ladder: the same seeded request list is
sent over HTTP, to ``MeasureCluster``, to the owning shard's
``MeasureService`` and to its ``MeasureStore``, each on a scratch copy
of the cluster directory; a layer's self time is its rung minus the
rung below.
"""

from __future__ import annotations

import asyncio
import http.client
import itertools
import json
import os
import shutil
import threading
import time
from collections import Counter
from statistics import median

from repro.cube.granularity import Granularity
from repro.engine import compile_workflow
from repro.service import MeasureService, MeasureStore
from repro.service.cluster import (
    ClusterFrontend,
    bootstrap_cluster,
    open_cluster,
)
from repro.service.cluster.manifest import shard_dir
from repro.service.cluster.partitioning import (
    key_lift_fn,
    partition_value_fn,
)

from perf.inputs import (
    ROLLUP_SPEC,
    SERVE_FANOUT,
    ServeSpec,
    delta_stream,
    point_stream,
    read_stream,
    serve_records,
    serve_schema,
    serve_workflow,
    target_of,
)
from perf.report import (
    SETUP_REPEATS,
    Result,
    close_enough,
    peak_rss_mb,
    tree_bytes,
)
from perf.stats import percentile, self_times

#: Ingests sent before the window opens.
WARMUP_INGESTS = 2

#: Requests of each kind the replay ladder sends through every rung.
LADDER = {"point": 300, "range": 100, "rollup": 8, "table": 8, "ingest": 6}

READ_OPS = ("point", "range", "rollup", "table")


# -- the benchmark-side reference ---------------------------------------


class Reference:
    """What the cluster must answer: a ``Counter`` over the bootstrap
    records plus every acknowledged delta.  Deltas resample bootstrap
    records, so the key set never changes — only counts and totals."""

    def __init__(self, records) -> None:
        self.count: Counter = Counter()
        self.total: dict[int, float] = {}
        self._json_rows: dict[str, list] = {}
        self.add(records)
        self.d1_of: dict[int, list[int]] = {}
        for d0, d1 in sorted(self.count):
            self.d1_of.setdefault(d0, []).append(d1)

    def add(self, records) -> None:
        self._json_rows.clear()
        for d0, d1, _d2, v in records:
            self.count[(d0, d1)] += 1
            self.total[d0] = self.total.get(d0, 0.0) + v

    def copy(self) -> "Reference":
        clone = object.__new__(Reference)
        clone.count = Counter(self.count)
        clone.total = dict(self.total)
        clone._json_rows = {}
        clone.d1_of = self.d1_of
        return clone

    def count_rows(self) -> dict[tuple, int]:
        return {(d0, d1, 0): n for (d0, d1), n in self.count.items()}

    def rollup_rows(self) -> dict[tuple, int]:
        rows: Counter = Counter()
        for (d0, _d1), n in self.count.items():
            rows[(d0 // SERVE_FANOUT, 0, 0)] += n
        return dict(rows)

    def total_rows(self) -> dict[tuple, float]:
        return {(d0, 0, 0): v for d0, v in self.total.items()}

    def json_rows(self, op: str) -> list:
        """The ``rows`` a ``/rollup`` or ``/table`` of Count must carry.
        Kept between calls: a reader checks every answer inside its
        closed loop, and must not spend the server's CPU rebuilding it."""
        rows = self._json_rows.get(op)
        if rows is None:
            table = self.rollup_rows() if op == "rollup" else self.count_rows()
            rows = self._json_rows[op] = _as_json_rows(table)
        return rows


def _as_json_rows(rows: dict) -> list:
    return [[list(key), value] for key, value in sorted(rows.items())]


def read_error(request, payload, low: Reference, high: Reference) -> str:
    """Empty when ``payload`` is a right answer to ``request`` for some
    state between ``low`` and ``high`` (the same object at quiescence)."""
    op, key = request
    try:
        if op == "point":
            value = payload["value"]
            if not low.count[key] <= value <= high.count[key]:
                return f"point {key}: {value}, want {high.count[key]}"
        elif op == "range":
            d0 = key[0]
            rows = payload["rows"]
            wanted = low.d1_of[d0]
            if [row[0] for row in rows] != [[d0, d1, 0] for d1 in wanted]:
                return f"range {d0}: wrong keys"
            for (_key, value), d1 in zip(rows, wanted):
                if not low.count[(d0, d1)] <= value <= high.count[(d0, d1)]:
                    return f"range {d0}: ({d0}, {d1}) is {value}"
        elif payload["rows"] != high.json_rows(op):
            return f"{op}: rows differ from the reference"
    except (KeyError, TypeError, IndexError) as exc:
        return f"{op} {key}: malformed answer ({exc!r})"
    return ""


def judge_tables(
    result: Result, where: str, read_table, reference: Reference
) -> None:
    """Compare every stored measure, in full, with the reference;
    ``read_table`` maps a measure name to ``{key: value}``."""
    for name, wanted in (
        ("Count", reference.count_rows()),
        ("sCount", reference.rollup_rows()),
        ("Total", reference.total_rows()),
    ):
        rows = read_table(name)
        same = set(rows) == set(wanted) and all(
            close_enough(rows[key], value) for key, value in wanted.items()
        )
        result.judge(
            where, "" if same else f"{name} differs from the reference"
        )


# -- the served cluster and its clients ----------------------------------


class Served:
    """A cluster behind a ``ClusterFrontend`` whose event loop runs in a
    thread of this process.  ``stop`` always ends with the loop stopped,
    the thread joined and the cluster closed."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self.frontend = ClusterFrontend(cluster, port=0)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="perf-frontend-loop"
        )
        self._listening = False

    def start(self) -> "Served":
        self.thread.start()
        asyncio.run_coroutine_threadsafe(
            self.frontend.start(), self.loop
        ).result(timeout=30)
        self._listening = True
        return self

    def client(self) -> "Client":
        return Client(self.frontend.host, self.frontend.port)

    async def _shut_down(self) -> None:
        # Drains requests, resolves deferred work, closes the cluster
        # and joins the executor threads.
        await self.frontend.stop()
        # The clients have closed their connections; let each handler
        # task see the end of its stream before the loop goes.
        handlers = [
            task for task in asyncio.all_tasks()
            if task is not asyncio.current_task()
        ]
        if handlers:
            await asyncio.wait(handlers, timeout=5)

    def stop(self) -> None:
        try:
            if self._listening:
                self._listening = False
                asyncio.run_coroutine_threadsafe(
                    self._shut_down(), self.loop
                ).result(timeout=60)
        finally:
            if self.thread.is_alive():
                self.loop.call_soon_threadsafe(self.loop.stop)
                self.thread.join(timeout=30)
            if not self.loop.is_running():
                self.loop.close()
            self.cluster.close()


class Client:
    """One keep-alive HTTP connection."""

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=60)

    def get(self, target: str):
        self.conn.request("GET", target)
        return self._answer()

    def post(self, target: str, body: bytes):
        self.conn.request(
            "POST", target, body=body,
            headers={"Content-Type": "application/json"},
        )
        return self._answer()

    def _answer(self):
        response = self.conn.getresponse()
        raw = response.read()
        return response.status, json.loads(raw)

    def close(self) -> None:
        self.conn.close()


def ingest_body(delta) -> bytes:
    return json.dumps({"records": delta}).encode("utf-8")


class Reader(threading.Thread):
    """Closed loop: sends the stream's next read when the last answered."""

    def __init__(self, client, stream, opens, closes, abort, check):
        super().__init__(name="perf-reader")
        self.client, self.stream = client, stream
        self.opens, self.closes, self.abort = opens, closes, abort
        #: ``check(request, payload)`` → error text, or None to defer.
        self.check = check
        self.latencies: list[float] = []
        self.deferred: list[tuple] = []
        self.errors: list[str] = []
        self.attempted = 0
        self.last_done = opens

    def run(self) -> None:
        try:
            for request in self.stream:
                sent = time.perf_counter()
                if sent >= self.closes or self.abort.is_set():
                    return
                status, payload = self.client.get(target_of(request))
                done = time.perf_counter()
                if sent < self.opens:
                    continue
                self.attempted += 1
                self.last_done = done
                error = (
                    f"{request[0]}: HTTP {status}" if status != 200
                    else self.check(request, payload)
                )
                if error is None:
                    self.deferred.append((request, payload))
                elif error:
                    self.errors.append(error)
                    continue
                self.latencies.append(done - sent)
        except Exception as exc:  # a dead connection ends this client
            self.attempted += 1
            self.errors.append(f"reader died: {exc!r}")


class Writer(threading.Thread):
    """Open loop: one ``/ingest`` every ``every`` seconds whatever the
    last one did; latency runs from the due time, not the send time."""

    def __init__(self, client, deltas, every, opens, closes, abort):
        super().__init__(name="perf-writer")
        self.client, self.deltas, self.every = client, deltas, every
        self.opens, self.closes, self.abort = opens, closes, abort
        self.latencies: list[float] = []
        self.late: list[float] = []
        self.backlog_max = 0
        self.acked: list[list] = []
        self.errors: list[str] = []
        self.attempted = 0
        self.last_done = opens

    def run(self) -> None:
        try:
            for k in itertools.count(-WARMUP_INGESTS):
                due = self.opens + k * self.every
                if due >= self.closes:
                    return
                delta = next(self.deltas)
                body = ingest_body(delta)
                if self.abort.wait(max(0.0, due - time.perf_counter())):
                    return
                sent = time.perf_counter()
                status, payload = self.client.post("/ingest", body)
                done = time.perf_counter()
                if status == 200:
                    self.acked.append(delta)
                if k < 0:
                    continue
                self.attempted += 1
                self.last_done = done
                if status != 200 or payload.get("records") != len(delta):
                    self.errors.append(f"ingest: HTTP {status} {payload}")
                    continue
                self.latencies.append(done - due)
                self.late.append(sent - due)
                self.backlog_max = max(
                    self.backlog_max, int((sent - due) / self.every)
                )
        except Exception as exc:
            self.attempted += 1
            self.errors.append(f"writer died: {exc!r}")


# -- one run ---------------------------------------------------------------


def _set_up(spec: ServeSpec, seed: int, root: str):
    """Generate the records, bootstrap the cluster, start the front end."""
    started = time.perf_counter()
    records = serve_records(seed, spec.bootstrap)
    workflow = serve_workflow(serve_schema())
    cluster = bootstrap_cluster(
        root, workflow, records, num_shards=spec.shards
    )
    served = Served(cluster)
    try:
        served.start()
    except BaseException:
        served.stop()
        raise
    return time.perf_counter() - started, records, workflow, served


def run(
    spec: ServeSpec, seed: int, seconds: float, trace: bool, work: str,
    result: Result,
) -> None:
    served = None
    abort = threading.Event()
    clients: list[Client] = []
    threads: list[threading.Thread] = []
    try:
        setups = []
        for attempt in range(1 if trace else SETUP_REPEATS):
            if served:
                served.stop()
                shutil.rmtree(root)
            root = os.path.join(work, f"cluster-{attempt}")
            setup_s, records, workflow, served = _set_up(spec, seed, root)
            setups.append(setup_s)
        bootstrap = Reference(records)
        shard_map = served.cluster.shard_map

        if spec.ingest_every:
            def check(request, payload):
                return None  # judged after the window, between bounds
        else:
            def check(request, payload):
                return read_error(request, payload, bootstrap, bootstrap)

        opens = time.perf_counter() + spec.warmup
        closes = opens + (seconds * 0.5 if trace else seconds)
        readers = []
        for index in range(spec.readers):
            clients.append(served.client())
            stream = read_stream(spec, seed, records, f"reader-{index}")
            readers.append(
                Reader(clients[-1], stream, opens, closes, abort, check)
            )
        writer = None
        if spec.ingest_every:
            clients.append(served.client())
            deltas = delta_stream(seed, records, spec.delta, "writer")
            writer = Writer(
                clients[-1], deltas, spec.ingest_every, opens, closes, abort
            )
        threads = readers + ([writer] if writer else [])
        for thread in threads:
            thread.start()

        time.sleep(max(0.0, opens - time.perf_counter()))
        before = served.cluster.stats() if trace else None
        for thread in threads:
            thread.join()
        after = served.cluster.stats() if trace else None
        rss = peak_rss_mb()
        disk = tree_bytes(root) / 1e6
    finally:
        abort.set()
        for thread in threads:
            if thread.is_alive():
                thread.join(timeout=60)
        for client in clients:
            client.close()
        if served:
            served.stop()

    final = bootstrap.copy()
    if writer:
        for delta in writer.acked:
            final.add(delta)
    for reader in readers:
        for request, payload in reader.deferred:
            error = read_error(request, payload, bootstrap, final)
            if error:
                reader.errors.append(error)
    for thread in threads:
        result.attempted += thread.attempted
        result.failed += len(thread.errors)
        result.errors.extend(thread.errors[: 10 - len(result.errors)])

    # Every acknowledged ingest must be readable after a close and reopen.
    reopened = open_cluster(root, workflow)
    try:
        judge_tables(
            result, "after reopen",
            lambda name: reopened.table(name).rows, final,
        )
    finally:
        reopened.close()

    measured = [writer] if spec.primary == "ingest" else readers
    primary = [t for thread in measured for t in thread.latencies]
    if not primary:
        result.fail("no operation of the primary kind completed")
    elif trace:
        reads = [t for reader in readers for t in reader.latencies]
        _load_metrics(before, after, reads, writer, result)
        _store_shape(spec, root, result)
        _ladder(
            spec, seed, records, workflow, shard_map, root, work, final,
            result,
        )
    else:
        result.put("setup_s", median(setups), len(setups))
        result.put("op_p50_ms", median(primary) * 1e3, len(primary))
        result.put("op_p90_ms", percentile(primary, 0.9) * 1e3, len(primary))
        # Each connection's own rate, summed: a connection that finishes
        # its last request early is not charged the other's tail.
        rate = sum(
            len(thread.latencies) / (thread.last_done - opens)
            for thread in measured if thread.latencies
        )
        result.put("ops_per_s", rate, len(primary))
        result.put("peak_rss_mb", rss)
        result.put("disk_mb", disk)


# -- the traced run --------------------------------------------------------


def _load_metrics(before, after, reads, writer, result: Result) -> None:
    """What the load window itself shows about the layers."""
    if reads:
        result.put(
            "loadgen.read_p99_ms", percentile(reads, 0.99) * 1e3, len(reads)
        )
        hits = after["cache_hits"] - before["cache_hits"]
        misses = after["cache_misses"] - before["cache_misses"]
        if hits + misses:
            result.put(
                "server.cache_hit_ratio", hits / (hits + misses),
                hits + misses,
            )
    if writer and writer.latencies:
        n = len(writer.latencies)
        result.put("loadgen.ingest_p50_ms", median(writer.latencies) * 1e3, n)
        result.put("loadgen.ingest_late_p50_ms", median(writer.late) * 1e3, n)
        result.put("loadgen.ingest_backlog_max", writer.backlog_max, n)


def _store_shape(spec, root: str, result: Result) -> None:
    """Space: bytes per stored row and live segments, over all shards."""
    stores = [
        MeasureStore(shard_dir(root, index)) for index in range(spec.shards)
    ]
    table_bytes = table_rows = 0
    for store in stores:
        for kind, names in (
            ("values", store.measures()), ("states", store.state_nodes())
        ):
            for name in names:
                info = store.table_info(name, kind)
                table_rows += info["rows"]
                table_bytes += os.path.getsize(
                    os.path.join(store.path, "segments", info["file"])
                )
    result.put("store.bytes_per_row", table_bytes / table_rows, table_rows)
    result.put(
        "store.segments", sum(store.segment_count() for store in stores)
    )


def _ladder_requests(spec, seed, records):
    """The seeded request list every rung replays."""
    stream = point_stream(seed, records, spec.hot_keys, "ladder")
    requests: dict[str, list] = {"point": [], "range": []}
    for request in stream:
        wanted = requests[request[0]]
        if len(wanted) < LADDER[request[0]]:
            wanted.append(request)
        elif all(len(requests[op]) >= LADDER[op] for op in requests):
            break
    requests["rollup"] = [("rollup", ())] * LADDER["rollup"]
    requests["table"] = [("table", ())] * LADDER["table"]
    deltas = delta_stream(seed, records, spec.delta, "ladder")
    requests["ingest"] = list(itertools.islice(deltas, LADDER["ingest"]))
    return requests


def _changed_bytes(root: str, before: dict) -> tuple[int, dict]:
    """Bytes of files that are new or rewritten since ``before``."""
    now = {}
    for parent, _dirs, names in os.walk(root):
        for name in names:
            path = os.path.join(parent, name)
            stat = os.stat(path)
            now[path] = (stat.st_size, stat.st_mtime_ns)
    written = sum(
        size for path, (size, mtime) in now.items()
        if before.get(path) != (size, mtime)
    )
    return written, now


def _ladder(
    spec, seed, records, workflow, shard_map, root, work, final, result
) -> None:
    requests = _ladder_requests(spec, seed, records)
    graph = compile_workflow(workflow)
    schema = workflow.schema
    lift = key_lift_fn(graph, shard_map, "Count")
    route = partition_value_fn(graph, shard_map)

    def key3(request) -> tuple:
        return (request[1][0], request[1][1], 0)

    def owner_of(request) -> int:
        return shard_map.owner_of_value(lift(key3(request)))

    owners = {
        shard_map.owner_of_value(route(record))
        for delta in requests["ingest"]
        for record in delta
    }
    if len(owners) != 1:
        raise RuntimeError(f"hot-tail deltas span shards {sorted(owners)}")
    hot_shard = owners.pop()

    after_ingests = final.copy()
    for delta in requests["ingest"]:
        after_ingests.add(delta)
    count_rows = final.count_rows()

    # What each kind of answer must be, whatever rung gave it.
    def value_error(request, value) -> str:
        return read_error(request, {"value": value}, final, final)

    def rows_error(request, rows) -> str:
        payload = {"rows": _as_json_rows(dict(rows))}
        return read_error(request, payload, final, final)

    def count_table_error(_request, rows) -> str:
        return "" if rows == count_rows else "Count tables differ"

    #: rung → op → mean seconds per request
    means: dict[str, dict[str, float]] = {}

    def replay(
        rung: str, op: str, send, error_of=None, after=None, only=None
    ) -> None:
        """Send every ``op`` request through ``send``, timing each call.

        ``after`` runs between requests, outside the timing.  ``only``
        restricts the replay to the requests the rung above passed down;
        the mean stays per request of the full list, so rungs subtract.
        """
        spent = 0.0
        for request in requests[op] if only is None else only:
            started = time.perf_counter()
            answer = send(request)
            spent += time.perf_counter() - started
            result.judge(
                f"ladder {rung} {op}",
                error_of(request, answer) if error_of else "",
            )
            if after:
                after()
        means.setdefault(rung, {})[op] = spent / len(requests[op])

    def check_tables(rung: str, read_table) -> None:
        judge_tables(
            result, f"ladder {rung} after ingests", read_table, after_ingests
        )

    def scratch(rung: str) -> str:
        copy = os.path.join(work, f"ladder-{rung}")
        shutil.copytree(root, copy)
        return copy

    # Rung 1: over HTTP, one connection.
    copy = scratch("http")
    served = Served(open_cluster(copy, workflow))
    client = None
    try:
        client = served.start().client()

        def http_error(request, answer) -> str:
            status, payload = answer
            if status != 200:
                return f"HTTP {status}"
            if request[0] in READ_OPS:
                return read_error(request, payload, final, final)
            return ""

        for op in READ_OPS:
            replay("http", op, lambda r: client.get(target_of(r)), http_error)
        replay(
            "http", "ingest",
            lambda delta: client.post("/ingest", ingest_body(delta)),
            http_error,
        )
        check_tables(
            "http",
            lambda name: {
                tuple(key): value
                for key, value in client.get(f"/table?measure={name}")[1][
                    "rows"
                ]
            },
        )
    finally:
        if client:
            client.close()
        served.stop()
        shutil.rmtree(copy, ignore_errors=True)

    # Rung 2: MeasureCluster called directly.
    copy = scratch("cluster")
    cluster = open_cluster(copy, workflow)
    try:
        replay(
            "cluster", "point",
            lambda r: cluster.point("Count", key3(r)), value_error,
        )
        replay(
            "cluster", "range",
            lambda r: cluster.range("Count", (r[1][0],)), rows_error,
        )
        replay(
            "cluster", "rollup",
            lambda _r: cluster.rollup("Count", ROLLUP_SPEC, agg="sum").rows,
            rows_error,
        )
        replay(
            "cluster", "table",
            lambda _r: cluster.table("Count").rows, rows_error,
        )
        written = []
        files = _changed_bytes(copy, {})[1]

        def account_write() -> None:
            nonlocal files
            changed, files = _changed_bytes(copy, files)
            written.append(changed)

        replay("cluster", "ingest", cluster.ingest, after=account_write)
        check_tables("cluster", lambda name: cluster.table(name).rows)
    finally:
        cluster.close()
        shutil.rmtree(copy, ignore_errors=True)
    payload_bytes = spec.delta * schema.record_width * 8
    result.put(
        "store.write_bytes_per_ingest", median(written), len(written)
    )
    result.put(
        "store.write_amp", median(written) / payload_bytes, len(written)
    )

    # Rung 3: each shard's MeasureService, with the calls the shard
    # worker makes for the cluster-level request above — a roll-up and a
    # table read both load every shard's whole Count table.
    copy = scratch("service")
    try:
        services = [
            MeasureService(MeasureStore(shard_dir(copy, index)), workflow)
            for index in range(spec.shards)
        ]
        # Only a miss of the service's LRU reaches the store.
        passed_down: dict[str, list] = {"point": [], "range": []}

        def through_cache(op: str, call):
            def send(request):
                service = services[owner_of(request)]
                misses = service.cache_misses
                answer = call(service, request)
                if service.cache_misses > misses:
                    passed_down[op].append(request)
                return answer
            return send

        replay(
            "service", "point",
            through_cache("point", lambda s, r: s.point("Count", key3(r))),
            value_error,
        )
        replay(
            "service", "range",
            through_cache("range", lambda s, r: s.range("Count", (r[1][0],))),
            rows_error,
        )
        for op in ("rollup", "table"):
            replay(
                "service", op,
                lambda _r: _union(services, "Count"), count_table_error,
            )
        replay("service", "ingest", services[hot_shard].ingestor.ingest)
        check_tables("service", lambda name: _union(services, name))
    finally:
        shutil.rmtree(copy, ignore_errors=True)

    # Rung 4: each shard's MeasureStore.
    copy = scratch("store")
    try:
        stores = [
            MeasureStore(shard_dir(copy, index))
            for index in range(spec.shards)
        ]

        def store_point(request):
            try:
                return stores[owner_of(request)].point("Count", key3(request))
            except KeyError:
                return None

        def store_tables(_request) -> dict:
            rows: dict = {}
            for store in stores:
                rows.update(store.read_table("Count"))
            return rows

        replay(
            "store", "point", store_point, value_error,
            only=passed_down["point"],
        )
        replay(
            "store", "range",
            lambda r: stores[owner_of(r)].scan_prefix("Count", (r[1][0],)),
            rows_error, only=passed_down["range"],
        )
        for op in ("rollup", "table"):
            replay("store", op, store_tables, count_table_error)
        hot_store = stores[hot_shard]
        values = {
            name: hot_store.read_table(name) for name in hot_store.measures()
        }
        replay(
            "store", "ingest",
            lambda delta: _store_rewrite(hot_store, schema, values, delta),
        )
    finally:
        shutil.rmtree(copy, ignore_errors=True)

    layers = ("frontend", "router", "server", "store")
    for op in READ_OPS + ("ingest",):
        rungs = [means[r][op] for r in ("http", "cluster", "service", "store")]
        for layer, self_s in zip(layers, self_times(rungs)):
            name = f"{layer}.{op}_self_us"
            if layer == "store":
                name = "store.commit_us" if op == "ingest" else f"store.{op}_us"
            elif layer == "server" and op == "ingest":
                name = "ingest.fold_self_us"
            result.put(name, self_s * 1e6, LADDER[op])


def _union(services, name: str) -> dict:
    rows: dict = {}
    for service in services:
        rows.update(service.table(name).rows)
    return rows


def _store_rewrite(store: MeasureStore, schema, values, delta) -> None:
    """The store's share of one ingest, replayed with unchanged tables:
    read every state table, stage every state and value segment and the
    fact batch, swap the MANIFEST.  (An ingest derives ``values`` from
    the merged states; it does not read them back.)"""
    commit = store.begin()
    for name in store.state_nodes():
        info = store.table_info(name, "states")
        commit.put_states(
            name,
            Granularity(schema, tuple(info["levels"])),
            store.read_table(name, kind="states"),
            agg_name=info["agg"],
        )
    for name, rows in values.items():
        commit.put_values(
            name, Granularity(schema, store.levels(name)), rows
        )
    commit.append_facts(schema, delta)
    commit.commit()
