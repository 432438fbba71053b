"""Asyncio HTTP front end for the sharded, multi-tenant service.

The legacy front end (:mod:`repro.service.server`) spends one OS
thread per connection; this one holds thousands of concurrent
keep-alive connections on a single event loop and runs the actual
measure work on a small, bounded executor pool — connection count and
worker parallelism are decoupled.

Routes mirror the legacy server byte-for-byte where they overlap
(``/metrics``, ``/measures``, ``/stats``, ``/point``, ``/range``,
``/table``, ``/ingest``, ``/workflow``) and add ``/rollup``,
``/healthz``, and ``/tenants``.  In tenant mode every data route takes
a ``tenant`` query parameter (default ``"default"``); admission
rejections surface as HTTP 429 with the structured
:class:`~repro.errors.AdmissionError` payload, the admission-control
mirror of the 422 lint-rejection body.

``POST /workflow`` takes the workflow as a *named query family*
(``{"query": "escalation"}``, resolved through
:mod:`repro.queries.registry` by trusted server-side builders) or as a
base64 pickle blob.  Unpickling client bytes executes arbitrary code,
so pickle bodies are accepted only from trusted operators: by default
on loopback binds, elsewhere only when the server was started with
``allow_pickle_workflows=True`` (``repro serve
--allow-pickle-workflows``); otherwise they are refused with 403.

Shutdown is graceful: stop accepting, cancel idle keep-alive waits,
drain requests already executing, then resolve deferred work so every
store MANIFEST on disk is final before the process exits.
"""

from __future__ import annotations

import asyncio
import base64
import json
import logging
import os
import pickle
import time
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import parse_qs, urlsplit

from repro.errors import AdmissionError, GranularityError, ServiceError
from repro.obs import (
    get_registry,
    get_tracer,
    new_context,
    render_span_tree,
    tracing_enabled,
    use_context,
)
from repro.obs.metrics import HTTP_REQUESTS
from repro.obs.reqlog import (
    DEFAULT_SLOW_QUERY_SECONDS,
    RequestLog,
    RequestObserver,
    SlowQueryLog,
)
from repro.obs.slo import DEFAULT_OBJECTIVES, SLOTracker, parse_objectives
from repro.obs.trace import events_for_trace
from repro.queries.registry import QUERY_FAMILIES, build_query_workflow
from repro.service.cluster.router import MeasureCluster
from repro.service.cluster.tenancy import TenantManager
from repro.service.server import LOOPBACK_HOSTS, _parse_key

logger = logging.getLogger("repro.service.cluster")

#: Seconds an idle keep-alive connection may sit between requests.
IDLE_TIMEOUT = 30.0

#: Seconds one request may spend executing before the front end gives
#: up on it (the executor task keeps running; the client gets a 503).
REQUEST_TIMEOUT = 120.0

_MAX_HEADER_BYTES = 65536
_MAX_BODY_BYTES = 64 * 1024 * 1024


class _HTTPError(Exception):
    def __init__(self, status: int, payload: dict) -> None:
        super().__init__(payload.get("error", ""))
        self.status = status
        self.payload = payload


def _slow_query_threshold(value: float | None) -> float:
    if value is not None:
        return float(value)
    env = os.environ.get("REPRO_SLOW_QUERY_SECONDS", "")
    return float(env) if env else DEFAULT_SLOW_QUERY_SECONDS


def _slo_objectives(objectives):
    if objectives is not None:
        return tuple(objectives)
    spec = os.environ.get("REPRO_SLO", "")
    return parse_objectives(spec) if spec else DEFAULT_OBJECTIVES


def cluster_health(cluster: MeasureCluster) -> dict:
    """Structured liveness snapshot of one cluster (``/healthz``).

    ``status`` is ``"ok"`` (serving, all workers alive), ``"degraded"``
    (serving, but a worker is dead pending respawn-on-next-call), or
    ``"fenced"`` (an aborted ingest left the journal pending; reads and
    writes refuse until recovery).
    """
    from repro.service.cluster.manifest import IngestJournal

    shards = [
        {
            "shard": shard.index,
            "alive": bool(shard.alive),
            "respawns": getattr(shard, "respawns", 0),
        }
        for shard in cluster.shards
    ]
    if cluster.failed:
        status = "fenced"
    elif all(entry["alive"] for entry in shards):
        status = "ok"
    else:
        status = "degraded"
    return {
        "status": status,
        "mode": cluster.mode,
        "epoch": cluster.epoch,
        "fenced": cluster.failed,
        "journal_pending": IngestJournal.load(cluster.root) is not None,
        "shards": shards,
    }


class ClusterFrontend:
    """Serve a :class:`MeasureCluster` or :class:`TenantManager`."""

    def __init__(
        self,
        backend: MeasureCluster | TenantManager,
        host: str = "127.0.0.1",
        port: int = 0,
        executor_threads: int = 8,
        allow_pickle_workflows: bool | None = None,
        access_log_path: str | None = None,
        slow_query_path: str | None = None,
        slow_query_seconds: float | None = None,
        slo_objectives=None,
    ) -> None:
        self.backend = backend
        self.host = host
        self.port = port
        self._tenants = isinstance(backend, TenantManager)
        # None = decide from the bind: unpickling a request body runs
        # arbitrary client code, so outside loopback it takes the
        # operator's explicit opt-in.
        if allow_pickle_workflows is None:
            allow_pickle_workflows = host in LOOPBACK_HOSTS
        self._allow_pickle = allow_pickle_workflows
        self._executor = ThreadPoolExecutor(
            max_workers=executor_threads,
            thread_name_prefix="repro-frontend",
        )
        self._server: asyncio.AbstractServer | None = None
        self._active = 0
        self._drained = asyncio.Event()
        self._stopping = False
        self._requests = get_registry().counter(
            HTTP_REQUESTS,
            "HTTP requests served, by route",
            labelnames=("route",),
        )
        self._started_wall = time.time()
        self._started_mono = time.monotonic()
        self.slo = SLOTracker(objectives=_slo_objectives(slo_objectives))
        self.slow_log = SlowQueryLog(
            threshold_seconds=_slow_query_threshold(slow_query_seconds),
            path=slow_query_path,
        )
        self.observer = RequestObserver(
            access_log=RequestLog(access_log_path),
            slow_log=self.slow_log,
            slo=self.slo,
        )

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        logger.info(
            "async frontend listening on %s:%d", self.host, self.port
        )

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain, final flush."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._active:
            await self._drained.wait()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(self._executor, self._final_flush)
        self._executor.shutdown(wait=True)
        self.observer.close()
        logger.info("async frontend drained and stopped")

    def _final_flush(self) -> None:
        """Resolve deferred work so on-disk MANIFESTs are final."""
        if self._tenants:
            for name in self.backend.tenants():
                self.backend.cluster(name).resolve()
            self.backend.close()
        else:
            self.backend.resolve()
            self.backend.close()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    # -- connection handling -------------------------------------------

    async def _serve_connection(self, reader, writer) -> None:
        try:
            while not self._stopping:
                try:
                    head = await asyncio.wait_for(
                        reader.readuntil(b"\r\n\r\n"),
                        timeout=IDLE_TIMEOUT,
                    )
                except (
                    asyncio.IncompleteReadError,
                    asyncio.TimeoutError,
                    ConnectionResetError,
                ):
                    return
                except asyncio.LimitOverrunError:
                    await self._respond(
                        writer, 431,
                        {"error": "request headers too large"},
                        close=True,
                    )
                    return
                if len(head) > _MAX_HEADER_BYTES:
                    await self._respond(
                        writer, 431,
                        {"error": "request headers too large"},
                        close=True,
                    )
                    return
                keep_alive = await self._serve_request(
                    reader, writer, head
                )
                if not keep_alive:
                    return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _serve_request(self, reader, writer, head: bytes) -> bool:
        self._active += 1
        self._drained.clear()
        try:
            try:
                method, target, headers = self._parse_head(head)
            except ValueError:
                await self._respond(
                    writer, 400, {"error": "malformed request"},
                    close=True,
                )
                return False
            length = int(headers.get("content-length", 0) or 0)
            if length > _MAX_BODY_BYTES:
                await self._respond(
                    writer, 413, {"error": "request body too large"},
                    close=True,
                )
                return False
            body = (
                await reader.readexactly(length) if length else b""
            )
            close = (
                headers.get("connection", "").lower() == "close"
                or self._stopping
            )
            # Join the caller's distributed trace (or start a fresh
            # one) and honor a supplied correlation id; the response
            # always carries both so clients can stitch logs together.
            ctx = new_context(
                headers.get("traceparent"),
                request_id=headers.get("x-request-id", ""),
            )
            status, payload, text = await self._dispatch(
                method, target, body, ctx
            )
            await self._respond(
                writer, status, payload, text=text, close=close,
                extra_headers={
                    "X-Request-Id": ctx.request_id,
                    "traceparent": ctx.traceparent(),
                },
            )
            return not close
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            return False
        finally:
            self._active -= 1
            if self._active == 0:
                self._drained.set()

    @staticmethod
    def _parse_head(head: bytes):
        lines = head.decode("latin-1").split("\r\n")
        method, target, _version = lines[0].split(" ", 2)
        headers = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return method, target, headers

    async def _respond(
        self,
        writer,
        status: int,
        payload: dict | None,
        text: str | None = None,
        close: bool = False,
        extra_headers: dict | None = None,
    ) -> None:
        if text is not None:
            body = text.encode("utf-8")
            ctype = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload).encode("utf-8")
            ctype = "application/json"
        reason = {
            200: "OK",
            400: "Bad Request",
            403: "Forbidden",
            404: "Not Found",
            405: "Method Not Allowed",
            413: "Payload Too Large",
            422: "Unprocessable Entity",
            429: "Too Many Requests",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error",
            503: "Service Unavailable",
        }.get(status, "Status")
        extras = "".join(
            f"{name}: {value}\r\n"
            for name, value in (extra_headers or {}).items()
        )
        writer.write(
            (
                f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"{extras}"
                f"Connection: {'close' if close else 'keep-alive'}\r\n"
                "\r\n"
            ).encode("latin-1")
            + body
        )
        await writer.drain()

    # -- dispatch ------------------------------------------------------

    async def _dispatch(self, method: str, target: str, body: bytes, ctx):
        split = urlsplit(target)
        route = split.path.rstrip("/") or "/"
        params = {
            name: values[-1]
            for name, values in parse_qs(split.query).items()
        }
        self._requests.labels(route=route).inc()
        started = time.perf_counter()
        status, payload, text = await self._execute(
            method, route, params, body, ctx
        )
        self._observe_request(
            method, route, params, status, payload,
            time.perf_counter() - started, ctx,
        )
        return status, payload, text

    async def _execute(self, method, route, params, body, ctx):
        loop = asyncio.get_running_loop()
        try:
            work = self._work_for(method, route, params, body)
            traced = self._traced(work, method, route, params, ctx)
            result = await asyncio.wait_for(
                loop.run_in_executor(self._executor, traced),
                timeout=REQUEST_TIMEOUT,
            )
            if route == "/metrics":
                return 200, None, result
            return 200, result, None
        except _HTTPError as exc:
            return exc.status, exc.payload, None
        except asyncio.TimeoutError:
            return 503, {"error": "request timed out"}, None
        except AdmissionError as exc:
            return 429, exc.payload, None
        except ServiceError as exc:
            payload: dict = {"error": str(exc)}
            status = 404 if method == "GET" else 400
            if exc.diagnostics:
                payload["diagnostics"] = [
                    d.to_dict() for d in exc.diagnostics
                ]
                status = 422
            return status, payload, None
        except (KeyError, ValueError, TypeError, GranularityError) as exc:
            return 400, {"error": f"bad request: {exc}"}, None
        except Exception as exc:  # pragma: no cover - defensive
            logger.exception("unhandled error on %s", route)
            return 500, {"error": f"{type(exc).__name__}: {exc}"}, None

    def _traced(self, work, method, route, params, ctx):
        """Wrap one request thunk with the observability envelope.

        Context variables do not follow ``run_in_executor``, so the
        request context is entered *inside* the executor thread; the
        ``http:`` span then parents everything downstream.  The gap
        between submission here and the thunk actually starting is the
        executor queue wait — the saturation signal the access log
        reports per request.
        """
        submitted = time.perf_counter()

        def run():
            ctx.stats.queue_wait_seconds += (
                time.perf_counter() - submitted
            )
            with use_context(ctx):
                try:
                    with get_tracer().span(
                        f"http:{route}", cat="http", method=method
                    ):
                        return work()
                finally:
                    self._eager_flush(params, ctx)

        return run

    def _eager_flush(self, params: dict, ctx) -> None:
        """Absorb worker-process spans right after a traced request.

        Without this, a request's worker-side spans would sit in the
        shard processes until the next ``/metrics`` scrape — too late
        for the slow-query log's stage timings and for
        ``/debug/trace/<id>`` immediately after the fact.
        """
        if not tracing_enabled() or ctx.stats.fanout == 0:
            return
        try:
            cluster = self._cluster_for(params)
            cluster.pull_telemetry()
        except Exception:  # pragma: no cover - defensive
            logger.debug("post-request telemetry pull failed", exc_info=True)

    def _observe_request(
        self, method, route, params, status, payload, seconds, ctx
    ) -> None:
        error = None
        if status >= 400 and isinstance(payload, dict):
            error = payload.get("error")
        self.observer.observe(
            route=route,
            method=method,
            status=status,
            seconds=seconds,
            ctx=ctx,
            tenant=params.get(
                "tenant", "default" if self._tenants else "-"
            ),
            error=error,
        )

    def _cluster_for(self, params: dict):
        if not self._tenants:
            return self.backend
        return self.backend.cluster(params.get("tenant", "default"))

    def _work_for(self, method: str, route: str, params: dict, body: bytes):
        """Build the blocking thunk for one request (raises for 404s)."""
        if method == "GET":
            return self._get_work(route, params)
        if method == "POST":
            return self._post_work(route, params, body)
        raise _HTTPError(
            405, {"error": f"method {method} not allowed"}
        )

    def _pull_all_telemetry(self) -> None:
        """Absorb worker-process spans and metric samples into this
        process — per tenant cluster in tenant mode, so process-mode
        tenants' shard telemetry reaches the exported registry too."""
        if self._tenants:
            for name in self.backend.tenants():
                self.backend.cluster(name).pull_telemetry()
        else:
            self.backend.pull_telemetry()

    def _health(self) -> dict:
        if not self._tenants:
            return cluster_health(self.backend)
        tenants = {
            name: cluster_health(self.backend.cluster(name))
            for name in self.backend.tenants()
        }
        status = "ok"
        for health in tenants.values():
            if health["status"] == "fenced":
                status = "fenced"
                break
            if health["status"] != "ok":
                status = "degraded"
        return {"status": status, "tenants": tenants}

    def _health_work(self) -> dict:
        health = self._health()
        if health["status"] == "fenced":
            # A fenced cluster refuses reads and writes; tell the load
            # balancer the truth instead of a hollow 200.
            raise _HTTPError(503, health)
        return health

    def _statusz(self) -> dict:
        status = {
            "service": "repro-cluster-frontend",
            "time": round(time.time(), 3),
            "started": round(self._started_wall, 3),
            "uptime_seconds": round(
                time.monotonic() - self._started_mono, 3
            ),
            "host": self.host,
            "port": self.port,
            "tracing": tracing_enabled(),
            "health": self._health(),
            "slow_query_threshold_seconds": (
                self.slow_log.threshold_seconds
            ),
            "slow_queries": self.slow_log.recent(),
            "slo": self.slo.status(),
        }
        if self._tenants:
            status["tenants"] = self.backend.stats()
            # Cross-tenant sharing findings (CSM4xx): redundant tenant
            # dashboards show up here with estimated savings attached.
            status["workload"] = self.backend.workload_sharing_stats()
        return status

    def _debug_trace(self, trace_id: str) -> dict:
        self._pull_all_telemetry()
        events = events_for_trace(get_tracer().events, trace_id)
        if not events:
            raise _HTTPError(
                404, {"error": f"no recorded events for trace "
                      f"{trace_id!r} (is tracing enabled?)"}
            )
        return {
            "trace_id": trace_id,
            "events": events,
            "tree": render_span_tree(events),
        }

    def _get_work(self, route: str, params: dict):
        if route == "/healthz":
            return self._health_work
        if route == "/statusz":
            return self._statusz
        if route.startswith("/debug/trace/"):
            trace_id = route.rsplit("/", 1)[-1]
            return lambda: self._debug_trace(trace_id)
        if route == "/metrics":
            def metrics():
                self._pull_all_telemetry()
                self.slo.export(get_registry())
                return get_registry().render_prometheus()
            return metrics
        if route == "/tenants":
            if not self._tenants:
                raise _HTTPError(
                    404, {"error": "not running in tenant mode"}
                )
            return lambda: {"tenants": self.backend.tenants()}
        if route == "/stats":
            if self._tenants and "tenant" not in params:
                return self.backend.stats
            cluster = self._cluster_for(params)
            return cluster.stats
        if route == "/measures":
            cluster = self._cluster_for(params)
            return lambda: {"measures": cluster.measures()}
        if route == "/point":
            cluster = self._cluster_for(params)
            measure = params["measure"]
            key = _parse_key(params["key"])
            return lambda: {
                "measure": measure,
                "key": list(key),
                "value": cluster.point(measure, key),
            }
        if route == "/range":
            cluster = self._cluster_for(params)
            measure = params["measure"]
            prefix = _parse_key(params.get("prefix", ""))
            return lambda: {
                "measure": measure,
                "prefix": list(prefix),
                "rows": [
                    [list(key), value]
                    for key, value in cluster.range(measure, prefix)
                ],
            }
        if route == "/table":
            cluster = self._cluster_for(params)
            measure = params["measure"]
            def table():
                result = cluster.table(measure)
                return {
                    "measure": measure,
                    "levels": list(result.granularity.levels),
                    "rows": [
                        [list(key), value]
                        for key, value in result.items()
                    ],
                }
            return table
        if route == "/rollup":
            cluster = self._cluster_for(params)
            measure = params["measure"]
            spec = json.loads(params.get("spec", "{}"))
            agg = params.get("agg", "sum")
            def rollup():
                result = cluster.rollup(measure, spec, agg=agg)
                return {
                    "measure": measure,
                    "agg": agg,
                    "levels": list(result.granularity.levels),
                    "rows": [
                        [list(key), value]
                        for key, value in result.items()
                    ],
                }
            return rollup
        raise _HTTPError(404, {"error": f"unknown route {route!r}"})

    def _post_work(self, route: str, params: dict, body: bytes):
        if route == "/ingest":
            data = json.loads(body or b"{}")
            records = [tuple(record) for record in data["records"]]
            if self._tenants:
                tenant = params.get(
                    "tenant", data.get("tenant", "default")
                )
                return lambda: self.backend.ingest(tenant, records)
            return lambda: self.backend.ingest(records)
        if route == "/workflow":
            data = json.loads(body or b"{}")
            return lambda: self._post_workflow(params, data)
        raise _HTTPError(404, {"error": f"unknown route {route!r}"})

    def _decode_workflow(self, data: dict):
        """Resolve the submitted workflow: named family, or gated pickle."""
        query = data.get("query")
        if query is not None:
            return build_query_workflow(query)
        blob = data.get("workflow")
        if blob is None:
            raise _HTTPError(
                400,
                {
                    "error": "workflow body needs 'query' (a named "
                    "query family) or 'workflow' (base64 pickle)",
                    "queries": sorted(QUERY_FAMILIES),
                },
            )
        if not self._allow_pickle:
            raise _HTTPError(
                403,
                {
                    "error": "pickled workflow submissions are "
                    "disabled on this frontend (non-loopback bind); "
                    "POST {'query': <name>} instead, or restart with "
                    "--allow-pickle-workflows (trusted operators "
                    "only: unpickling executes arbitrary code)",
                    "queries": sorted(QUERY_FAMILIES),
                },
            )
        return pickle.loads(base64.b64decode(blob))

    def _post_workflow(self, params: dict, data: dict) -> dict:
        """Validate a workflow; in tenant mode, optionally register it.

        Mirrors the legacy 422 contract for lint rejections and adds
        the 429 admission contract: analysis first, then the footprint
        gate, then (when ``records`` are supplied) tenant bootstrap.
        """
        from repro.analysis import analyze

        workflow = self._decode_workflow(data)
        report = analyze(workflow)
        payload = report.to_dict()
        if not report.ok:
            payload["error"] = (
                f"workflow {workflow.name!r} rejected by static "
                f"analysis ({len(report.errors)} error(s))"
            )
            raise _HTTPError(422, payload)
        if not self._tenants:
            return payload
        tenant = params.get("tenant", data.get("tenant"))
        if tenant is None:
            return payload
        records = [tuple(r) for r in data.get("records", [])]
        dataset_size = data.get("dataset_size", len(records) or None)
        payload["estimate"] = self.backend.admit_workflow(
            tenant, workflow, dataset_size=dataset_size
        )
        if records:
            state = self.backend.register(tenant, workflow, records)
            payload["tenant"] = tenant
            payload["epoch"] = state.cluster.epoch
        return payload
