"""Asyncio HTTP front end: the one HTTP server of the measure service.

One route table serves any of three backends — a
:class:`~repro.service.server.MeasureService` (one plain store), a
:class:`~repro.service.cluster.router.MeasureCluster`, or a
:class:`~repro.service.cluster.tenancy.TenantManager`.  The read and
write routes call the methods the three share (``point``, ``range``,
``table``, ``rollup``, ``measures``, ``stats``); what differs per
backend is a method the backend answers: ``health``, ``status_fields``,
``ingest_reply``, ``pull_telemetry``, ``resolve``/``close`` and the
tenant questions (``tenants``, ``tenant_scope``, ``tenant_label``,
``submit_workflow``).

The front end holds thousands of concurrent keep-alive connections on
a single event loop and runs the actual measure work on a small,
bounded executor pool — connection count and worker parallelism are
decoupled.

With a tenant manager every data route takes a ``tenant`` query
parameter (default ``"default"``); admission rejections surface as
HTTP 429 with the structured :class:`~repro.errors.AdmissionError`
payload, the admission-control mirror of the 422 lint-rejection body.

``POST /workflow`` takes the workflow as a *named query family*
(``{"query": "escalation"}``, resolved through
:mod:`repro.queries.registry` by trusted server-side builders) or as a
base64 pickle blob.  Unpickling client bytes executes arbitrary code,
so pickle bodies are accepted only from trusted operators: by default
on loopback binds, elsewhere only when the server was started with
``allow_pickle_workflows=True`` (``repro serve
--allow-pickle-workflows``); otherwise they are refused with 403.

Shutdown is graceful: stop accepting, drain requests already
executing, then resolve deferred work so every store MANIFEST on disk
is final before the process exits.
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
from http import HTTPStatus
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

logger = logging.getLogger("repro.service.cluster")

#: Bind hosts whose clients are local processes.  Pickled workflow
#: submissions (arbitrary code execution by construction) are accepted
#: from these by default; any other bind needs the operator's explicit
#: ``allow_pickle_workflows`` opt-in.
LOOPBACK_HOSTS = frozenset({"127.0.0.1", "::1", "localhost"})

#: Seconds an idle keep-alive connection may sit between requests.
IDLE_TIMEOUT = 30.0

#: Seconds one request may spend executing before the front end gives
#: up on it (the executor task keeps running; the client gets a 503).
REQUEST_TIMEOUT = 120.0

_MAX_HEADER_BYTES = 65536
_MAX_BODY_BYTES = 64 * 1024 * 1024

#: The one parametric route; its label stands for every trace id.
_TRACE_PREFIX = "/debug/trace/"
_TRACE_ROUTE = "/debug/trace/:id"


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


def _parse_key(text: str) -> tuple:
    """Parse ``"3,0,7"`` into a region-key tuple of ints."""
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ServiceError(
            f"malformed region key {text!r}; expected comma-separated "
            "integers"
        ) from None


def _rows(pairs) -> list:
    return [[list(key), value] for key, value in pairs]


class ClusterFrontend:
    """Serve a :class:`MeasureService`, a :class:`MeasureCluster` or a
    :class:`TenantManager` over HTTP."""

    def __init__(
        self,
        backend,
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
                    head = None
                if head is None or len(head) > _MAX_HEADER_BYTES:
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
                length = int(headers.get("content-length") or 0)
                if length < 0:
                    raise ValueError(length)
            except ValueError:
                # The body's extent is unknown, so the connection
                # cannot be reused for a next request.
                await self._respond(
                    writer, 400, {"error": "malformed request"},
                    close=True,
                )
                return False
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
            status, payload = await self._dispatch(
                method, target, body, ctx
            )
            await self._respond(
                writer, status, payload, close=close, ctx=ctx
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
        payload: dict | str,
        close: bool = False,
        ctx=None,
    ) -> None:
        if isinstance(payload, str):  # the /metrics exposition
            body = payload.encode("utf-8")
            ctype = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload).encode("utf-8")
            ctype = "application/json"
        reason = HTTPStatus(status).phrase
        correlation = (
            f"X-Request-Id: {ctx.request_id}\r\n"
            f"traceparent: {ctx.traceparent()}\r\n"
            if ctx is not None
            else ""
        )
        writer.write(
            (
                f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"{correlation}"
                f"Connection: {'close' if close else 'keep-alive'}\r\n"
                "\r\n"
            ).encode("latin-1")
            + body
        )
        await writer.drain()

    # -- dispatch ------------------------------------------------------

    async def _dispatch(self, method: str, target: str, body: bytes, ctx):
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        params = {
            name: values[-1]
            for name, values in parse_qs(split.query).items()
        }
        # Metric labels come from the route table and the tenant
        # registry, never from the request: clients must not be able
        # to mint series.
        route = path
        if path.startswith(_TRACE_PREFIX):
            route = _TRACE_ROUTE
            params["id"] = path.rsplit("/", 1)[-1]
        handler = self._ROUTES.get((method, route))
        if handler is None:
            route = "unmatched"
        self._requests.labels(route=route).inc()
        started = time.perf_counter()
        status, payload = await self._execute(
            handler, method, route, path, params, body, ctx
        )
        try:
            self.observer.observe(
                route=route,
                method=method,
                status=status,
                seconds=time.perf_counter() - started,
                ctx=ctx,
                tenant=self.backend.tenant_label(params.get("tenant")),
                error=payload.get("error") if status >= 400 else None,
            )
        except Exception:
            # The answer is owed whatever the bookkeeping does.
            logger.exception("request observer failed on %s", route)
        return status, payload

    async def _execute(
        self, handler, method, route, path, params, body, ctx
    ):
        if handler is None:
            if method not in {known for known, __ in self._ROUTES}:
                return 405, {"error": f"method {method} not allowed"}
            return 404, {"error": f"unknown route {path!r}"}
        loop = asyncio.get_running_loop()
        try:
            work = handler(self, params, body)
            traced = self._traced(work, method, route, params, ctx)
            result = await asyncio.wait_for(
                loop.run_in_executor(self._executor, traced),
                timeout=REQUEST_TIMEOUT,
            )
            return 200, result
        except _HTTPError as exc:
            return exc.status, exc.payload
        except asyncio.TimeoutError:
            return 503, {"error": "request timed out"}
        except AdmissionError as exc:
            return 429, exc.payload
        except ServiceError as exc:
            payload: dict = {"error": str(exc)}
            status = 404 if method == "GET" else 400
            if exc.diagnostics:
                payload["diagnostics"] = [
                    d.to_dict() for d in exc.diagnostics
                ]
                status = 422
            return status, payload
        except (KeyError, ValueError, TypeError, GranularityError) as exc:
            return 400, {"error": f"bad request: {exc}"}
        except Exception as exc:  # pragma: no cover - defensive
            logger.exception("unhandled error on %s", route)
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

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
            self._scope(params).pull_telemetry()
        except Exception:  # pragma: no cover - defensive
            logger.debug("post-request telemetry pull failed", exc_info=True)

    def _scope(self, params: dict):
        """What answers this request's reads (its tenant's cluster)."""
        return self.backend.tenant_scope(params.get("tenant"))

    # -- route handlers ------------------------------------------------
    # Each takes (params, body), runs on the event loop, raises for
    # what it can refuse without blocking, and returns the blocking
    # thunk that the executor runs.

    def _healthz(self, params: dict, body: bytes):
        def healthz():
            health = self.backend.health()
            if health["status"] == "fenced":
                # A fenced cluster refuses reads and writes; tell the
                # load balancer the truth instead of a hollow 200.
                raise _HTTPError(503, health)
            return health
        return healthz

    def _statusz(self, params: dict, body: bytes):
        # ``status_fields`` comes last so that a backend may rename the
        # service without moving the field.
        return lambda: {
            "service": "repro-cluster-frontend",
            "time": round(time.time(), 3),
            "started": round(self._started_wall, 3),
            "uptime_seconds": round(
                time.monotonic() - self._started_mono, 3
            ),
            "host": self.host,
            "port": self.port,
            "tracing": tracing_enabled(),
            "health": self.backend.health(),
            "slow_query_threshold_seconds": (
                self.slow_log.threshold_seconds
            ),
            "slow_queries": self.slow_log.recent(),
            "slo": self.slo.status(),
            **self.backend.status_fields(),
        }

    def _debug_trace(self, params: dict, body: bytes):
        trace_id = params["id"]

        def debug_trace():
            self.backend.pull_telemetry()
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
        return debug_trace

    def _metrics(self, params: dict, body: bytes):
        def metrics():
            self.backend.pull_telemetry()
            self.slo.export(get_registry())
            return get_registry().render_prometheus()
        return metrics

    def _tenant_list(self, params: dict, body: bytes):
        return lambda: {"tenants": self.backend.tenants()}

    def _stats(self, params: dict, body: bytes):
        if "tenant" in params:
            return self._scope(params).stats
        return self.backend.stats

    def _measures(self, params: dict, body: bytes):
        scope = self._scope(params)
        return lambda: {"measures": scope.measures()}

    def _point(self, params: dict, body: bytes):
        scope = self._scope(params)
        measure = params["measure"]
        key = _parse_key(params["key"])
        return lambda: {
            "measure": measure,
            "key": list(key),
            "value": scope.point(measure, key),
        }

    def _range(self, params: dict, body: bytes):
        scope = self._scope(params)
        measure = params["measure"]
        prefix = _parse_key(params.get("prefix", ""))
        return lambda: {
            "measure": measure,
            "prefix": list(prefix),
            "rows": _rows(scope.range(measure, prefix)),
        }

    def _table(self, params: dict, body: bytes):
        scope = self._scope(params)
        measure = params["measure"]

        def table():
            result = scope.table(measure)
            return {
                "measure": measure,
                "levels": list(result.granularity.levels),
                "rows": _rows(result.items()),
            }
        return table

    def _rollup(self, params: dict, body: bytes):
        scope = self._scope(params)
        measure = params["measure"]
        spec = json.loads(params.get("spec", "{}"))
        agg = params.get("agg", "sum")

        def rollup():
            result = scope.rollup(measure, spec, agg=agg)
            return {
                "measure": measure,
                "agg": agg,
                "levels": list(result.granularity.levels),
                "rows": _rows(result.items()),
            }
        return rollup

    def _ingest(self, params: dict, body: bytes):
        data = json.loads(body or b"{}")
        records = [tuple(record) for record in data["records"]]
        tenant = params.get("tenant", data.get("tenant"))
        return lambda: self.backend.ingest_reply(records, tenant)

    def _workflow(self, params: dict, body: bytes):
        data = json.loads(body or b"{}")
        return lambda: self._post_workflow(params, data)

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
        """Validate a workflow; a tenant manager may also register it.

        Analysis first (422 with the error-level diagnostics on a lint
        rejection), then whatever the backend adds: the footprint gate
        (429) and, when ``records`` are supplied, tenant bootstrap.
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
        records = [tuple(r) for r in data.get("records", [])]
        payload.update(
            self.backend.submit_workflow(
                workflow,
                params.get("tenant", data.get("tenant")),
                records,
                data.get("dataset_size", len(records) or None),
            )
        )
        return payload

    #: The one route table.  Its keys are the ``route`` label of every
    #: request metric, the 404/405 answers and :meth:`describe_routes`.
    _ROUTES = {
        ("GET", "/measures"): _measures,
        ("GET", "/point"): _point,
        ("GET", "/range"): _range,
        ("GET", "/table"): _table,
        ("GET", "/rollup"): _rollup,
        ("GET", "/stats"): _stats,
        ("GET", "/tenants"): _tenant_list,
        ("GET", "/metrics"): _metrics,
        ("GET", "/healthz"): _healthz,
        ("GET", "/statusz"): _statusz,
        ("GET", _TRACE_ROUTE): _debug_trace,
        ("POST", "/ingest"): _ingest,
        ("POST", "/workflow"): _workflow,
    }

    @classmethod
    def describe_routes(cls) -> str:
        """The route table in one line, for the startup log."""
        return " ".join(f"{method} {route}" for method, route in cls._ROUTES)
