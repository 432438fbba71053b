"""Concurrent query layer over a persistent measure store.

:class:`MeasureService` wraps a :class:`~repro.service.store.MeasureStore`
with the operations a long-lived serving process needs:

- **point / range / table** reads, answered from the store's sorted
  segments through the sparse index, with a per-measure LRU cache in
  front (invalidated per measure when ingestion commits);
- **rollup-on-read**: any stored measure built from a distributive or
  algebraic-over-values aggregate can be generalized to a coarser
  granularity at query time, without touching facts;
- **ingest**: delegates to :class:`~repro.service.ingest.Ingestor`
  under the service lock, so readers never observe a half-applied
  delta;
- **lazy resolution**: queries against measures deferred by holistic
  ingestion trigger the fact-log recompute transparently (point reads
  of regions the delta did not touch skip it).

All public methods are thread-safe (one reentrant lock; the store's
commit protocol makes mutations atomic anyway, the lock just
serializes cache bookkeeping and resolution).  A minimal JSON/HTTP
front end built on the stdlib ``ThreadingHTTPServer`` is provided by
:func:`make_server` — no third-party dependencies.
"""

from __future__ import annotations

import base64
import json
import logging
import pickle
import threading
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.errors import GranularityError, ServiceError
from repro.aggregates.base import get_aggregate
from repro.cube.granularity import Granularity
from repro.obs import (
    get_registry,
    get_tracer,
    new_context,
    render_span_tree,
    tracing_enabled,
    use_context,
)
from repro.obs.metrics import (
    HTTP_REQUESTS,
    QUERY_CACHE_HITS,
    QUERY_CACHE_MISSES,
    QUERY_SECONDS,
    STORE_FACTS,
    STORE_GENERATION,
    STORE_SEGMENTS,
)
from repro.obs.reqlog import RequestLog, RequestObserver, SlowQueryLog
from repro.obs.slo import SLOTracker
from repro.obs.trace import events_for_trace
from repro.storage.table import MeasureTable
from repro.service.ingest import IngestReport, Ingestor, load_workflow
from repro.service.store import MeasureStore

logger = logging.getLogger("repro.service")

#: Bind hosts whose clients are local processes.  Pickled workflow
#: submissions (arbitrary code execution by construction) are accepted
#: from these by default; any other bind needs the operator's explicit
#: ``allow_pickle_workflows`` opt-in.
LOOPBACK_HOSTS = frozenset({"127.0.0.1", "::1", "localhost"})


class MeasureService:
    """Thread-safe query front end over one measure store.

    Args:
        store: An open :class:`MeasureStore`, or a path to one.
        workflow: The workflow the store serves.  When omitted, the
            workflow pickled at bootstrap time is loaded from the store
            directory; a store with neither cannot be served.
        cache_size: LRU capacity (entries) per measure for point and
            range reads.
    """

    def __init__(
        self,
        store,
        workflow=None,
        cache_size: int = 256,
    ) -> None:
        if isinstance(store, str):
            store = MeasureStore(store)
        self.store = store
        if workflow is None:
            workflow = load_workflow(store)
        if workflow is None:
            raise ServiceError(
                f"store {store.path!r} has no saved workflow; "
                "pass the workflow explicitly"
            )
        self.workflow = workflow
        self.ingestor = Ingestor(store, workflow)
        self.graph = self.ingestor.graph
        self.cache_size = cache_size
        self._lock = threading.RLock()
        self._caches: dict[str, OrderedDict] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        registry = get_registry()
        self._hits_metric = registry.counter(
            QUERY_CACHE_HITS, "Query-cache hits of the measure service"
        )
        self._misses_metric = registry.counter(
            QUERY_CACHE_MISSES,
            "Query-cache misses of the measure service",
        )
        self._query_seconds = registry.histogram(
            QUERY_SECONDS,
            "Measure-service read latency by operation",
            labelnames=("op",),
        )
        # Store-shape gauges read the live store on scrape, so a
        # serving process reports the current generation even when
        # every commit so far happened in another process.
        registry.gauge(
            STORE_GENERATION,
            "Current committed generation of the measure store",
            fn=lambda: store.generation,
        )
        registry.gauge(
            STORE_SEGMENTS,
            "Segment files in the store's current manifest",
            fn=store.segment_count,
        )
        registry.gauge(
            STORE_FACTS,
            "Fact records in the store's append-only log",
            fn=store.fact_count,
        )

    # -- cache plumbing ------------------------------------------------

    def _cache_get(self, measure: str, cache_key):
        cache = self._caches.get(measure)
        if cache is None or cache_key not in cache:
            self.cache_misses += 1
            self._misses_metric.inc()
            return None, False
        cache.move_to_end(cache_key)
        self.cache_hits += 1
        self._hits_metric.inc()
        return cache[cache_key], True

    def _cache_put(self, measure: str, cache_key, value) -> None:
        cache = self._caches.setdefault(measure, OrderedDict())
        cache[cache_key] = value
        cache.move_to_end(cache_key)
        while len(cache) > self.cache_size:
            cache.popitem(last=False)

    def _invalidate(self, measures) -> None:
        for measure in measures:
            self._caches.pop(measure, None)

    # -- measure metadata ----------------------------------------------

    def _output(self, measure: str):
        try:
            return self.graph.outputs[measure]
        except KeyError:
            raise ServiceError(
                f"unknown measure {measure!r}; "
                f"have {sorted(self.graph.outputs)}"
            ) from None

    def granularity_of(self, measure: str) -> Granularity:
        """The granularity a measure is stored (and served) at."""
        return self._output(measure)[0].granularity

    def measures(self) -> list[dict]:
        """Servable measures with granularity, row count, dirty flag."""
        with self._lock:
            dirty = self.store.dirty_measures()
            out = []
            for name in sorted(self.graph.outputs):
                entry = {
                    "measure": name,
                    "levels": list(self.granularity_of(name).levels),
                    "dirty": name in dirty,
                }
                if name in self.store.measures():
                    entry["rows"] = self.store.table_info(name)["rows"]
                out.append(entry)
            return out

    # -- freshness -----------------------------------------------------

    def _ensure_fresh(self, measure: str, key: tuple | None) -> None:
        """Resolve deferred recomputes this read would observe.

        Point reads get a shortcut: when the measure maps straight to a
        dirty holistic *basic* node and the store knows exactly which
        region keys the deltas touched, reads of untouched regions are
        served from the stored table without resolving.
        """
        if measure not in self.store.dirty_measures():
            return
        node = self._output(measure)[0]
        if key is not None:
            dirty_keys = self.store.dirty_nodes().get(node.name)
            if dirty_keys is not None and tuple(key) not in dirty_keys:
                return
        self.ingestor.resolve()
        self._invalidate(list(self._caches))

    def resolve(self) -> bool:
        """Force deferred recomputes now; True when work was done."""
        with self._lock:
            did = self.ingestor.resolve()
            if did:
                self._invalidate(list(self._caches))
            return did

    # -- reads ---------------------------------------------------------

    def _observe_query(self, op: str, started: float) -> None:
        self._query_seconds.labels(op=op).observe(
            time.perf_counter() - started
        )

    def point(self, measure: str, key, default=None):
        """One region's value; ``default`` when the region is absent."""
        key = tuple(key)
        started = time.perf_counter()
        with (
            get_tracer().span("query:point", cat="query", measure=measure) as span,
            self._lock,
        ):
            self.granularity_of(measure).check_key(key)
            cached, hit = self._cache_get(measure, ("point", key))
            if hit:
                span.set(cache="hit")
                self._observe_query("point", started)
                return cached
            span.set(cache="miss")
            self._ensure_fresh(measure, key)
            try:
                value = self.store.point(measure, key)
            except KeyError:
                value = default
            self._cache_put(measure, ("point", key), value)
            self._observe_query("point", started)
            return value

    def range(self, measure: str, prefix=()) -> list:
        """All rows whose region key starts with ``prefix``, sorted."""
        prefix = tuple(prefix)
        started = time.perf_counter()
        with (
            get_tracer().span("query:range", cat="query", measure=measure) as span,
            self._lock,
        ):
            self._output(measure)
            cached, hit = self._cache_get(measure, ("range", prefix))
            if hit:
                span.set(cache="hit")
                self._observe_query("range", started)
                return cached
            span.set(cache="miss")
            self._ensure_fresh(measure, None)
            rows = self.store.scan_prefix(measure, prefix)
            self._cache_put(measure, ("range", prefix), rows)
            self._observe_query("range", started)
            return rows

    def table(self, measure: str) -> MeasureTable:
        """The full measure table (uncached — callers keep the object)."""
        started = time.perf_counter()
        with (
            get_tracer().span("query:table", cat="query", measure=measure),
            self._lock,
        ):
            self._ensure_fresh(measure, None)
            table = self.store.measure_table(
                measure, self.granularity_of(measure)
            )
            self._observe_query("table", started)
            return table

    def rollup(self, measure: str, spec, agg: str = "sum") -> MeasureTable:
        """Generalize a stored measure to a coarser granularity on read.

        ``spec`` is a granularity spec (e.g. ``{"t": "Day"}``) naming
        the target; unnamed dimensions roll up to ALL.  ``agg`` must be
        meaningful over the stored *values* (e.g. summing stored counts
        — the paper's distributive roll-up; averaging stored averages is
        the caller's responsibility to want).
        """
        with self._lock:
            source_gran = self.granularity_of(measure)
            target = Granularity.from_spec(source_gran.schema, spec)
            if not source_gran.finer_or_equal(target):
                raise ServiceError(
                    f"rollup target {target!r} is not coarser than "
                    f"{measure!r}'s granularity {source_gran!r}"
                )
            function = get_aggregate(agg)
            self._ensure_fresh(measure, None)
            grouped: dict = {}
            for key, value in self.store.iter_table(measure):
                out_key = target.generalize_key(key, source_gran)
                state = grouped.get(out_key)
                if state is None and out_key not in grouped:
                    state = function.create()
                grouped[out_key] = function.update(state, value)
            rows = {
                key: function.finalize(state)
                for key, state in grouped.items()
            }
            return MeasureTable(
                f"{measure}@{agg}", target, rows=rows
            )

    # -- writes --------------------------------------------------------

    def bootstrap(self, records, meta: dict | None = None) -> int:
        """First full evaluation into an empty store."""
        with self._lock:
            generation = self.ingestor.bootstrap(records, meta=meta)
            self._invalidate(list(self._caches))
            return generation

    def ingest(
        self, records, meta: dict | None = None
    ) -> IngestReport:
        """Fold a delta batch in; invalidates affected measure caches."""
        with self._lock:
            report = self.ingestor.ingest(records, meta=meta)
            self._invalidate(
                report.updated_measures + report.deferred_measures
            )
            return report

    # -- introspection -------------------------------------------------

    def stats(self) -> dict:
        """Serving statistics (generation, cache counters, sizes)."""
        with self._lock:
            return {
                "generation": self.store.generation,
                "measures": len(self.graph.outputs),
                "facts": self.store.fact_count(),
                "dirty_measures": sorted(self.store.dirty_measures()),
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "cached_entries": sum(
                    len(cache) for cache in self._caches.values()
                ),
            }


# -- HTTP front end ----------------------------------------------------


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


class _ServiceHandler(BaseHTTPRequestHandler):
    """JSON request handler; one route per MeasureService read."""

    server_version = "ReproMeasureService/1"
    protocol_version = "HTTP/1.1"
    # Per-connection socket timeout: a client that stops sending mid
    # request (or holds a keep-alive connection idle) releases its
    # handler thread instead of pinning it forever.
    timeout = 30.0

    @property
    def service(self) -> MeasureService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002
        """Route access logs to the ``repro.service`` logger (debug)."""
        logger.debug("%s - %s", self.address_string(), format % args)

    def _count_request(self, route: str) -> None:
        get_registry().counter(
            HTTP_REQUESTS,
            "HTTP requests served, by route",
            labelnames=("route",),
        ).labels(route=route).inc()

    def _send(self, payload: dict, status: int = 200) -> None:
        self._stage_reply(
            json.dumps(payload).encode("utf-8"), "application/json", status
        )

    def _send_text(self, text: str, status: int = 200) -> None:
        self._stage_reply(
            text.encode("utf-8"),
            "text/plain; version=0.0.4; charset=utf-8",
            status,
        )

    def _stage_reply(
        self, body: bytes, content_type: str, status: int
    ) -> None:
        """Hold the response until :meth:`_handle` has observed the
        request: a client holding its answer can then rely on the
        access-log entry having been written."""
        self._status_sent = status
        self._reply = (body, content_type, status)

    def _transmit_reply(self) -> None:
        reply, self._reply = self._reply, None
        if reply is None:
            return
        body, content_type, status = reply
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self._send_obs_headers()
        self.end_headers()
        self.wfile.write(body)

    def _send_obs_headers(self) -> None:
        """Stamp the correlation id and trace parent on every reply."""
        ctx = getattr(self, "_ctx", None)
        if ctx is not None:
            self.send_header("X-Request-Id", ctx.request_id)
            self.send_header("traceparent", ctx.traceparent())

    def _params(self) -> dict:
        query = parse_qs(urlsplit(self.path).query)
        return {name: values[-1] for name, values in query.items()}

    def _route(self) -> str:
        return urlsplit(self.path).path.rstrip("/") or "/"

    def do_GET(self) -> None:  # noqa: N802
        self._handle("GET", self._do_get)

    def do_POST(self) -> None:  # noqa: N802
        self._handle("POST", self._do_post)

    def _handle(self, method: str, inner) -> None:
        """Observability envelope shared by GET and POST.

        Joins (or starts) the caller's distributed trace, runs the
        route handler under the request context and an ``http:`` span,
        then folds the finished request into the server's
        :class:`~repro.obs.reqlog.RequestObserver` and only then puts
        the staged response on the wire — whatever the observer does.
        The logged latency and the ``http:`` span therefore end before
        the response is written; they cover routing and the handler.
        """
        route = self._route()
        self._ctx = new_context(
            self.headers.get("traceparent"),
            request_id=self.headers.get("X-Request-Id") or "",
        )
        self._status_sent = 200
        self._reply = None
        started = time.perf_counter()
        try:
            with use_context(self._ctx), get_tracer().span(
                f"http:{route}", cat="http", method=method
            ):
                inner(route)
        finally:
            try:
                observer = getattr(self.server, "observer", None)
                if observer is not None:
                    observer.observe(
                        route=route,
                        method=method,
                        status=self._status_sent,
                        seconds=time.perf_counter() - started,
                        ctx=self._ctx,
                    )
            finally:
                self._transmit_reply()

    def _healthz(self) -> None:
        """Liveness plus the store facts a probe can alert on."""
        stats = self.service.stats()
        self._send(
            {
                "status": "ok",
                "generation": stats["generation"],
                "facts": stats["facts"],
                "dirty_measures": stats["dirty_measures"],
                "uptime_seconds": self._uptime(),
            }
        )

    def _uptime(self) -> float:
        started = getattr(self.server, "started_mono", None)
        if started is None:
            return 0.0
        return round(time.monotonic() - started, 3)

    def _statusz(self) -> None:
        payload = {
            "service": "repro-measure-service",
            "time": round(time.time(), 3),
            "uptime_seconds": self._uptime(),
            "tracing": tracing_enabled(),
            "stats": self.service.stats(),
        }
        observer = getattr(self.server, "observer", None)
        if observer is not None:
            payload["slow_query_threshold_seconds"] = (
                observer.slow_log.threshold_seconds
            )
            payload["slow_queries"] = observer.slow_log.recent()
        slo = getattr(self.server, "slo", None)
        if slo is not None:
            payload["slo"] = slo.status()
        self._send(payload)

    def _debug_trace(self, trace_id: str) -> None:
        events = events_for_trace(get_tracer().events, trace_id)
        if not events:
            self._send(
                {"error": f"no recorded events for trace {trace_id!r} "
                 "(is tracing enabled?)"},
                404,
            )
            return
        self._send(
            {
                "trace_id": trace_id,
                "events": events,
                "tree": render_span_tree(events),
            }
        )

    def _do_get(self, route: str) -> None:
        try:
            params = self._params()
            self._count_request(route)
            if route == "/metrics":
                # Prometheus scrape target: the whole process registry
                # (service counters, store gauges, engine totals alike).
                slo = getattr(self.server, "slo", None)
                if slo is not None:
                    slo.export(get_registry())
                self._send_text(get_registry().render_prometheus())
            elif route == "/healthz":
                self._healthz()
            elif route == "/statusz":
                self._statusz()
            elif route.startswith("/debug/trace/"):
                self._debug_trace(route.rsplit("/", 1)[-1])
            elif route == "/measures":
                self._send({"measures": self.service.measures()})
            elif route == "/stats":
                self._send(self.service.stats())
            elif route == "/point":
                measure = params["measure"]
                key = _parse_key(params["key"])
                value = self.service.point(measure, key)
                self._send(
                    {"measure": measure, "key": list(key),
                     "value": value}
                )
            elif route == "/range":
                measure = params["measure"]
                prefix = _parse_key(params.get("prefix", ""))
                rows = self.service.range(measure, prefix)
                self._send(
                    {
                        "measure": measure,
                        "prefix": list(prefix),
                        "rows": [
                            [list(key), value] for key, value in rows
                        ],
                    }
                )
            elif route == "/table":
                measure = params["measure"]
                table = self.service.table(measure)
                self._send(
                    {
                        "measure": measure,
                        "levels": list(table.granularity.levels),
                        "rows": [
                            [list(key), value]
                            for key, value in table.items()
                        ],
                    }
                )
            else:
                self._send({"error": f"unknown route {route!r}"}, 404)
        except KeyError as exc:
            self._send({"error": f"missing parameter: {exc}"}, 400)
        except GranularityError as exc:
            self._send({"error": f"bad request: {exc}"}, 400)
        except ServiceError as exc:
            self._send({"error": str(exc)}, 404)
        except Exception as exc:  # pragma: no cover - defensive
            self._send({"error": f"{type(exc).__name__}: {exc}"}, 500)

    def _service_error(self, exc: ServiceError, status: int) -> None:
        """Serialize a ServiceError, with analyzer diagnostics when the
        failure is a rejected workflow."""
        payload: dict = {"error": str(exc)}
        if exc.diagnostics:
            payload["diagnostics"] = [
                d.to_dict() for d in exc.diagnostics
            ]
            status = 422
        self._send(payload, status)

    def _post_workflow(self, body: dict) -> None:
        """``POST /workflow`` — submit a workflow for validation.

        The body names a query family (``{"query": "escalation"}``,
        resolved by the trusted server-side builders in
        :mod:`repro.queries.registry`) or carries a base64-encoded
        pickled :class:`~repro.workflow.AggregationWorkflow` (the same
        form the store persists at bootstrap); pickle bodies are only
        accepted when the server allows them — loopback binds by
        default, since unpickling executes arbitrary client code.  The
        full analysis report comes back: 200 when the workflow is
        servable, 422 with the error-level diagnostics when the
        service would reject it.
        """
        from repro.analysis import analyze
        from repro.queries.registry import (
            QUERY_FAMILIES,
            build_query_workflow,
        )

        query = body.get("query")
        if query is not None:
            workflow = build_query_workflow(query)
        elif not getattr(self.server, "allow_pickle_workflows", True):
            self._send(
                {
                    "error": "pickled workflow submissions are "
                    "disabled on this server (non-loopback bind); "
                    "POST {'query': <name>} instead, or restart "
                    "with --allow-pickle-workflows",
                    "queries": sorted(QUERY_FAMILIES),
                },
                403,
            )
            return
        else:
            workflow = pickle.loads(base64.b64decode(body["workflow"]))
        report = analyze(workflow)
        payload = report.to_dict()
        if not report.ok:
            payload["error"] = (
                f"workflow {workflow.name!r} rejected by static "
                f"analysis ({len(report.errors)} error(s))"
            )
        self._send(payload, 200 if report.ok else 422)

    def _do_post(self, route: str) -> None:
        try:
            self._count_request(route)
            if route not in ("/ingest", "/workflow"):
                self._send({"error": f"unknown route {route!r}"}, 404)
                return
            length = int(self.headers.get("Content-Length") or 0)
            body = json.loads(self.rfile.read(length) or b"{}")
            if route == "/workflow":
                self._post_workflow(body)
                return
            records = [tuple(record) for record in body["records"]]
            report = self.service.ingest(records)
            self._send(
                {
                    "generation": report.generation,
                    "records": report.records,
                    "merged_nodes": report.merged_nodes,
                    "updated_measures": report.updated_measures,
                    "deferred_measures": report.deferred_measures,
                }
            )
        except (KeyError, ValueError, TypeError) as exc:
            self._send(
                {"error": f"bad {route.lstrip('/')} body: {exc}"}, 400
            )
        except ServiceError as exc:
            self._service_error(exc, 400)
        except Exception as exc:  # pragma: no cover - defensive
            self._send({"error": f"{type(exc).__name__}: {exc}"}, 500)


class ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer tuned for graceful teardown.

    Handler threads are non-daemonic and joined on ``server_close()``,
    so shutdown drains in-flight requests instead of abandoning them
    mid-write; the per-connection socket timeout on the handler keeps
    a stuck client from blocking that drain indefinitely.
    """

    daemon_threads = False
    block_on_close = True
    # Bound the accept loop's poll interval so shutdown() is prompt.
    timeout = 5.0


def make_server(
    service: MeasureService,
    host: str = "127.0.0.1",
    port: int = 0,
    allow_pickle_workflows: bool | None = None,
    access_log_path: str | None = None,
    slow_query_path: str | None = None,
    slow_query_seconds: float | None = None,
) -> ServiceHTTPServer:
    """A threaded HTTP server bound to ``host:port`` (0 = ephemeral).

    ``allow_pickle_workflows`` gates pickle bodies on ``POST
    /workflow`` (``None`` = only on loopback binds; ``True`` is for
    trusted operators only, since unpickling executes arbitrary client
    code — named ``query`` families are always accepted).

    The caller owns the server's lifecycle::

        server = make_server(service, port=8651)
        threading.Thread(target=server.serve_forever).start()
        ...
        shutdown_gracefully(server)
    """
    if allow_pickle_workflows is None:
        allow_pickle_workflows = host in LOOPBACK_HOSTS
    server = ServiceHTTPServer((host, port), _ServiceHandler)
    server.service = service  # type: ignore[attr-defined]
    server.allow_pickle_workflows = (  # type: ignore[attr-defined]
        allow_pickle_workflows
    )
    server.started_mono = time.monotonic()  # type: ignore[attr-defined]
    server.slo = SLOTracker()  # type: ignore[attr-defined]
    slow_kwargs = {"path": slow_query_path}
    if slow_query_seconds is not None:
        slow_kwargs["threshold_seconds"] = float(slow_query_seconds)
    server.observer = RequestObserver(  # type: ignore[attr-defined]
        access_log=RequestLog(access_log_path),
        slow_log=SlowQueryLog(**slow_kwargs),
        slo=server.slo,
    )
    return server


def shutdown_gracefully(server: ServiceHTTPServer) -> None:
    """Stop accepting, drain in-flight requests, flush pending work.

    After the drain, deferred (dirty-holistic) measures are resolved so
    the store's final MANIFEST on disk reflects everything the service
    acknowledged — a restarted server serves every measure fresh
    without a recovery recompute.
    """
    server.shutdown()
    server.server_close()  # joins handler threads (block_on_close)
    service = getattr(server, "service", None)
    if service is not None:
        service.resolve()
    observer = getattr(server, "observer", None)
    if observer is not None:
        observer.close()
