"""Structured request logging: access log, slow-query log, observer.

Every HTTP request served by the front end produces one structured
**access-log** entry (JSON lines): route, method, status, tenant,
request/trace ids, duration, shard fan-out count, and executor queue
wait.  Requests slower than a threshold additionally produce a
**slow-query** entry with the expensive detail attached — per-stage
span timings for the request's trace and any engine node profiles the
request captured — the "threshold-triggered plan-profile capture":
cheap requests never pay for introspection, slow ones arrive
self-describing.

Both logs write line-buffered JSON to an optional file and always to
the ``repro.access`` / ``repro.slowquery`` loggers; the slow-query
log also keeps an in-memory ring of recent entries for ``/statusz``
and ``repro obs tail``.  A logging failure must never fail the
request: write errors are swallowed and counted in
``repro_obs_log_errors_total`` (the ``obs.reqlog-write`` fail point
exists to drill exactly that containment).
"""

from __future__ import annotations

import collections
import json
import logging
import threading
import time

from repro.obs import get_registry, get_tracer, tracing_enabled
from repro.obs.context import TraceContext
from repro.obs.metrics import (
    HTTP_REQUEST_SECONDS,
    OBS_LOG_ERRORS,
    SLOW_QUERIES,
)
from repro.obs.trace import events_for_trace
from repro.testkit.failpoints import fire, register

access_logger = logging.getLogger("repro.access")
slow_logger = logging.getLogger("repro.slowquery")
# Library etiquette: without a NullHandler an unconfigured logging
# setup routes these records through logging.lastResort to stderr,
# which becomes "--- Logging error ---" noise when a straggler
# request finishes after stderr has been redirected and closed
# (pytest capture teardown). User-configured handlers still receive
# the records via normal propagation; the file sinks are unaffected.
access_logger.addHandler(logging.NullHandler())
slow_logger.addHandler(logging.NullHandler())

FP_REQLOG_WRITE = register(
    "obs.reqlog-write", "obs",
    "before an access/slow-query log entry is written",
)

#: Default slow-query threshold (seconds); override per front end or
#: with the REPRO_SLOW_QUERY_SECONDS environment variable.
DEFAULT_SLOW_QUERY_SECONDS = 0.5

__all__ = [
    "RequestLog",
    "SlowQueryLog",
    "RequestObserver",
    "DEFAULT_SLOW_QUERY_SECONDS",
]


class _JsonLineLog:
    """JSON-lines sink: a logger always, a line-buffered file optionally."""

    def __init__(self, logger: logging.Logger, path: str | None) -> None:
        self._logger = logger
        self._path = path
        self._lock = threading.Lock()
        self._fh = None
        if path:
            self._fh = open(  # noqa: SIM115 - held for the log's life
                path, "a", encoding="utf-8", buffering=1
            )

    def write(self, entry: dict) -> None:
        """Emit one entry; raises only for armed fail points (the
        callers contain everything via :meth:`RequestObserver._safely`)."""
        fire(FP_REQLOG_WRITE)
        line = json.dumps(entry, separators=(",", ":"), default=str)
        self._logger.info("%s", line)
        if self._fh is not None:
            with self._lock:
                self._fh.write(line + "\n")

    def close(self) -> None:
        if self._fh is not None:
            with self._lock:
                self._fh.close()
                self._fh = None


class RequestLog:
    """The structured access log (one entry per HTTP request)."""

    def __init__(self, path: str | None = None) -> None:
        self._sink = _JsonLineLog(access_logger, path)

    def log(self, entry: dict) -> None:
        self._sink.write(entry)

    def close(self) -> None:
        self._sink.close()


class SlowQueryLog:
    """Threshold-triggered log of slow requests with stage detail."""

    def __init__(
        self,
        threshold_seconds: float = DEFAULT_SLOW_QUERY_SECONDS,
        path: str | None = None,
        keep_recent: int = 50,
    ) -> None:
        self.threshold_seconds = float(threshold_seconds)
        self._sink = _JsonLineLog(slow_logger, path)
        self._recent: collections.deque = collections.deque(
            maxlen=keep_recent
        )
        self._counter = get_registry().counter(
            SLOW_QUERIES,
            "Requests slower than the slow-query threshold, by route",
            labelnames=("route",),
        )

    def is_slow(self, seconds: float) -> bool:
        return seconds >= self.threshold_seconds

    def log(self, entry: dict) -> None:
        self._counter.labels(route=entry.get("route", "-")).inc()
        self._recent.append(entry)
        self._sink.write(entry)

    def recent(self) -> list[dict]:
        """Most recent slow-query entries, oldest first (``/statusz``)."""
        return list(self._recent)

    def close(self) -> None:
        self._sink.close()


def _stage_timings(trace_id: str, limit: int = 40) -> list[dict]:
    """Per-stage span timings of one trace, from the live tracer.

    Only called for slow requests, after the front end's eager
    telemetry flush absorbed worker-process spans, so the stages span
    the whole frontend → router → worker path.
    """
    stages = []
    for event in events_for_trace(get_tracer().events, trace_id):
        if event.get("ph") != "X":
            continue
        stages.append(
            {
                "stage": event["name"],
                "ms": round(event.get("dur", 0) / 1000.0, 3),
                "pid": event.get("pid"),
            }
        )
        if len(stages) >= limit:
            break
    return stages


class RequestObserver:
    """One-stop per-request accounting of the HTTP front end.

    Folds one finished request into: the access log, the per-route /
    per-tenant latency histogram, the SLO tracker, and — when the
    request crossed the slow threshold — the slow-query log with stage
    timings and captured engine profiles attached.
    """

    def __init__(
        self,
        access_log: RequestLog | None = None,
        slow_log: SlowQueryLog | None = None,
        slo=None,
    ) -> None:
        self.access_log = access_log or RequestLog()
        self.slow_log = slow_log or SlowQueryLog()
        self.slo = slo
        registry = get_registry()
        self._latency = registry.histogram(
            HTTP_REQUEST_SECONDS,
            "End-to-end HTTP request latency, by route and tenant",
            labelnames=("route", "tenant"),
        )
        self._log_errors = registry.counter(
            OBS_LOG_ERRORS,
            "Access/slow-query log entries dropped by write failures",
        )

    def observe(
        self,
        *,
        route: str,
        method: str,
        status: int,
        seconds: float,
        ctx: TraceContext | None = None,
        tenant: str = "-",
        error: str | None = None,
    ) -> None:
        """Account one finished request.  Never raises."""
        self._latency.labels(route=route, tenant=tenant).observe(seconds)
        if self.slo is not None:
            self.slo.record(tenant, seconds, error=status >= 500)
        entry = {
            "time": round(time.time(), 3),
            "route": route,
            "method": method,
            "status": status,
            "tenant": tenant,
            "duration_ms": round(seconds * 1000.0, 3),
        }
        if ctx is not None:
            entry["request_id"] = ctx.request_id
            entry["trace_id"] = ctx.trace_id
            entry["fanout"] = ctx.stats.fanout
            entry["queue_wait_ms"] = round(
                ctx.stats.queue_wait_seconds * 1000.0, 3
            )
        if error:
            entry["error"] = error
        self._safely(self.access_log.log, entry)
        if self.slow_log.is_slow(seconds):
            slow = dict(entry)
            if ctx is not None:
                if tracing_enabled():
                    slow["stages"] = _stage_timings(ctx.trace_id)
                if ctx.stats.engine_runs:
                    slow["engine_runs"] = list(ctx.stats.engine_runs)
            self._safely(self.slow_log.log, slow)

    def _safely(self, write, entry: dict) -> None:
        try:
            write(entry)
        except Exception:
            # Telemetry must never take a request down with it.
            self._log_errors.inc()

    def close(self) -> None:
        self.access_log.close()
        self.slow_log.close()
