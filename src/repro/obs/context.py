"""Request-scoped trace context: one identity for every hop.

A request that enters the sharded service fans out across router
threads and shard worker *processes*; without a shared identity the
spans each process records are disconnected intervals.  This module
defines that identity — :class:`TraceContext` — and the plumbing that
moves it around:

- **W3C-style encoding**: :meth:`TraceContext.traceparent` renders the
  ``00-<trace>-<span>-01`` header accepted and emitted by the HTTP
  front end, so an external caller's trace continues through us;
- **contextvars propagation**: :func:`current_context` /
  :func:`use_context` track the active context per thread *and* per
  asyncio task; spans opened while a context is active allocate a
  child span id under it (see :mod:`repro.obs.trace`), which is what
  turns a flat event list into a tree;
- **pipe transport**: :meth:`to_dict` / :meth:`from_dict` are the wire
  form that rides each length-prefixed shard-worker message, so worker
  spans carry the originating request's trace id and reassemble into
  one tree when absorbed by the router;
- **per-request stats**: every context carries a mutable
  :class:`RequestStats` (shard fan-out count, queue wait, engine
  profile captures) that the access/slow-query logs read after the
  request finishes.

Everything here is stdlib-only and cheap: creating a context is two
``os.urandom`` calls; propagation is one ``ContextVar`` set/reset.
"""

from __future__ import annotations

import contextlib
import os
import re
from contextvars import ContextVar

__all__ = [
    "TraceContext",
    "RequestStats",
    "current_context",
    "new_context",
    "use_context",
    "parse_traceparent",
]

_TRACEPARENT_RE = re.compile(
    r"^(?P<version>[0-9a-f]{2})-(?P<trace>[0-9a-f]{32})"
    r"-(?P<span>[0-9a-f]{16})-(?P<flags>[0-9a-f]{2})$"
)

_current: ContextVar["TraceContext | None"] = ContextVar(
    "repro_trace_context", default=None
)


def _new_trace_id() -> str:
    return os.urandom(16).hex()


def _new_span_id() -> str:
    return os.urandom(8).hex()


def _new_request_id() -> str:
    return os.urandom(8).hex()


class RequestStats:
    """Mutable per-request bookkeeping shared by every hop in-process.

    The front end creates one per request; the router and shard
    handles increment it through :func:`current_context`, and the
    access/slow-query log reads it once the request completes.  Worker
    processes get a fresh (discarded) instance — their contribution
    comes back as spans, not counters.
    """

    __slots__ = ("fanout", "queue_wait_seconds", "engine_runs")

    def __init__(self) -> None:
        #: Shard operations dispatched on behalf of this request.
        self.fanout = 0
        #: Seconds the request sat queued for an executor thread.
        self.queue_wait_seconds = 0.0
        #: Per-engine-run stat captures (dicts; see Engine.evaluate).
        self.engine_runs: list[dict] = []

    def to_dict(self) -> dict:
        return {
            "fanout": self.fanout,
            "queue_wait_seconds": self.queue_wait_seconds,
            "engine_runs": list(self.engine_runs),
        }


class TraceContext:
    """One hop's identity within a trace.

    ``trace_id`` names the whole request tree; ``span_id`` names this
    hop (the parent of any span opened while the context is active);
    ``parent_id`` names the hop one level up (empty at the root);
    ``request_id`` is the operator-facing correlation token stamped on
    HTTP responses and log lines.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "request_id", "stats")

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: str = "",
        request_id: str = "",
        stats: RequestStats | None = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.request_id = request_id or _new_request_id()
        self.stats = stats if stats is not None else RequestStats()

    def child(self) -> "TraceContext":
        """A new hop under this one (same trace, same request, shared
        stats; fresh span id parented here)."""
        return TraceContext(
            self.trace_id,
            _new_span_id(),
            parent_id=self.span_id,
            request_id=self.request_id,
            stats=self.stats,
        )

    def traceparent(self) -> str:
        """The W3C ``traceparent`` header value for this hop."""
        return f"00-{self.trace_id}-{self.span_id}-01"

    def ids(self) -> dict:
        """The id triple stamped into span event args."""
        out = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.parent_id:
            out["parent_id"] = self.parent_id
        return out

    # -- pipe transport ------------------------------------------------

    def to_dict(self) -> dict:
        """Wire form for shard-worker pipes (stats stay local)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "request_id": self.request_id,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceContext":
        return cls(
            data["trace_id"],
            data["span_id"],
            parent_id=data.get("parent_id", ""),
            request_id=data.get("request_id", ""),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceContext(trace={self.trace_id[:8]}… "
            f"span={self.span_id} req={self.request_id})"
        )


def parse_traceparent(header: str | None) -> TraceContext | None:
    """Parse an incoming ``traceparent`` header, or ``None``.

    Malformed headers are ignored (a broken upstream must not break
    the request); version ``ff`` is invalid per the W3C spec.
    """
    if not header:
        return None
    match = _TRACEPARENT_RE.match(header.strip().lower())
    if match is None or match.group("version") == "ff":
        return None
    return TraceContext(match.group("trace"), match.group("span"))


def new_context(
    traceparent: str | None = None, request_id: str = ""
) -> TraceContext:
    """The context for one incoming request.

    Continues the caller's trace when a valid ``traceparent`` header
    is supplied (the caller's span becomes our parent); otherwise
    starts a fresh trace.
    """
    parent = parse_traceparent(traceparent)
    if parent is not None:
        ctx = parent.child()
        if request_id:
            ctx.request_id = request_id
        return ctx
    return TraceContext(
        _new_trace_id(), _new_span_id(), request_id=request_id
    )


def current_context() -> TraceContext | None:
    """The active context of this thread/task (``None`` outside one)."""
    return _current.get()


@contextlib.contextmanager
def use_context(ctx: TraceContext | None):
    """Install ``ctx`` as the current context for a ``with`` block."""
    token = _current.set(ctx)
    try:
        yield ctx
    finally:
        _current.reset(token)


def _set(ctx: TraceContext | None):
    """Low-level set; returns the reset token (span enter/exit path)."""
    return _current.set(ctx)


def _reset(token) -> None:
    _current.reset(token)
