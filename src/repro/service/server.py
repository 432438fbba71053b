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
serializes cache bookkeeping and resolution).  Over HTTP the service
is one of the three backends of
:class:`~repro.service.cluster.frontend.ClusterFrontend`.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import OrderedDict

from repro.errors import ServiceError
from repro.aggregates.base import get_aggregate
from repro.cube.granularity import Granularity
from repro.obs import get_registry, get_tracer
from repro.obs.metrics import (
    QUERY_CACHE_HITS,
    QUERY_CACHE_MISSES,
    QUERY_SECONDS,
    STORE_FACTS,
    STORE_GENERATION,
    STORE_SEGMENTS,
)
from repro.storage.table import MeasureTable
from repro.service.ingest import IngestReport, Ingestor, load_workflow
from repro.service.store import MeasureStore


class SingleTenant:
    """The tenant questions of the HTTP front end, answered by a
    backend that is one namespace (a store or a cluster): the
    ``tenant`` request parameter selects nothing, and the tenant-only
    routes refuse."""

    def tenants(self) -> list[str]:
        raise ServiceError("not running in tenant mode")

    def tenant_scope(self, tenant: str | None):
        """The object that answers reads for ``tenant``."""
        return self

    def tenant_label(self, tenant: str | None) -> str:
        """The ``tenant`` label of a request's metric series."""
        return "-"

    def submit_workflow(
        self, workflow, tenant, records, dataset_size
    ) -> dict:
        """Nothing beyond validation: ``POST /workflow`` registers
        workflows only with a tenant manager."""
        return {}

    def ingest_reply(self, records, tenant: str | None = None) -> dict:
        """The ``POST /ingest`` body: the backend's own ingest report."""
        return self.ingest(records)

    def status_fields(self) -> dict:
        """The backend's part of ``/statusz``: no per-tenant fields."""
        return {}


class MeasureService(SingleTenant):
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
        self._opened = time.monotonic()
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
            try:
                report = self.ingestor.ingest(records, meta=meta)
            except BaseException:
                # A failure after the manifest swap has still landed
                # the delta, so no cached answer can be trusted.
                self._invalidate(list(self._caches))
                raise
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

    # -- the HTTP front end's backend calls ----------------------------
    # MeasureCluster and TenantManager answer the same ones.

    def health(self) -> dict:
        """The ``/healthz`` body: liveness plus the store facts a probe
        can alert on."""
        stats = self.stats()
        return {
            "status": "ok",
            "generation": stats["generation"],
            "facts": stats["facts"],
            "dirty_measures": stats["dirty_measures"],
            "uptime_seconds": round(time.monotonic() - self._opened, 3),
        }

    def status_fields(self) -> dict:
        """Store stats, under the service name single-store servers
        have always reported."""
        return {"service": "repro-measure-service", "stats": self.stats()}

    def ingest_reply(self, records, tenant: str | None = None) -> dict:
        """The ``POST /ingest`` body: the ingest report as JSON."""
        return dataclasses.asdict(self.ingest(records))

    def pull_telemetry(self) -> None:
        """Nothing to pull: the store runs in the serving process."""

    def close(self) -> None:
        """Nothing to release: the store keeps no handle open."""
