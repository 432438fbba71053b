"""The shard router: one logical measure service over many shards.

:class:`MeasureCluster` presents the single-store
:class:`~repro.service.server.MeasureService` read/write surface while
fanning work out to shard workers and merging their answers:

- **point** goes to the single owning shard (cut-point lookup on the
  lifted key);
- **range** goes to the owner when the prefix pins the partition
  dimension, otherwise fans out and concatenates — owned ranges are
  disjoint, so the merge is a sort of disjoint row sets;
- **table** fans out and unions disjoint per-shard tables;
- **rollup** fans out per-shard partial rollups and merges them
  exactly for the mergeable aggregates (sum/count merge by summing
  partials, min/max by re-applying), and falls back to an exact
  central rollup over the unioned owned rows otherwise.

Writes go through the journal-backed two-phase commit documented in
:mod:`repro.service.cluster.manifest`: journal the delta durably, let
every affected shard prepare (its own atomic store commit, stamped
with the target cluster epoch *inside* that commit), then swap the
cluster manifest and drop the journal.  :func:`recover_cluster` is the
redo path — it is called on every open, and the crash sweeper drives
it through every registered fail point.  An ingest that aborts
mid-commit *fences* the cluster (reads and writes raise until
:meth:`MeasureCluster.recover` rolls the journal forward): serving
would mix pre- and post-delta shards, and a second ingest would reuse
the journaled epoch and overwrite the only record of the first delta.
"""

from __future__ import annotations

import logging
import os
import pickle
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.errors import ClusterError
from repro.aggregates.base import get_aggregate
from repro.cube.granularity import Granularity
from repro.engine.compile import CompiledGraph, compile_workflow
from repro.obs import (
    current_context,
    get_registry,
    get_tracer,
    use_context,
)
from repro.obs.metrics import (
    CLUSTER_EPOCH,
    CLUSTER_INGEST_SECONDS,
    CLUSTER_QUERY_SECONDS,
    CLUSTER_REQUESTS,
)
from repro.service.cluster.manifest import (
    FP_SHARD_PREPARE,
    ClusterManifest,
    IngestJournal,
    shard_dir,
)
from repro.service.cluster.partitioning import (
    ShardMap,
    build_shard_map,
    key_lift_fn,
    partition_value_fn,
)
from repro.service.cluster.worker import (
    MERGEABLE_ROLLUP_AGGS,
    LocalShard,
    ShardProcess,
    ShardWorker,
)
from repro.service.ingest import load_workflow, reject_invalid_workflow
from repro.service.server import SingleTenant
from repro.service.store import MeasureStore
from repro.storage.table import MeasureTable
from repro.testkit.failpoints import fire, register

logger = logging.getLogger("repro.service.cluster")

FP_ROUTER_FANOUT = register(
    "cluster.router-fanout", "cluster",
    "before a read request fans out to the shard workers",
)

#: How rollup partials of each mergeable aggregate combine across
#: shards.  ``count`` partials are themselves counts, so they *sum*;
#: re-applying ``count`` would count the partials instead.
_PARTIAL_MERGE = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}


class _RootStore:
    """Duck-typed store handle rooting ``load_workflow`` at the cluster."""

    def __init__(self, path: str) -> None:
        self.path = path


def _load_root_workflow(root: str, workflow=None):
    if workflow is not None:
        return workflow
    workflow = load_workflow(_RootStore(root))
    if workflow is None:
        raise ClusterError(
            f"cluster {root!r} has no saved workflow (it was not "
            "picklable at bootstrap); pass the workflow explicitly"
        )
    return workflow


class MeasureCluster(SingleTenant):
    """A sharded measure service behind one client-facing object.

    Construct via :func:`bootstrap_cluster` (new data) or
    :func:`open_cluster` (existing directory); both run crash recovery
    first.  ``mode`` selects the execution substrate: ``"local"`` runs
    every shard in-process behind per-shard locks, ``"process"`` gives
    each shard its own OS process (shared-nothing reads, supervised
    respawn on worker death).
    """

    def __init__(
        self,
        root: str,
        manifest: ClusterManifest,
        workflow,
        mode: str = "local",
        cache_size: int = 256,
    ) -> None:
        if mode not in ("local", "process"):
            raise ClusterError(f"unknown cluster mode {mode!r}")
        self.root = root
        self.workflow = workflow
        self.mode = mode
        self.graph: CompiledGraph = compile_workflow(workflow)
        self._manifest = manifest
        self._cache_size = cache_size
        self._ingest_lock = threading.Lock()
        self._route_record = partition_value_fn(
            self.graph, manifest.shard_map
        )
        self._lifts: dict[str, object] = {}
        self._closed = False
        self._failed = False
        self._open_shards()
        if mode == "process":
            self._pool: ThreadPoolExecutor | None = ThreadPoolExecutor(
                max_workers=manifest.num_shards,
                thread_name_prefix="repro-fanout",
            )
        else:
            self._pool = None
        self._epoch_gauge = get_registry().gauge(
            CLUSTER_EPOCH, "Cluster epoch of the last completed commit"
        )
        self._epoch_gauge.set(manifest.epoch)
        self._requests = get_registry().counter(
            CLUSTER_REQUESTS,
            "Cluster requests served, by operation",
            labelnames=("op",),
        )
        self._query_seconds = get_registry().histogram(
            CLUSTER_QUERY_SECONDS,
            "Latency of cluster read operations",
            labelnames=("op",),
        )

    def _open_shards(self) -> None:
        """(Re)create one shard handle per manifest entry."""
        if self.mode == "process":
            self.shards: list = [
                ShardProcess(self.root, index)
                for index in range(self._manifest.num_shards)
            ]
        else:
            self.shards = [
                LocalShard(
                    ShardWorker(
                        MeasureStore(shard_dir(self.root, index)),
                        self.workflow,
                        self._manifest.shard_map,
                        index,
                        cache_size=self._cache_size,
                    )
                )
                for index in range(self._manifest.num_shards)
            ]

    # -- introspection -------------------------------------------------

    @property
    def manifest(self) -> ClusterManifest:
        return self._manifest

    @property
    def failed(self) -> bool:
        """True after an aborted ingest, until :meth:`recover` runs."""
        return self._failed

    def _check_serving(self) -> None:
        """Refuse to serve while shards may disagree on the epoch.

        An ingest that aborted mid-prepare leaves some shards one
        epoch ahead of the rest; until :meth:`recover` rolls the
        journal forward, reads could mix pre- and post-delta rows and
        a new ingest would reuse the journaled epoch — overwriting the
        journal and losing the first delta on unprepared shards.
        """
        if self._failed:
            raise ClusterError(
                f"cluster {self.root!r} has an aborted ingest in its "
                "journal; call recover() (or reopen the cluster) "
                "before serving"
            )

    @property
    def shard_map(self) -> ShardMap:
        return self._manifest.shard_map

    @property
    def num_shards(self) -> int:
        return self._manifest.num_shards

    @property
    def epoch(self) -> int:
        return self._manifest.epoch

    def measures(self) -> list[dict]:
        self._check_serving()
        return self.shards[0].call("measures")

    def stats(self) -> dict:
        self._check_serving()
        shard_stats = self._fanout("stats")
        return {
            "epoch": self.epoch,
            "shards": shard_stats,
            "mode": self.mode,
            "generation": max(
                (s["generation"] for s in shard_stats if s), default=0
            ),
            "facts": sum(s["facts"] for s in shard_stats if s),
            "cache_hits": sum(s["cache_hits"] for s in shard_stats if s),
            "cache_misses": sum(
                s["cache_misses"] for s in shard_stats if s
            ),
            "dirty_measures": sorted(
                {
                    name
                    for s in shard_stats
                    if s
                    for name in s["dirty_measures"]
                }
            ),
        }

    def health(self) -> dict:
        """Structured liveness snapshot (the ``/healthz`` body).

        ``status`` is ``"ok"`` (serving, all workers alive),
        ``"degraded"`` (serving, but a worker is dead pending
        respawn-on-next-call), or ``"fenced"`` (an aborted ingest left
        the journal pending; reads and writes refuse until recovery).
        """
        shards = [
            {
                "shard": shard.index,
                "alive": bool(shard.alive),
                "respawns": getattr(shard, "respawns", 0),
            }
            for shard in self.shards
        ]
        if self._failed:
            status = "fenced"
        elif all(entry["alive"] for entry in shards):
            status = "ok"
        else:
            status = "degraded"
        return {
            "status": status,
            "mode": self.mode,
            "epoch": self.epoch,
            "fenced": self._failed,
            "journal_pending": IngestJournal.load(self.root) is not None,
            "shards": shards,
        }

    # -- routing helpers -----------------------------------------------

    def _lift(self, measure: str):
        lift = self._lifts.get(measure)
        if lift is None:
            lift = key_lift_fn(self.graph, self.shard_map, measure)
            self._lifts[measure] = lift
        return lift

    def _granularity_of(self, measure: str) -> Granularity:
        outputs = self.graph.outputs
        if measure not in outputs:
            raise ClusterError(
                f"unknown measure {measure!r}; cluster serves "
                f"{sorted(outputs)}"
            )
        return outputs[measure][0].granularity

    def _observe(self, op: str, started: float) -> None:
        self._requests.labels(op=op).inc()
        self._query_seconds.labels(op=op).observe(
            time.perf_counter() - started
        )

    def _fanout(self, op: str, *args) -> list:
        """Run ``op`` on every shard; results indexed by shard."""
        fire(FP_ROUTER_FANOUT)
        if self._pool is None:
            return [shard.call(op, *args) for shard in self.shards]
        # Context variables do not cross thread-pool boundaries on
        # their own: re-enter the request's trace context inside each
        # pool thread so per-shard calls stay inside the trace.
        ctx = current_context()

        def run(shard):
            if ctx is None:
                return shard.call(op, *args)
            with use_context(ctx):
                return shard.call(op, *args)

        futures = [self._pool.submit(run, shard) for shard in self.shards]
        return [future.result() for future in futures]

    # -- reads ---------------------------------------------------------

    def point(self, measure: str, key, default=None):
        """One region's value, from the shard that owns it."""
        started = time.perf_counter()
        self._check_serving()
        key = tuple(key)
        with get_tracer().span(
            "cluster:point", cat="cluster", measure=measure
        ):
            self._granularity_of(measure).check_key(key)
            owner = self.shard_map.owner_of_value(
                self._lift(measure)(key)
            )
            value = self.shards[owner].call(
                "point", measure, key, default
            )
        self._observe("point", started)
        return value

    def range(self, measure: str, prefix=()) -> list:
        """All rows with the given key prefix, merged across shards."""
        started = time.perf_counter()
        self._check_serving()
        prefix = tuple(prefix)
        with get_tracer().span(
            "cluster:range", cat="cluster", measure=measure
        ):
            self._granularity_of(measure)
            dim = self.shard_map.dim
            if dim < len(prefix):
                # The prefix pins the partition dimension: one shard
                # owns every matching region.
                owner = self.shard_map.owner_of_value(
                    self._lift(measure)(prefix)
                )
                rows = self.shards[owner].call("scan", measure, prefix)
            else:
                parts = self._fanout("scan", measure, prefix)
                rows = sorted(
                    (row for part in parts if part for row in part),
                    key=lambda row: row[0],
                )
        self._observe("range", started)
        return rows

    def table(self, measure: str) -> MeasureTable:
        """The full measure table: disjoint union of owned shard rows."""
        started = time.perf_counter()
        self._check_serving()
        with get_tracer().span(
            "cluster:table", cat="cluster", measure=measure
        ):
            granularity = self._granularity_of(measure)
            rows: dict = {}
            for part in self._fanout("table_rows", measure):
                if part:
                    rows.update(part)
        self._observe("table", started)
        return MeasureTable(measure, granularity, rows=rows)

    def rollup(self, measure: str, spec, agg: str = "sum") -> MeasureTable:
        """Roll a measure up to a coarser granularity across shards."""
        started = time.perf_counter()
        self._check_serving()
        source = self._granularity_of(measure)
        target = Granularity.from_spec(source.schema, spec)
        if not source.finer_or_equal(target):
            raise ClusterError(
                f"rollup target {target!r} is not coarser than "
                f"{measure!r}'s granularity {source!r}"
            )
        with get_tracer().span(
            "cluster:rollup", cat="cluster", measure=measure, agg=agg
        ):
            rows = self._rollup_rows(measure, source, target, agg)
        self._observe("rollup", started)
        return MeasureTable(f"{measure}@{agg}", target, rows=rows)

    def _rollup_rows(self, measure, source, target, agg) -> dict:
        if agg in MERGEABLE_ROLLUP_AGGS:
            merge = get_aggregate(_PARTIAL_MERGE[agg])
            merged: dict = {}
            for part in self._fanout(
                "rollup_rows", measure, target.levels, agg
            ):
                for key, value in (part or {}).items():
                    state = merged.get(key)
                    if state is None and key not in merged:
                        state = merge.create()
                    merged[key] = merge.update(state, value)
            rows = {
                key: merge.finalize(state)
                for key, state in merged.items()
            }
        else:
            # Non-mergeable aggregate (e.g. avg over stored values):
            # gather the exact owned rows and roll up centrally.
            function = get_aggregate(agg)
            grouped: dict = {}
            for part in self._fanout("table_rows", measure):
                for key, value in (part or {}).items():
                    out_key = target.generalize_key(key, source)
                    state = grouped.get(out_key)
                    if state is None and out_key not in grouped:
                        state = function.create()
                    grouped[out_key] = function.update(state, value)
            rows = {
                key: function.finalize(state)
                for key, state in grouped.items()
            }
        return rows

    def resolve(self) -> bool:
        """Force deferred recomputes on every shard."""
        self._check_serving()
        return any(self._fanout("resolve"))

    # -- writes --------------------------------------------------------

    def _route_records(self, records) -> list[list[tuple]]:
        """Split a batch into per-shard sub-deltas (margins included)."""
        per_shard: list[list[tuple]] = [
            [] for _ in range(self.num_shards)
        ]
        readers = self.shard_map.readers_of_value
        route = self._route_record
        for record in records:
            for index in readers(route(record)):
                per_shard[index].append(record)
        return per_shard

    def ingest(self, records) -> dict:
        """Fold one delta into the cluster via two-phase commit."""
        started = time.perf_counter()
        records = [tuple(record) for record in records]
        with self._ingest_lock, get_tracer().span(
            "cluster:ingest", cat="cluster", records=len(records)
        ) as span:
            self._check_serving()
            stale = IngestJournal.load(self.root)
            if stale is not None:
                if stale.epoch > self._manifest.epoch:
                    # Another router object (or a crashed one) left an
                    # uncommitted ingest behind; starting a new epoch
                    # now would overwrite its journal and lose that
                    # delta on every shard that had not prepared.
                    raise ClusterError(
                        f"cluster {self.root!r} has an uncommitted "
                        f"ingest journal for epoch {stale.epoch}; "
                        "recover before ingesting"
                    )
                # The swap completed but the cleanup was lost: the
                # journal is stale, drop it before reusing the name.
                stale.clear()
            per_shard = self._route_records(records)
            epoch = self._manifest.epoch + 1

            # Phase 0: journal the delta durably before touching any
            # shard — from here the ingest survives any crash.
            facts_name = f"journal-{epoch:06d}.pkl"
            facts_path = os.path.join(self.root, facts_name)
            with open(facts_path, "wb") as fh:
                pickle.dump(records, fh)
                fh.flush()
                os.fsync(fh.fileno())
            baseline = [
                shard.call("generation") for shard in self.shards
            ]
            journal = IngestJournal(
                self.root,
                epoch=epoch,
                expected=[
                    gen + (1 if per_shard[i] else 0)
                    for i, gen in enumerate(baseline)
                ],
                baseline=baseline,
                facts=facts_name,
                records=len(records),
            )
            journal.write()

            try:
                # Phase 1: every affected shard prepares — its own
                # atomic commit, carrying the target epoch in the
                # same commit.
                reports = self._prepare(per_shard, epoch)

                # Phase 2: swap the cluster manifest.
                generations = [
                    reports[i]["generation"]
                    if i in reports
                    else baseline[i]
                    for i in range(self.num_shards)
                ]
                manifest = ClusterManifest(
                    self.root,
                    self.shard_map,
                    epoch,
                    generations,
                    meta=self._manifest.meta,
                )
                manifest.write()
            except Exception:
                # Some shards may have prepared epoch N+1 while others
                # are still at N, and the journal for N+1 is the only
                # record of the delta.  Fence the cluster — reads
                # would mix epochs, and a new ingest would reuse N+1
                # and overwrite the journal — until recover() rolls
                # the journal forward (or the directory is reopened,
                # which recovers on open).
                self._failed = True
                logger.exception(
                    "cluster %s: ingest for epoch %d aborted "
                    "mid-commit; journal retained, cluster fenced "
                    "until recover()",
                    self.root, epoch,
                )
                raise
            self._manifest = manifest
            self._epoch_gauge.set(epoch)
            # Drop the journal.  A failure past the swap is benign:
            # the new manifest is durable, so the journal is merely
            # stale and the next ingest or reopen clears it.
            journal.clear()

            updated: set[str] = set()
            deferred: set[str] = set()
            for report in reports.values():
                updated.update(report["updated_measures"])
                deferred.update(report["deferred_measures"])
            span.set(epoch=epoch, shards=len(reports))
            self._requests.labels(op="ingest").inc()
            get_registry().histogram(
                CLUSTER_INGEST_SECONDS,
                "End-to-end latency of one cluster ingest "
                "(journal through manifest swap)",
            ).observe(time.perf_counter() - started)
            return {
                "epoch": epoch,
                "records": len(records),
                "shards": sorted(reports),
                "updated_measures": sorted(updated),
                "deferred_measures": sorted(deferred - updated),
            }

    def _prepare(
        self, per_shard: list[list[tuple]], epoch: int
    ) -> dict[int, dict]:
        reports: dict[int, dict] = {}
        for index, sub in enumerate(per_shard):
            if not sub:
                continue
            reports[index] = self.shards[index].call(
                "ingest", sub, epoch
            )
            fire(FP_SHARD_PREPARE, path=shard_dir(self.root, index))
        return reports

    def recover(self) -> ClusterManifest:
        """Roll any in-flight ingest forward and reopen every shard.

        This is the in-process counterpart of the recovery that
        :func:`open_cluster` runs: redo the journaled delta on every
        shard still behind it, finish the manifest swap, and rebuild
        the shard handles so they serve the recovered state.  It
        clears the fenced state an aborted ingest leaves behind; call
        it with no requests in flight.
        """
        with self._ingest_lock, get_tracer().span(
            "cluster:recover", cat="cluster"
        ) as span:
            for shard in self.shards:
                shard.close()
            manifest = recover_cluster(self.root, self.workflow)
            self._manifest = manifest
            self._open_shards()
            self._epoch_gauge.set(manifest.epoch)
            self._failed = False
            span.set(epoch=manifest.epoch)
            return manifest

    # -- telemetry -----------------------------------------------------

    def pull_telemetry(self) -> None:
        """Absorb worker-process spans and metrics into this process.

        Local-mode shards share the process-wide tracer/registry, so
        there is nothing to pull.
        """
        if self.mode != "process":
            return
        tracer = get_tracer()
        registry = get_registry()
        for shard in self.shards:
            events, samples = shard.call("telemetry")
            tracer.absorb(events)
            registry.merge_dict(samples)

    # -- chaos / lifecycle ---------------------------------------------

    def kill_worker(self, index: int) -> None:
        """Hard-kill one worker process (recovery drills)."""
        if self.mode != "process":
            raise ClusterError(
                "kill_worker requires process mode"
            )
        self.shards[index].kill()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for shard in self.shards:
            shard.close()
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def __enter__(self) -> "MeasureCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- construction ------------------------------------------------------


def bootstrap_cluster(
    root: str,
    workflow,
    records,
    num_shards: int,
    partition_dim: int | str | None = None,
    mode: str = "local",
    cache_size: int = 256,
    validate: bool = True,
    meta: dict | None = None,
) -> MeasureCluster:
    """Create a cluster directory and bootstrap every shard.

    The shard map's cut points come from the bootstrap batch's
    partition-value distribution; margins replicate boundary records to
    neighbor shards exactly as the partitioned engine does.  ``meta``
    is persisted in the cluster manifest — the CLI records the query
    family there so clusters whose workflow is unpicklable (no
    ``workflow.pkl``) can still be reopened by name.
    """
    if validate:
        reject_invalid_workflow(workflow)
    if num_shards < 1:
        raise ClusterError(f"num_shards must be >= 1, got {num_shards}")
    if ClusterManifest.exists(root):
        raise ClusterError(
            f"{root!r} already holds a cluster; open_cluster() it"
        )
    records = [tuple(record) for record in records]
    graph = compile_workflow(workflow)
    shard_map = build_shard_map(
        graph, records, num_shards, partition_dim=partition_dim
    )
    os.makedirs(root, exist_ok=True)

    # Persist the workflow at the root so worker processes and later
    # sessions can reopen without re-supplying it.
    try:
        blob = pickle.dumps(workflow)
    except Exception:
        blob = None
        if mode == "process":
            raise ClusterError(
                "process mode requires a picklable workflow"
            ) from None
    if blob is not None:
        with open(os.path.join(root, "workflow.pkl"), "wb") as fh:
            fh.write(blob)

    route = partition_value_fn(graph, shard_map)
    readers = shard_map.readers_of_value
    per_shard: list[list[tuple]] = [[] for _ in range(shard_map.num_shards)]
    for record in records:
        for index in readers(route(record)):
            per_shard[index].append(record)

    generations = []
    for index, sub in enumerate(per_shard):
        worker = ShardWorker(
            MeasureStore(shard_dir(root, index)),
            workflow,
            shard_map,
            index,
        )
        generations.append(
            worker.bootstrap(sub, meta={"cluster_epoch": 1})
        )
    manifest = ClusterManifest(
        root, shard_map, epoch=1, generations=generations, meta=meta
    )
    manifest.write()
    logger.info(
        "bootstrapped cluster at %s: %d shards, %d records",
        root, shard_map.num_shards, len(records),
    )
    return MeasureCluster(
        root, manifest, workflow, mode=mode, cache_size=cache_size
    )


def recover_cluster(root: str, workflow=None) -> ClusterManifest:
    """Redo any in-flight cluster ingest; returns the final manifest.

    Idempotent and crash-safe at every step: a shard already at the
    journal's target epoch (stamped inside its prepare commit) is
    skipped, so re-running after a crash mid-recovery never
    double-applies a delta.
    """
    manifest = ClusterManifest.load(root)
    journal = IngestJournal.load(root)
    if journal is None:
        return manifest
    if journal.epoch <= manifest.epoch:
        # Crash landed after the swap but before the journal cleanup.
        journal.clear()
        return manifest

    workflow = _load_root_workflow(root, workflow)
    graph = compile_workflow(workflow)
    with open(journal.facts_path, "rb") as fh:
        records = pickle.load(fh)
    route = partition_value_fn(graph, manifest.shard_map)
    readers = manifest.shard_map.readers_of_value
    per_shard: list[list[tuple]] = [
        [] for _ in range(manifest.num_shards)
    ]
    for record in records:
        for index in readers(route(record)):
            per_shard[index].append(record)

    generations = list(journal.baseline)
    redone = 0
    for index, sub in enumerate(per_shard):
        worker = ShardWorker(
            MeasureStore(shard_dir(root, index)),
            workflow,
            manifest.shard_map,
            index,
        )
        if not sub:
            generations[index] = worker.generation()
            continue
        if worker.cluster_epoch() >= journal.epoch:
            generations[index] = worker.generation()
            continue
        report = worker.ingest(sub, epoch=journal.epoch)
        generations[index] = report["generation"]
        redone += 1
    recovered = ClusterManifest(
        root,
        manifest.shard_map,
        journal.epoch,
        generations,
        meta=manifest.meta,
    )
    recovered.write()
    journal.clear()
    logger.warning(
        "recovered cluster at %s to epoch %d (%d shards redone)",
        root, journal.epoch, redone,
    )
    return recovered


def open_cluster(
    root: str,
    workflow=None,
    mode: str = "local",
    cache_size: int = 256,
) -> MeasureCluster:
    """Open an existing cluster directory, recovering if needed."""
    workflow = _load_root_workflow(root, workflow)
    manifest = recover_cluster(root, workflow)
    return MeasureCluster(
        root, manifest, workflow, mode=mode, cache_size=cache_size
    )
