"""Multi-tenant namespaces and admission control.

Each tenant is a fully isolated namespace: its own directory under
``<root>/tenants/<name>``, its own cluster (or single-shard service),
and therefore its own per-shard LRU caches — tenant A's ingest
invalidates A's caches and nobody else's, because no cache object is
shared.  Isolation is structural, not filtered.

Tenant names are restricted to ``[a-z0-9][a-z0-9_-]*`` (max 64 chars)
and used verbatim as directory names: the strict charset means two
distinct tenant names can never collide on disk (no case folding, no
escaping, no truncation).

Admission control guards the two expensive doors with the CSM2xx
footprint model (:func:`repro.optimizer.memory_model.estimate_graph_entries`
— the same estimate the static analyzer's CSM201 lint uses):

- **workflow registration** is rejected outright (not retryable) when
  the estimated resident footprint exceeds the tenant's budget;
- **ingest** is re-estimated against the post-ingest fact count —
  including records admitted by concurrent ingests but not yet
  committed — and rejected when the tenant would outgrow its budget;
  the check runs while holding an ingest slot, so two deltas that only
  fit alone cannot both be admitted.  Concurrent ingests beyond the
  tenant's slot limit are *queued* (bounded wait) or *rejected*
  (retryable) depending on the configured policy.

Each tenant's budget is persisted in its cluster manifest at
registration time and restored on reopen, so a manager restart never
silently reverts a custom budget to the default.

Rejections raise :class:`~repro.errors.AdmissionError`, whose
structured payload the HTTP front end serializes as a 429 body — the
admission-control mirror of the 422 lint-rejection body.
"""

from __future__ import annotations

import os
import re
import threading

from repro.errors import AdmissionError, ServiceError
from repro.analysis.analyzer import DEFAULT_MEMORY_BUDGET
from repro.engine.compile import compile_workflow
from repro.engine.sort_scan import default_sort_key
from repro.obs import get_registry
from repro.obs.metrics import ADMISSION_REJECTS
from repro.optimizer.memory_model import (
    estimate_graph_entries,
    estimate_node_entries,
)
from repro.service.cluster.manifest import ClusterManifest
from repro.service.cluster.router import (
    MeasureCluster,
    bootstrap_cluster,
    open_cluster,
)

_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9_-]{0,63}$")

#: Concurrent ingests a tenant may have in flight before admission
#: control starts queueing or rejecting.
DEFAULT_INGEST_SLOTS = 2

#: How long a queued ingest waits for a slot before giving up.
DEFAULT_QUEUE_TIMEOUT = 30.0


def validate_tenant_name(name: str) -> str:
    """Return ``name`` when it is a safe, collision-free directory name."""
    if not _NAME_RE.match(name):
        raise ServiceError(
            f"invalid tenant name {name!r}: must match "
            "[a-z0-9][a-z0-9_-]{0,63}"
        )
    return name


class TenantState:
    """One tenant's cluster handle plus its admission bookkeeping."""

    def __init__(
        self,
        name: str,
        cluster: MeasureCluster,
        budget: int,
        ingest_slots: int,
    ) -> None:
        self.name = name
        self.cluster = cluster
        self.budget = budget
        self.semaphore = threading.BoundedSemaphore(ingest_slots)
        self.queued = 0
        #: Records admitted but not yet committed: concurrent slot
        #: holders charge the budget against facts + pending, so two
        #: deltas that only fit alone cannot both be admitted.
        self.pending_records = 0
        self.queue_lock = threading.Lock()


class TenantManager:
    """Routes tenant-scoped requests and enforces admission control."""

    def __init__(
        self,
        root: str,
        num_shards: int = 1,
        mode: str = "local",
        default_budget: int = DEFAULT_MEMORY_BUDGET,
        ingest_slots: int = DEFAULT_INGEST_SLOTS,
        queue_policy: str = "queue",
        queue_timeout: float = DEFAULT_QUEUE_TIMEOUT,
        max_queue_depth: int = 16,
        cache_size: int = 256,
    ) -> None:
        if queue_policy not in ("queue", "reject"):
            raise ServiceError(
                f"unknown admission queue policy {queue_policy!r}"
            )
        self.root = root
        self.num_shards = num_shards
        self.mode = mode
        self.default_budget = default_budget
        self.ingest_slots = ingest_slots
        self.queue_policy = queue_policy
        self.queue_timeout = queue_timeout
        self.max_queue_depth = max_queue_depth
        self.cache_size = cache_size
        self._tenants: dict[str, TenantState] = {}
        self._lock = threading.Lock()
        self._rejects = get_registry().counter(
            ADMISSION_REJECTS,
            "Requests rejected by tenant admission control",
            labelnames=("tenant", "reason"),
        )
        self._reopen_existing()

    # -- namespace plumbing --------------------------------------------

    def tenant_dir(self, name: str) -> str:
        return os.path.join(
            self.root, "tenants", validate_tenant_name(name)
        )

    def tenants(self) -> list[str]:
        with self._lock:
            return sorted(self._tenants)

    def _reopen_existing(self) -> None:
        base = os.path.join(self.root, "tenants")
        if not os.path.isdir(base):
            return
        for name in sorted(os.listdir(base)):
            path = os.path.join(base, name)
            if not _NAME_RE.match(name) or not ClusterManifest.exists(
                path
            ):
                continue
            cluster = open_cluster(
                path, mode=self.mode, cache_size=self.cache_size
            )
            # The budget was persisted in the cluster manifest at
            # registration; falling back to the default would silently
            # change admission decisions for tenants registered with a
            # custom budget.
            budget = int(
                cluster.manifest.meta.get(
                    "tenant_budget", self.default_budget
                )
            )
            self._tenants[name] = TenantState(
                name, cluster, budget, self.ingest_slots
            )

    def get(self, name: str) -> TenantState:
        with self._lock:
            state = self._tenants.get(name)
        if state is None:
            raise ServiceError(
                f"unknown tenant {name!r}; register a workflow first"
            )
        return state

    def cluster(self, name: str) -> MeasureCluster:
        return self.get(name).cluster

    def _clusters(self) -> list[tuple[str, MeasureCluster]]:
        with self._lock:
            return [
                (name, state.cluster)
                for name, state in sorted(self._tenants.items())
            ]

    # -- the HTTP front end's backend calls ----------------------------
    # MeasureService and MeasureCluster answer the same ones.

    def tenant_scope(self, tenant: str | None) -> MeasureCluster:
        """The cluster that answers reads for ``tenant``."""
        return self.cluster(tenant or "default")

    def tenant_label(self, tenant: str | None) -> str:
        """The ``tenant`` label of a request's metric series: only a
        registered name gets its own, so clients cannot mint series."""
        if tenant is None:
            return "default"
        return tenant if tenant in self._tenants else "unknown"

    def health(self) -> dict:
        """Every tenant cluster's health and the worst status of all."""
        tenants = {
            name: cluster.health() for name, cluster in self._clusters()
        }
        worst = max(
            (health["status"] for health in tenants.values()),
            key=("ok", "degraded", "fenced").index,
            default="ok",
        )
        return {"status": worst, "tenants": tenants}

    def status_fields(self) -> dict:
        """This backend's part of ``/statusz``: per-tenant stats and
        the cross-tenant sharing findings (CSM4xx), so redundant tenant
        dashboards show up with estimated savings attached."""
        return {
            "tenants": self.stats(),
            "workload": self.workload_sharing_stats(),
        }

    def ingest_reply(self, records, tenant: str | None = None) -> dict:
        """The ``POST /ingest`` body of an admission-checked ingest."""
        return self.ingest(tenant or "default", records)

    def submit_workflow(
        self, workflow, tenant, records, dataset_size
    ) -> dict:
        """The tenant half of ``POST /workflow``: the footprint gate,
        then (when ``records`` are supplied) the tenant bootstrap."""
        if tenant is None:
            return {}
        reply: dict = {
            "estimate": self.admit_workflow(
                tenant, workflow, dataset_size=dataset_size
            )
        }
        if records:
            state = self.register(tenant, workflow, records)
            reply["tenant"] = tenant
            reply["epoch"] = state.cluster.epoch
        return reply

    def pull_telemetry(self) -> None:
        """Absorb every tenant cluster's worker telemetry, so
        process-mode tenants reach the exported registry too."""
        for __, cluster in self._clusters():
            cluster.pull_telemetry()

    def resolve(self) -> bool:
        """Force deferred recomputes in every tenant cluster."""
        # A list, not a generator: every cluster resolves.
        return any(
            [cluster.resolve() for __, cluster in self._clusters()]
        )

    # -- admission control ---------------------------------------------

    def _reject(self, error: AdmissionError) -> AdmissionError:
        self._rejects.labels(
            tenant=error.tenant, reason=error.reason
        ).inc()
        return error

    def _estimate(self, workflow, dataset_size: int | None) -> int:
        """A tenant's resident footprint in entries, CSM2xx model.

        Two parts share the watermark-driven cardinality model: the
        *streaming* working set one ingest fold keeps resident
        (:func:`estimate_graph_entries`, what CSM201 lints), plus the
        *stored* state tables the service keeps hot for serving — each
        node's full group count (``specs=[]`` means nothing flushes),
        capped at the fact count.
        """
        graph = compile_workflow(workflow)
        streaming = estimate_graph_entries(
            graph, default_sort_key(graph), dataset_size=dataset_size
        )
        stored = sum(
            estimate_node_entries(node, [], dataset_size=dataset_size)
            for node in graph.nodes
        )
        return streaming + stored

    def admit_workflow(
        self,
        name: str,
        workflow,
        dataset_size: int | None = None,
        budget: int | None = None,
    ) -> int:
        """Gate a workflow registration; returns the footprint estimate."""
        budget = self.default_budget if budget is None else budget
        estimate = self._estimate(workflow, dataset_size)
        if estimate > budget:
            raise self._reject(
                AdmissionError(
                    f"tenant {name!r}: estimated footprint {estimate} "
                    f"entries exceeds the tenant budget of {budget}",
                    tenant=name,
                    reason="memory-budget",
                    retryable=False,
                    estimate=estimate,
                    budget=budget,
                )
            )
        return estimate

    def register(
        self,
        name: str,
        workflow,
        records,
        budget: int | None = None,
    ) -> TenantState:
        """Admit and bootstrap a new tenant namespace."""
        path = self.tenant_dir(name)
        records = [tuple(record) for record in records]
        with self._lock:
            if name in self._tenants:
                raise ServiceError(
                    f"tenant {name!r} is already registered"
                )
            budget = (
                self.default_budget if budget is None else budget
            )
            self.admit_workflow(
                name, workflow, dataset_size=len(records), budget=budget
            )
            cluster = bootstrap_cluster(
                path,
                workflow,
                records,
                num_shards=self.num_shards,
                mode=self.mode,
                cache_size=self.cache_size,
                # Persisted so a restarted manager restores the same
                # admission decisions (see _reopen_existing).
                meta={"tenant_budget": budget},
            )
            state = TenantState(
                name, cluster, budget, self.ingest_slots
            )
            self._tenants[name] = state
            return state

    def ingest(self, name: str, records) -> dict:
        """Admission-checked, slot-limited ingest into one tenant."""
        state = self.get(name)
        records = [tuple(record) for record in records]
        self._acquire_slot(state)
        try:
            # Budget check *while holding the slot*: a tenant at its
            # footprint ceiling cannot grow past it by ingesting, and
            # charging the delta against facts + in-flight records
            # under the admission lock means a concurrent slot
            # holder's uncommitted delta counts too — closing the
            # check-then-ingest race where two deltas that only fit
            # alone were both admitted.
            self._charge_budget(state, len(records))
            try:
                return state.cluster.ingest(records)
            finally:
                with state.queue_lock:
                    state.pending_records -= len(records)
        finally:
            state.semaphore.release()

    def _acquire_slot(self, state: TenantState) -> None:
        """Take an ingest slot: queue (bounded) or reject (retryable)."""
        if state.semaphore.acquire(blocking=False):
            return
        if self.queue_policy == "reject":
            raise self._reject(
                AdmissionError(
                    f"tenant {state.name!r}: too many concurrent "
                    "ingests; retry later",
                    tenant=state.name,
                    reason="ingest-slots",
                    retryable=True,
                )
            )
        with state.queue_lock:
            if state.queued >= self.max_queue_depth:
                raise self._reject(
                    AdmissionError(
                        f"tenant {state.name!r}: ingest queue is full "
                        f"({state.queued} waiting); retry later",
                        tenant=state.name,
                        reason="queue-depth",
                        retryable=True,
                    )
                )
            state.queued += 1
        try:
            acquired = state.semaphore.acquire(
                timeout=self.queue_timeout
            )
        finally:
            with state.queue_lock:
                state.queued -= 1
        if not acquired:
            raise self._reject(
                AdmissionError(
                    f"tenant {state.name!r}: timed out after "
                    f"{self.queue_timeout}s waiting for an "
                    "ingest slot",
                    tenant=state.name,
                    reason="queue-timeout",
                    retryable=True,
                )
            )

    def _charge_budget(self, state: TenantState, count: int) -> None:
        """Admit ``count`` records against the budget, or reject."""
        with state.queue_lock:
            facts = state.cluster.stats()["facts"]
            projected = facts + state.pending_records + count
            estimate = self._estimate(state.cluster.workflow, projected)
            if estimate > state.budget:
                raise self._reject(
                    AdmissionError(
                        f"tenant {state.name!r}: ingesting {count} "
                        "records would grow the estimated footprint "
                        f"to {estimate} entries, over the budget of "
                        f"{state.budget}",
                        tenant=state.name,
                        reason="memory-budget",
                        retryable=False,
                        estimate=estimate,
                        budget=state.budget,
                    )
                )
            state.pending_records += count

    def workload_sharing_stats(self) -> dict:
        """Cross-tenant workload sharing summary for ``/statusz``.

        Runs the workload analyzer (:mod:`repro.analysis.workload`)
        over every tenant's registered workflow, so operators can spot
        redundant tenant dashboards — two tenants computing the same
        sub-aggregations, or one tenant's workflow subsuming another's
        — with the estimated work-unit saving attached.  Best-effort:
        an analyzer failure degrades to an ``error`` field rather than
        failing the status endpoint.
        """
        workflows = {
            name: cluster.workflow for name, cluster in self._clusters()
        }
        summary: dict = {
            "tenants": len(workflows),
            "codes": [],
            "estimated_saving": 0.0,
            "diagnostics": [],
            "shared_scan_groups": [],
        }
        if len(workflows) < 2:
            return summary
        try:
            from repro.analysis import analyze_workload

            report = analyze_workload(workflows)
        except Exception as exc:  # pragma: no cover - defensive
            summary["error"] = f"{type(exc).__name__}: {exc}"
            return summary
        summary["codes"] = sorted(report.codes())
        summary["estimated_saving"] = report.estimated_saving()
        summary["diagnostics"] = [
            d.to_dict() for d in report.diagnostics
        ]
        summary["shared_scan_groups"] = [
            g.to_dict() for g in report.scan_groups
        ]
        return summary

    # -- lifecycle -----------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            states = list(self._tenants.values())
        return {
            "tenants": {
                state.name: {
                    "budget": state.budget,
                    "queued_ingests": state.queued,
                    **state.cluster.stats(),
                }
                for state in states
            }
        }

    def close(self) -> None:
        with self._lock:
            states = list(self._tenants.values())
            self._tenants.clear()
        for state in states:
            state.cluster.close()
