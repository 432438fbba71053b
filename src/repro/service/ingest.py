"""Incremental delta ingestion for the measure service.

The key property this module exploits is the one the paper's Section
5.1 classification exists for: a basic measure's accumulator state over
a union of disjoint fact batches equals the *merge* of its states over
each batch (:meth:`~repro.aggregates.base.AggregateFunction.merge`).
Ingestion therefore never rescans old facts for distributive or
algebraic aggregates:

1. the delta batch alone is hash-grouped into per-basic-node states
   by the single-scan kernel (:func:`fill_basic_tables`) — no sort and
   no composite of the delta is ever derived;
2. each non-holistic basic node's delta states are merged into its
   state table — the copy the ingestor kept from its last commit, or
   the persisted one when that copy is missing or stale;
3. only the delta's keys are finalized into the basic value tables,
   and :func:`~repro.engine.semantics.propagate` maps the changed keys
   along every composite's arcs in topological order and re-evaluates
   just the cells they reach — with the code a full derivation runs,
   so the tables equal one exactly.  These tables stay resident beside
   the states, under the same validity rule;
4. tables, the appended fact batch, and dirty markers land in one
   atomic store commit.  Every table is staged with its changed keys,
   so the store re-encodes only those rows and copies the rest of the
   previous segment as bytes (a table the delta does not reach is not
   rewritten).  A failure anywhere before the manifest swap aborts the
   commit.

Holistic aggregates (median, exact distinct) have no bounded mergeable
state, so their affected regions are marked dirty instead and the node
is recomputed lazily from the store's fact log (:meth:`Ingestor.resolve`)
— together with every measure that transitively depends on it.  Nothing
else ever falls back to a full recompute.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field
from collections.abc import Iterable
from typing import NamedTuple

from repro.errors import ServiceError
from repro.obs import get_registry, get_tracer
from repro.obs.metrics import (
    INGEST_BATCHES,
    INGEST_COMMIT_SECONDS,
    INGEST_RECORDS,
)
from repro.aggregates.base import Kind
from repro.engine.compile import (
    BasicNode,
    CompiledGraph,
    Node,
    compile_workflow,
)
from repro.engine.semantics import (
    FilteredTable,
    eval_node_from_tables,
    finalize_basic,
    member_index,
    propagate,
)
from repro.engine.single_scan import fill_basic_tables
from repro.engine.sort_scan import SortScanEngine
from repro.storage.columnar import resolve_batch_size
from repro.storage.table import Dataset, InMemoryDataset
from repro.service.store import MeasureStore, StoreCommit, StoreSink
from repro.testkit.failpoints import fire, register

# Ingest-path injection sites, swept by repro.testkit.sweeper: a kill
# at any of them must leave the store serving either the pre-delta or
# the post-delta generation, never a mixture.
FP_DELTA_EVAL = register(
    "ingest.delta-eval", "ingest",
    "after the delta batch is evaluated, before any staging",
)
FP_FOLD = register(
    "ingest.fold", "ingest",
    "after states are merged and tables staged, before the fact append",
)
FP_PRE_COMMIT = register(
    "ingest.pre-commit", "ingest",
    "after everything is staged, just before the manifest swap",
)
FP_POST_COMMIT = register(
    "ingest.post-commit", "ingest",
    "immediately after an ingest commit becomes visible",
)

#: File next to the manifest holding the pickled workflow, when the
#: workflow is picklable (combine functions defined as lambdas are not;
#: such stores need the workflow re-supplied by the caller).
WORKFLOW_FILE = "workflow.pkl"


class _Resident(NamedTuple):
    """What an ingestor keeps between its commits: each non-holistic
    basic node's merged states, the finalized basic tables and every
    non-deferred composite table derived from them, and the indexes
    :func:`~repro.engine.semantics.propagate` follows.  Valid only while
    the manifest still names the state files in ``tag``."""

    tag: tuple
    states: dict[str, dict]
    tables: dict[str, dict]
    indexes: dict[str, dict | None]


@dataclass
class IngestReport:
    """What one :meth:`Ingestor.ingest` call did."""

    generation: int
    records: int
    merged_nodes: list[str] = field(default_factory=list)
    dirty_nodes: list[str] = field(default_factory=list)
    updated_measures: list[str] = field(default_factory=list)
    deferred_measures: list[str] = field(default_factory=list)


def load_workflow(store: MeasureStore):
    """Unpickle the workflow a store was bootstrapped with, if present."""
    path = os.path.join(store.path, WORKFLOW_FILE)
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return pickle.load(fh)


def reject_invalid_workflow(workflow) -> None:
    """Run the static analyzer; refuse error-level workflows.

    This is the service's submit/ingest gate: workflows arrive over the
    wire (pickled into the store, or POSTed to ``/workflow``) and
    bypass the builder's incremental checks, so the linter is the only
    line of defense before a bad plan touches data.  The rejected
    diagnostics ride on :attr:`~repro.errors.ServiceError.diagnostics`
    and are serialized into the HTTP error body.
    """
    from repro.analysis import analyze

    report = analyze(workflow)
    if not report.ok:
        summary = "; ".join(
            d.format().split("\n")[0] for d in report.errors
        )
        raise ServiceError(
            f"workflow {workflow.name!r} rejected by static analysis "
            f"({len(report.errors)} error(s)): {summary}",
            diagnostics=report.errors,
        )


class Ingestor:
    """Incremental maintenance of one store against one workflow.

    Args:
        store: The persistent measure store to maintain.
        workflow: The aggregation workflow whose outputs the store
            serves; when ``None``, the pickled workflow saved at
            bootstrap time is loaded from the store directory.
    """

    def __init__(self, store: MeasureStore, workflow=None) -> None:
        self.store = store
        if workflow is None:
            workflow = load_workflow(store)
        if workflow is None:
            raise ServiceError(
                f"store {store.path!r} has no saved workflow; "
                "pass the workflow explicitly"
            )
        self.workflow = workflow
        reject_invalid_workflow(workflow)
        self.graph: CompiledGraph = compile_workflow(workflow)
        self._engine = SortScanEngine()
        self._nodes: dict[str, Node] = {n.name: n for n in self.graph.nodes}
        # The deferred subgraph: every holistic basic node (its full
        # table is not materializable from states) plus all transitive
        # consumers; the rest is maintained incrementally.
        self._closure = self._dirty_closure(
            node.name for node in self._holistic_basics()
        )
        self._derived = [
            node for node in self.graph.nodes
            if not isinstance(node, BasicNode) and node.name not in self._closure
        ]
        self._resident: _Resident | None = None

    # -- graph helpers -------------------------------------------------

    def _holistic_basics(self) -> list[BasicNode]:
        return [
            node
            for node in self.graph.basic_nodes
            if node.agg.function.kind is Kind.HOLISTIC
        ]

    def _dirty_closure(self, names: Iterable[str]) -> set[str]:
        """Transitive consumers of ``names`` (the deferred subgraph)."""
        closure: set[str] = set()
        frontier = [self._nodes[name] for name in names if name in self._nodes]
        while frontier:
            node = frontier.pop()
            if node.name in closure:
                continue
            closure.add(node.name)
            frontier.extend(arc.dst for arc in node.out_arcs)
        return closure

    def _derive_composites(
        self, node_tables: dict[str, dict], skip: set[str]
    ) -> None:
        """Fill ``node_tables`` for every composite not in ``skip``, in
        topological order (so each one's inputs are already present)."""
        for node in self.graph.nodes:
            if isinstance(node, BasicNode) or node.name in skip:
                continue
            node_tables[node.name] = eval_node_from_tables(node, node_tables)

    def _state_files(self) -> tuple:
        return tuple(sorted(
            (name, info["file"])
            for name, info in self.store.manifest["states"].items()
        ))

    def _load(self) -> _Resident:
        """The resident tables rebuilt from the persisted states."""
        stored, read = self.store.manifest["states"], self.store.read_table
        states = {
            node.name: read(node.name, "states") if node.name in stored else {}
            for node in self.graph.basic_nodes
            if node.agg.function.kind is not Kind.HOLISTIC
        }
        tables = {
            name: finalize_basic(self._nodes[name], raw)
            for name, raw in states.items()
        }
        self._derive_composites(tables, skip=self._closure)
        indexes = {node.name: member_index(node, tables) for node in self._derived}
        return _Resident(self._state_files(), states, tables, indexes)

    def _valid_resident(self) -> _Resident | None:
        resident = self._resident
        valid = resident is not None and resident.tag == self._state_files()
        return resident if valid else None

    @staticmethod
    def _output_rows(node_tables, node, out_filter):
        rows = node_tables[node.name]
        return rows if out_filter is None else FilteredTable(rows, out_filter)

    def _as_dataset(self, records) -> Dataset:
        if isinstance(records, Dataset):
            return records
        return InMemoryDataset(self.workflow.schema, records)

    # -- bootstrap -----------------------------------------------------

    def bootstrap(
        self, records, meta: dict | None = None
    ) -> int:
        """Full first evaluation: facts, states, and values in one commit.

        Returns the committed generation.  The workflow is pickled next
        to the manifest when possible so later sessions can reopen the
        store without re-supplying it.
        """
        if not self.store.is_empty():
            raise ServiceError(
                f"store {self.store.path!r} is not empty "
                f"(generation {self.store.generation}); use ingest()"
            )
        tracer = get_tracer()
        with tracer.span("service:bootstrap", cat="service") as span:
            dataset = self._as_dataset(records)
            state_aggs = {
                node.name: node.agg.function
                for node in self.graph.basic_nodes
            }
            sink = StoreSink(
                self.store, state_aggs=state_aggs, autocommit=False
            )
            self._engine.evaluate(dataset, self.graph, sink=sink)
            self._save_workflow()
            with tracer.span("commit", cat="service"):
                commit = self.store.begin()
                sink.stage_into(commit)
                commit.append_facts(self.workflow.schema, dataset.scan())
                commit.update_meta(
                    {"facts_complete": True, **(meta or {})}
                )
                generation = commit.commit()
            span.set(generation=generation, records=len(dataset))
            return generation

    def _save_workflow(self) -> None:
        path = os.path.join(self.store.path, WORKFLOW_FILE)
        try:
            blob = pickle.dumps(self.workflow)
        except Exception:
            return  # not picklable (e.g. lambda combine fn); skip
        with open(path, "wb") as fh:
            fh.write(blob)

    # -- incremental ingest --------------------------------------------

    def ingest(
        self, records, meta: dict | None = None
    ) -> IngestReport:
        """Fold one delta batch into the store, atomically.

        Equivalent (for non-deferred measures, exactly; for deferred
        ones, after :meth:`resolve`) to a full recompute over the union
        of all ingested facts.  ``meta`` keys are merged into the store
        metadata *in the same commit* as the delta — the cluster layer
        stamps its epoch this way, so a shard's metadata never vouches
        for a delta the shard did not durably apply.
        """
        if self.store.is_empty():
            raise ServiceError(
                f"store {self.store.path!r} is empty; bootstrap() first"
            )
        tracer = get_tracer()
        started = time.perf_counter()
        ingest_span = tracer.span("service:ingest", cat="service")
        ingest_span.__enter__()
        try:
            report = self._ingest_inner(records, tracer, meta=meta)
            ingest_span.set(
                generation=report.generation, records=report.records
            )
        finally:
            ingest_span.__exit__(None, None, None)
        duration = time.perf_counter() - started
        registry = get_registry()
        registry.counter(
            INGEST_BATCHES, "Delta batches folded into the store"
        ).inc()
        registry.counter(
            INGEST_RECORDS, "Fact records ingested across all batches"
        ).inc(report.records)
        registry.histogram(
            INGEST_COMMIT_SECONDS,
            "End-to-end latency of one ingest fold "
            "(delta evaluation through manifest swap)",
        ).observe(duration)
        return report

    def _ingest_inner(
        self, records, tracer, meta: dict | None = None
    ) -> IngestReport:
        with tracer.span("delta-eval", cat="service"):
            delta = self._as_dataset(records)
            delta_states = [(node, {}) for node in self.graph.basic_nodes]
            fill_basic_tables(delta, delta_states, resolve_batch_size(None))
        fire(FP_DELTA_EVAL)

        # The resident tables leave ``self`` for the fold: merging and
        # propagation mutate them (HyperLogLog registers in place), so
        # only a commit that returns may put them back.
        resident = self._valid_resident()
        self._resident = None
        commit = self.store.begin()
        report = IngestReport(generation=0, records=len(delta))
        try:
            with tracer.span("fold", cat="service"):
                resident = self._fold(delta_states, resident, commit, report)
            # 5. The delta joins the fact log (resolution's input), and
            #    everything becomes visible at once.
            fire(FP_FOLD)
            with tracer.span("commit", cat="service"):
                commit.append_facts(self.workflow.schema, delta.scan())
                if meta:
                    commit.update_meta(meta)
                fire(FP_PRE_COMMIT)
                report.generation = commit.commit()
        except BaseException:
            commit.abort()
            raise
        self._resident = resident._replace(tag=self._state_files())
        fire(FP_POST_COMMIT)
        return report

    def _fold(
        self, delta_states: list, resident: _Resident | None,
        commit: StoreCommit, report: IngestReport,
    ) -> _Resident:
        """Steps 2-4: stage every table the delta changes; returns the
        patched resident tables."""
        # 2. Merge delta states into the stored states (non-holistic),
        #    or mark affected regions dirty (holistic).  The state
        #    tables are read from disk only when the resident copy is
        #    missing or no longer the committed one.
        if resident is None:
            resident = self._load()
        states, tables = resident.states, resident.tables
        changed: dict[str, Iterable[tuple]] = {}
        for node, fresh in delta_states:
            agg = node.agg.function
            if agg.kind is Kind.HOLISTIC:
                commit.mark_dirty(node.name, fresh.keys())
                report.dirty_nodes.append(node.name)
                continue
            merged, values = states[node.name], tables[node.name]
            for key, state in fresh.items():
                if key in merged:
                    state = agg.merge(merged[key], state)
                merged[key] = state
                values[key] = agg.finalize(state)
            changed[node.name] = fresh.keys()
            commit.put_states(
                node.name, node.granularity, merged, agg_name=agg.name,
                changed=fresh.keys(),
            )
            report.merged_nodes.append(node.name)
        report.dirty_nodes.sort()

        # 3. Only the delta's keys were finalized; carry the change
        #    through every composite outside the deferred subgraph.
        propagate(self._derived, tables, changed, resident.indexes)

        # 4. Refresh servable outputs at their changed keys (a filtered
        #    output may drop them); defer those in the closure.  Prior
        #    unresolved dirt carries over through the commit's dirty
        #    bookkeeping.
        for out_name, (node, out_filter) in self.graph.outputs.items():
            if node.name in self._closure:
                commit.mark_measure_dirty(out_name)
                report.deferred_measures.append(out_name)
                continue
            commit.put_values(
                out_name,
                node.granularity,
                self._output_rows(tables, node, out_filter),
                changed=changed[node.name],
            )
            report.updated_measures.append(out_name)
        return resident

    # -- lazy resolution -----------------------------------------------

    def resolve(self) -> bool:
        """Recompute deferred (holistic-dependent) measures, if any.

        Holistic basic nodes are recomputed in a single scan of the
        store's fact log; everything downstream is re-derived from
        tables.  Distributive/algebraic basics are *never* recomputed
        here — their tables are the resident ones or come from the
        persisted states.
        Returns True when work was done.
        """
        dirty_nodes = self.store.dirty_nodes()
        dirty_measures = self.store.dirty_measures()
        if not dirty_nodes and not dirty_measures:
            return False
        with get_tracer().span(
            "service:resolve", cat="service",
            dirty_measures=sorted(dirty_measures),
        ):
            return self._resolve_inner(dirty_nodes, dirty_measures)

    def _resolve_inner(self, dirty_nodes, dirty_measures) -> bool:
        if not self.store.meta().get("facts_complete"):
            raise ServiceError(
                f"store {self.store.path!r} has dirty holistic measures "
                "but no complete fact log to recompute them from"
            )

        facts = self.store.fact_dataset(self.workflow.schema)
        holistic = self._holistic_basics()
        pairs: list = [(node, {}) for node in holistic]
        fill_basic_tables(facts, pairs, resolve_batch_size(None))

        # Everything outside the deferred subgraph comes from the
        # resident tables (read here, never patched) or the persisted
        # states; only the deferred composites are derived.
        resident = self._valid_resident() or self._load()
        node_tables = dict(resident.tables)
        for node, raw in pairs:
            node_tables[node.name] = finalize_basic(node, raw)
        self._derive_composites(node_tables, skip=set(resident.tables))

        closure = self._dirty_closure(
            list(dirty_nodes) + [node.name for node in holistic]
        )
        commit = self.store.begin()
        for out_name, (node, out_filter) in self.graph.outputs.items():
            if out_name in dirty_measures or node.name in closure:
                commit.put_values(
                    out_name,
                    node.granularity,
                    self._output_rows(node_tables, node, out_filter),
                )
        commit.clear_dirty()
        commit.commit()
        # The rewritten outputs hold the resident tables' rows, and the
        # state files did not change: the resident tables stay valid.
        self._resident = resident._replace(tag=self._state_files())
        return True
