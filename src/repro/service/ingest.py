"""Incremental delta ingestion for the measure service.

The key property this module exploits is the one the paper's Section
5.1 classification exists for: a basic measure's accumulator state over
a union of disjoint fact batches equals the *merge* of its states over
each batch (:meth:`~repro.aggregates.base.AggregateFunction.merge`).
Ingestion therefore never rescans old facts for distributive or
algebraic aggregates:

1. the delta batch alone is evaluated by the one-pass sort/scan engine
   with partial-state capture (:class:`_StateCaptureSink`);
2. each non-holistic basic node's delta states are merged into its
   state table — the copy the ingestor kept from its last commit, or
   the persisted one when that copy is missing or stale;
3. merged states are finalized into basic value tables, and every
   composite node is re-derived *from tables* in topological order via
   :mod:`repro.engine.semantics` — region-sized work, no fact access;
4. tables, the appended fact batch, and dirty markers land in one
   atomic store commit.  State tables and basic outputs are staged with
   the delta's keys, so the store re-encodes only those rows and copies
   the rest of the previous segment as bytes (a table the delta does
   not touch is not rewritten); composites are written in full.  A
   failure anywhere before the manifest swap aborts the commit.

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

from repro.errors import ServiceError
from repro.obs import get_registry, get_tracer
from repro.obs.metrics import (
    INGEST_BATCHES,
    INGEST_COMMIT_SECONDS,
    INGEST_RECORDS,
)
from repro.aggregates.base import Kind
from repro.cube.granularity import Granularity
from repro.engine.compile import (
    BasicNode,
    CompiledGraph,
    Node,
    compile_workflow,
)
from repro.engine.semantics import (
    eval_node_from_tables,
    finalize_basic,
    update_basic_tables,
)
from repro.engine.sort_scan import SortScanEngine
from repro.storage.sink import Sink
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


class _StateCaptureSink(Sink):
    """Collects raw basic-node states of a delta run; discards values."""

    wants_states = True

    def __init__(self) -> None:
        self.states: dict[str, dict] = {}

    def emit(self, name: str, key: tuple, value) -> None:
        """Finalized delta values are meaningless pre-merge; drop them."""

    def open_states(self, name: str, granularity: Granularity) -> None:
        self.states.setdefault(name, {})

    def emit_state(self, name: str, key: tuple, state) -> None:
        self.states[name][key] = state


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
        # Non-holistic basic node -> (state segment file, merged states)
        # as of this ingestor's last commit; valid only while the store
        # manifest still names that file.
        self._resident: dict[str, tuple[str, dict]] = {}

    # -- graph helpers -------------------------------------------------

    def _holistic_basics(self) -> list[BasicNode]:
        return [
            node
            for node in self.graph.basic_nodes
            if node.agg.function.kind is Kind.HOLISTIC
        ]

    def _dirty_closure(self, names: Iterable[str]) -> set[str]:
        """Transitive consumers of ``names`` (the deferred subgraph)."""
        by_name: dict[str, Node] = {n.name: n for n in self.graph.nodes}
        closure: set[str] = set()
        frontier = [by_name[name] for name in names if name in by_name]
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
        """Fill ``node_tables`` for every composite not in ``skip``.

        Nodes are visited in the graph's topological order, so each
        composite's inputs are already present.  Composites in ``skip``
        (the dirty closure) are deferred to resolution.
        """
        for node in self.graph.nodes:
            if isinstance(node, BasicNode) or node.name in skip:
                continue
            node_tables[node.name] = eval_node_from_tables(
                node, node_tables
            )

    @staticmethod
    def _output_rows(node_tables, node, out_filter) -> dict:
        rows = node_tables[node.name]
        if out_filter is None:
            return rows
        return {
            key: value
            for key, value in rows.items()
            if out_filter(key, value)
        }

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
            capture = _StateCaptureSink()
            self._engine.evaluate(delta, self.graph, sink=capture)
        fire(FP_DELTA_EVAL)

        # The resident states leave ``self`` for the fold: merging
        # mutates them (HyperLogLog registers in place), so only a
        # commit that returns may put them back.
        resident, self._resident = self._resident, {}
        commit = self.store.begin()
        report = IngestReport(generation=0, records=len(delta))
        try:
            with tracer.span("fold", cat="service"):
                merged_tables = self._fold(capture, resident, commit, report)
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
        states = self.store.manifest["states"]
        self._resident = {
            name: (states[name]["file"], table)
            for name, table in merged_tables.items()
        }
        fire(FP_POST_COMMIT)
        return report

    def _fold(
        self, capture: _StateCaptureSink, resident: dict,
        commit: StoreCommit, report: IngestReport,
    ) -> dict[str, dict]:
        """Steps 1-4: stage every table the delta changes; returns the
        merged state tables."""
        # 1. Merge delta states into stored states (non-holistic),
        #    or mark affected regions dirty (holistic).  A state table
        #    is read from disk only when the resident copy is missing
        #    or no longer the committed one.
        merged_tables: dict[str, dict] = {}
        changed: dict[str, Iterable[tuple]] = {}
        stored_states = self.store.manifest["states"]
        for node in self.graph.basic_nodes:
            agg = node.agg.function
            delta_states = capture.states.get(node.name, {})
            if agg.kind is Kind.HOLISTIC:
                commit.mark_dirty(node.name, delta_states.keys())
                continue
            held = resident.get(node.name)
            info = stored_states.get(node.name)
            if held is not None and info and held[0] == info["file"]:
                table = held[1]
            elif info:
                table = self.store.read_table(node.name, kind="states")
            else:
                table = {}
            for key, delta_state in delta_states.items():
                if key in table:
                    table[key] = agg.merge(table[key], delta_state)
                else:
                    table[key] = delta_state
            merged_tables[node.name] = table
            changed[node.name] = delta_states.keys()
            commit.put_states(
                node.name, node.granularity, table, agg_name=agg.name,
                changed=changed[node.name],
            )
            report.merged_nodes.append(node.name)

        # 2. The deferred subgraph: every holistic basic node (its
        #    full table is not materializable from states) plus all
        #    transitive consumers.  Prior unresolved dirt carries
        #    over through the commit's dirty bookkeeping.
        holistic_names = [node.name for node in self._holistic_basics()]
        closure = self._dirty_closure(holistic_names)
        report.dirty_nodes = sorted(holistic_names)

        # 3. Finalize merged basics and re-derive composites from
        #    tables — no fact rescan on this path.
        node_tables: dict[str, dict] = {
            name: finalize_basic(self._node(name), table)
            for name, table in merged_tables.items()
        }
        self._derive_composites(node_tables, skip=closure)

        # 4. Refresh servable outputs; defer those in the closure.  A
        #    basic output changes only at the delta's keys (a filtered
        #    one may drop them), so its segment is spliced; composites
        #    are written in full.
        for out_name, (node, out_filter) in self.graph.outputs.items():
            if node.name in closure:
                commit.mark_measure_dirty(out_name)
                report.deferred_measures.append(out_name)
                continue
            commit.put_values(
                out_name,
                node.granularity,
                self._output_rows(node_tables, node, out_filter),
                changed=changed.get(node.name),
            )
            report.updated_measures.append(out_name)
        return merged_tables

    def _node(self, name: str) -> Node:
        for node in self.graph.nodes:
            if node.name == name:
                return node
        raise ServiceError(f"graph has no node {name!r}")

    # -- lazy resolution -----------------------------------------------

    def resolve(self) -> bool:
        """Recompute deferred (holistic-dependent) measures, if any.

        Holistic basic nodes are recomputed in a single scan of the
        store's fact log; everything downstream is re-derived from
        tables.  Distributive/algebraic basics are *never* recomputed
        here — their finalized tables come from the persisted states.
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
        for record in facts.scan():
            update_basic_tables(record, pairs)

        node_tables: dict[str, dict] = {}
        for node, raw in pairs:
            node_tables[node.name] = finalize_basic(node, raw)
        for node in self.graph.basic_nodes:
            if node.agg.function.kind is Kind.HOLISTIC:
                continue
            states = self.store.read_table(node.name, kind="states")
            node_tables[node.name] = finalize_basic(node, states)
        self._derive_composites(node_tables, skip=set())

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
        return True
