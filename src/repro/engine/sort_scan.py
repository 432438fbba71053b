"""The one-pass Sort/Scan engine (Section 5.3, Tables 7 and 8).

The dataset is sorted by a chosen sort key and scanned once.  Every
record updates the basic-measure hash tables; whenever the scan position
advances, a *flush cascade* runs through the evaluation graph in
topological order: each node's finalized entries (per the watermark
predicates of :mod:`repro.engine.watermark`) are finalized, emitted,
propagated along their computational arcs, and evicted.  This is what
keeps the memory footprint bounded by the plan's slack instead of the
dataset's size.
"""

from __future__ import annotations

import time

from repro.errors import EvaluationError, MemoryBudgetExceeded
from repro.algebra.conditions import (
    ChildParent,
    Lags,
    ParentChild,
    SelfMatch,
    Sibling,
)
from repro.cube.order import SortKey
from repro.engine.batch import BasicBatchUpdater
from repro.engine.compile import (
    Arc,
    BasicNode,
    CombineNode,
    CompiledGraph,
    CompositeNode,
    Node,
)
from repro.engine.interfaces import Engine, EvalStats
from repro.engine.watermark import NodeChecker, build_node_specs
from repro.obs import get_tracer
from repro.obs.profile import NodeProfile
from repro.storage.columnar import (
    lift_columns,
    map_column,
    np,
    resolve_batch_size,
    row_keys,
    sorted_runs,
)
from repro.storage.external_sort import DEFAULT_RUN_SIZE, sort_dataset
from repro.storage.sink import Sink
from repro.storage.table import Dataset, InMemoryDataset
from repro.testkit.failpoints import fire, register

_MISSING = object()
#: ``finalize`` result of an entry that produces no output row.
_SKIP = object()

#: Shortest chunk the batched scan stages as sorted segments.  The
#: array round trip costs a fixed ~25 µs per node and cascade more than
#: the hash-table path and saves ~3 µs per entry that never enters the
#: ``dict``: with near-distinct keys (Q1) the two cross at about twelve
#: rows, and shorter chunks — a few-hundred-record ingest delta spread
#: over its trigger regions — fold straight into the table.
_MIN_STAGED_ROWS = 16

FP_CASCADE = register(
    "sortscan.cascade", "engine",
    "at the start of every flush cascade of the one-pass scan",
)
FP_FINAL_FLUSH = register(
    "sortscan.final-flush", "engine",
    "at the final (end-of-scan) flush cascade",
)


def default_sort_key(graph: CompiledGraph) -> SortKey:
    """Heuristic sort key: every referenced dimension at the finest
    level any node uses, in schema order.

    The optimizer (:mod:`repro.optimizer`) searches for better keys;
    this default guarantees a *correct* streaming plan for any graph.
    """
    schema = graph.schema
    finest = [d.all_level for d in schema.dimensions]
    for node in graph.nodes:
        for dim, level in enumerate(node.granularity.levels):
            finest[dim] = min(finest[dim], level)
    parts = [
        (dim, level)
        for dim, level in enumerate(finest)
        if level != schema.dimensions[dim].all_level
    ]
    if not parts:
        # Every measure is global; any order works.
        parts = [(0, 0)]
    return SortKey(schema, parts)


class _RuntimeNode:
    """Per-node runtime state for one sort/scan pass."""

    __slots__ = (
        "node",
        "kind",
        "table",
        "parents",
        "checker",
        "outputs",
        "flushed_keys",
        "src_levels",
        "touched",
        "prof",
        "updater",
        "finalize",
        "deliveries",
    )

    def __init__(self, node: Node, checker: NodeChecker, outputs) -> None:
        self.node = node
        self.table: dict = {}
        self.parents: dict | None = None
        self.checker = checker
        self.outputs = outputs  # list of (name, out_filter)
        self.flushed_keys: set | None = None
        self.src_levels: tuple | None = None
        #: Set when upstream delivered entries since the last flush scan.
        self.touched = False
        #: Per-node profile counters (``profile=True`` runs only).
        self.prof: NodeProfile | None = None
        #: Folds fact records into ``table`` (basic nodes only).
        self.updater: BasicBatchUpdater | None = None
        #: ``(key, entry) -> value | _SKIP`` and one :class:`_Delivery`
        #: per out arc — compiled once per run (``_run``).
        self.finalize = None
        self.deliveries: list[_Delivery] = []
        if isinstance(node, BasicNode):
            self.kind = "basic"
        elif isinstance(node, CombineNode):
            self.kind = "combine"
        elif isinstance(node, CompositeNode):
            if node.cond is None:
                self.kind = "rollup"
            elif isinstance(node.cond, ParentChild):
                self.kind = "pc-match"
                self.parents = {}
                self.src_levels = node.values_arc.src.granularity.levels
            else:
                self.kind = "match"
        else:  # pragma: no cover - compile produces only these kinds
            raise EvaluationError(f"unknown node type {node!r}")

    def entries(self) -> int:
        total = 0
        if self.updater is not None:
            # Segments staged in arrays are resident state too (asked
            # first: grouping them drains the table's entries in).
            total = self.updater.staged_entries()
        total += len(self.table)
        if self.parents is not None:
            total += len(self.parents)
        return total


class _CascadeClock:
    """Where the scan stands between cascades: the trigger prefix the
    last cascade ran at and the rows folded since."""

    __slots__ = ("trigger", "since")

    def __init__(self) -> None:
        self.trigger: tuple | None = None
        self.since = 0


class _Delivery:
    """One out arc with its per-entry work resolved once per run.

    ``deliver(key, value)`` carries one finalized entry across the arc.
    ``columnar`` marks arcs whose destination key is a pure lift of the
    source key (roll-ups and child→parent matches, unfiltered): a
    whole sorted run of entries crosses those as arrays
    (:meth:`SortScanEngine._deliver_columns`).
    """

    __slots__ = ("arc", "dst", "deliver", "columnar")

    def __init__(self, arc: Arc, dst: _RuntimeNode) -> None:
        self.arc = arc
        self.dst = dst
        self.deliver = _make_deliver(arc, dst)
        self.columnar = arc.filter is None and _lifts(arc, dst)


def _lifts(arc: Arc, dst: _RuntimeNode) -> bool:
    """Is the destination key just the source key generalized?"""
    return arc.role == "values" and (
        dst.kind == "rollup" or isinstance(arc.cond, ChildParent)
    )


def _late(key: tuple, what) -> EvaluationError:
    return EvaluationError(f"late update for finalized key {key} of {what}")


def _update_plain(dst: _RuntimeNode, key: tuple, value, agg) -> None:
    if dst.flushed_keys is not None and key in dst.flushed_keys:
        raise _late(key, repr(dst.node.name))
    table = dst.table
    state = table.get(key, _MISSING)
    if state is _MISSING:
        state = agg.create()
    table[key] = agg.update(state, value)


def _update_match(dst: _RuntimeNode, key: tuple, value, agg) -> None:
    if dst.flushed_keys is not None and key in dst.flushed_keys:
        raise _late(key, repr(dst.node.name))
    entry = dst.table.get(key)
    if entry is None:
        entry = [False, agg.create()]
        dst.table[key] = entry
    entry[1] = agg.update(entry[1], value)


def _make_deliver(arc: Arc, dst: _RuntimeNode):
    """Compile ``arc`` into a ``(key, value) -> None`` closure."""
    node = dst.node
    table = dst.table
    role = arc.role
    cond = arc.cond
    if role == "keys":
        create = node.agg.function.create

        def carry(key, value):
            entry = table.get(key)
            if entry is None:
                table[key] = [True, create()]
            else:
                entry[0] = True

    elif role == "combine":
        index, width = arc.index, node.num_inputs

        def carry(key, value):
            entry = table.get(key)
            if entry is None:
                entry = [_MISSING] * width
                table[key] = entry
            entry[index] = value

    else:
        agg = node.agg.function
        granularity, src_granularity = node.granularity, arc.src.granularity
        if _lifts(arc, dst):
            lift = granularity.lift_fn(src_granularity)

            def carry(key, value):
                _update_plain(dst, lift(key), value, agg)

        elif isinstance(cond, SelfMatch):

            def carry(key, value):
                _update_match(dst, key, value, agg)

        elif isinstance(cond, ParentChild):
            parents = dst.parents

            def carry(key, value):
                parents[key] = value

        elif isinstance(cond, (Sibling, Lags)):
            affected = cond.affected_keys

            def carry(key, value):
                for out_key in affected(key, granularity, src_granularity):
                    _update_match(dst, out_key, value, agg)

        else:
            raise EvaluationError(f"unsupported condition {cond!r}")

    arc_filter = arc.filter
    prof = dst.prof
    guarded = dst.flushed_keys if role != "values" else None

    def deliver(key, value):
        if arc_filter is not None and not arc_filter(key, value):
            return
        dst.touched = True
        if prof is not None:
            prof.rows_in += 1
        if guarded is not None and key in guarded:
            raise _late(key, f"{arc!r}")
        carry(key, value)

    return deliver


def _make_finalize(rt: _RuntimeNode):
    """Compile ``rt``'s ``(key, entry) -> value | _SKIP``."""
    node = rt.node
    kind = rt.kind
    if kind == "combine":
        fn = node.fn

        def finalize(key, slots):
            if slots[0] is _MISSING:
                return _SKIP
            return fn(
                *[None if slot is _MISSING else slot for slot in slots]
            )

        return finalize
    agg = node.agg.function
    finish = agg.finalize
    if kind in ("basic", "rollup"):
        return lambda key, entry: finish(entry)
    if kind == "match":
        return lambda key, entry: finish(entry[1]) if entry[0] else _SKIP
    # pc-match: the value is the parent's, looked up at finalization.
    ancestor_of = node.cond.ancestor
    granularity = node.granularity
    src_granularity = node.values_arc.src.granularity
    parents = rt.parents

    def finalize(key, entry):
        if not entry[0]:
            return _SKIP
        ancestor = ancestor_of(key, granularity, src_granularity)
        state = agg.create()
        if ancestor in parents:
            state = agg.update(state, parents[ancestor])
        return finish(state)

    return finalize


def _as_column(values: list):
    """``values`` as a float64/int64 array when ``update_many`` folds
    that bit-identically to the values themselves — uniformly Python
    floats, or ints small enough that no int64 running total can wrap
    where a Python int would grow — else the list unchanged."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return np.asarray(values)
    if kinds == {int}:
        try:
            column = np.asarray(values, dtype=np.int64)
        except OverflowError:
            return values
        if -(2**31) < column.min() and column.max() < 2**31:
            return column
    return values


class SortScanEngine(Engine):
    """One-pass sort/scan with watermark-driven early flushing.

    Args:
        sort_key: The pass's sort key; when omitted, a safe default is
            derived from the graph (see :func:`default_sort_key`), or —
            if ``optimize`` is True — the brute-force optimizer picks
            the estimated-minimal-footprint key (Section 6).
        optimize: Search sort orders with the optimizer when no key is
            given.
        run_size: In-memory run size for the external sort; datasets at
            most this large sort fully in memory.
        memory_budget_entries: Optional hard cap on resident entries
            (hash tables, parent side tables, and the batched scan's
            staged segments), checked at every cascade; exceeding
            raises :class:`~repro.errors.MemoryBudgetExceeded`.
        cascade_prefix: How many leading sort-key components trigger a
            flush cascade when they change.  Watermark bounds are
            consistent functions of the scan position, so flushing at a
            *subset* of position changes is always correct — it merely
            lets a little more state accumulate between cascades in
            exchange for far less per-record bookkeeping.  ``1`` (the
            default) cascades when the most significant component
            advances; raise it to flush more eagerly.
        max_records_between_cascades: Safety valve forcing a cascade
            after this many records even if the trigger prefix never
            changes (bounds memory under extreme key skew).
        assert_no_late_updates: Testing hook — track every flushed key
            and raise if any update arrives for a finalized entry.
            This turns the watermark-safety theorem into a runtime
            assertion (used by the property-based tests).
        profile: Collect one :class:`~repro.obs.profile.NodeProfile`
            row per graph node (rows in/out, flush counts and seconds,
            per-node peaks, watermark advances) into ``stats.nodes``.
            Off by default; adds one branch per delivery when on.
        batch_size: Rows per columnar batch for the sorted scan.
            ``None`` (default) auto-selects — the columnar default when
            numpy is available, scalar otherwise; ``0`` forces the
            row-at-a-time scalar path.  The batched scan sorts with a
            stable ``numpy.lexsort`` (the same permutation as the
            scalar stable sort), cascades at the scalar scan's
            positions, and in between groups each basic node's rows
            into sorted segments whose final ones are flushed as
            arrays (see :meth:`_scan_batches`).  Results are
            bit-identical to the scalar path (see
            :mod:`repro.engine.batch`).
    """

    name = "sort-scan"

    def __init__(
        self,
        sort_key: SortKey | None = None,
        optimize: bool = False,
        run_size: int = DEFAULT_RUN_SIZE,
        memory_budget_entries: int | None = None,
        assert_no_late_updates: bool = False,
        cascade_prefix: int = 1,
        max_records_between_cascades: int = 4096,
        profile: bool = False,
        batch_size: int | None = None,
    ) -> None:
        self.sort_key = sort_key
        self.optimize = optimize
        self.run_size = run_size
        self.memory_budget_entries = memory_budget_entries
        self.assert_no_late_updates = assert_no_late_updates
        self.cascade_prefix = max(1, cascade_prefix)
        self.max_records_between_cascades = max_records_between_cascades
        self.profile = profile
        self.batch_size = batch_size

    # -- top level ---------------------------------------------------------

    def _run(
        self,
        dataset: Dataset,
        graph: CompiledGraph,
        sink: Sink,
        stats: EvalStats,
    ) -> None:
        tracer = get_tracer()
        with tracer.span("plan", cat="engine") as plan_span:
            sort_key = self.sort_key
            if sort_key is None:
                if self.optimize:
                    from repro.optimizer.brute_force import best_sort_key

                    sort_key = best_sort_key(graph)
                else:
                    sort_key = default_sort_key(graph)
            stats.notes = f"sort_key={sort_key!r}"
            plan_span.set(sort_key=repr(sort_key), nodes=len(graph.nodes))

            specs = build_node_specs(graph, sort_key)
            runtime: dict[str, _RuntimeNode] = {}
            for node in graph.nodes:
                checker = NodeChecker(node, specs[node.name])
                outputs = [
                    (name, graph.outputs[name][1])
                    for name in graph.output_names_of(node)
                ]
                rt = _RuntimeNode(node, checker, outputs)
                if self.assert_no_late_updates:
                    rt.flushed_keys = set()
                if self.profile:
                    rt.prof = NodeProfile(name=node.name, kind=rt.kind)
                runtime[node.name] = rt
        topo_runtime = [runtime[node.name] for node in graph.nodes]
        for rt in topo_runtime:
            rt.finalize = _make_finalize(rt)
            rt.deliveries = [
                _Delivery(arc, runtime[arc.dst.name])
                for arc in rt.node.out_arcs
            ]
        if sink.wants_states:
            # Partial-state capture (the measure service's bootstrap
            # hook): announce every basic node so the sink can set up
            # one state table per fact-facing measure.
            for node in graph.basic_nodes:
                sink.open_states(node.name, node.granularity)
        updaters = []
        for rt in topo_runtime:
            if rt.kind == "basic":
                rt.updater = BasicBatchUpdater(
                    rt.node, rt.table, rt.flushed_keys, rt.prof
                )
                updaters.append(rt.updater)
        clock = _CascadeClock()

        # ---- sort phase ---------------------------------------------------
        batch_size = resolve_batch_size(self.batch_size)
        stats.batched = batch_size > 0
        stats.batch_size = batch_size
        mapper = sort_key.record_mapper()
        sort_started = time.perf_counter()
        with tracer.span("sort", cat="engine"):
            ordered, cleanup = self._sorted_input(
                dataset, sort_key, mapper, batch_size
            )
        stats.sort_seconds = time.perf_counter() - sort_started

        # ---- scan phase ---------------------------------------------------
        scan_started = time.perf_counter()
        scan_span = tracer.span("scan", cat="engine")
        scan_span.__enter__()
        try:
            if batch_size > 0:
                rows = self._scan_batches(
                    ordered, sort_key, mapper, clock, updaters,
                    topo_runtime, sink, stats,
                )
            else:
                rows = self._scan_records(
                    ordered, mapper, clock, updaters, topo_runtime,
                    sink, stats,
                )
            stats.rows_scanned = rows
            stats.scans = 1
            self._cascade(topo_runtime, None, sink, stats, final=True)
        finally:
            cleanup()
            scan_span.set(rows=stats.rows_scanned)
            scan_span.__exit__(None, None, None)
        stats.scan_seconds = time.perf_counter() - scan_started
        if self.profile:
            stats.nodes.extend(
                rt.prof.to_dict() for rt in topo_runtime
            )

    def _scan_records(
        self,
        records,
        mapper,
        clock: _CascadeClock,
        updaters: list[BasicBatchUpdater],
        topo_runtime: list[_RuntimeNode],
        sink: Sink,
        stats: EvalStats,
    ) -> int:
        """The row-at-a-time sorted scan (the scalar engine, and the
        batched scan's fallback for list-backed batches): cascade when
        the trigger prefix changes or the safety valve fills, then fold
        the record into every basic node."""
        prefix = self.cascade_prefix
        force_every = self.max_records_between_cascades
        trigger, since = clock.trigger, clock.since
        rows = 0
        for record in records:
            pos = mapper(record)
            since += 1
            if pos[:prefix] != trigger or since >= force_every:
                if trigger is not None:
                    self._cascade(
                        topo_runtime, pos, sink, stats, final=False
                    )
                trigger = pos[:prefix]
                since = 0
            for updater in updaters:
                updater.apply_record(record)
            rows += 1
        clock.trigger, clock.since = trigger, since
        return rows

    def _scan_batches(
        self,
        batches,
        sort_key: SortKey,
        mapper,
        clock: _CascadeClock,
        updaters: list[BasicBatchUpdater],
        topo_runtime: list[_RuntimeNode],
        sink: Sink,
        stats: EvalStats,
    ) -> int:
        """The batched sorted scan: hold each chunk of rows, cascade
        between chunks.

        Chunks are the scalar loop's: a trigger region, cut by
        ``max_records_between_cascades``, so cascades fall on exactly
        the scalar scan's positions — the footprint between cascades
        and the order every downstream entry accumulates in are the
        scalar engine's.  The cascade that follows a chunk groups it
        once per basic node into sorted segments
        (:meth:`BasicBatchUpdater.stage`) and flushes the ones it finds
        final straight from the arrays.
        """
        prefix = self.cascade_prefix
        force_every = self.max_records_between_cascades
        schema = sort_key.schema
        parts = sort_key.parts
        # Nothing of a never-final node leaves before the end of the
        # scan: its rows always fold straight into the table.
        stageable = [
            not rt.checker.never
            for rt in topo_runtime
            if rt.updater is not None
        ]
        rows = 0
        for batch in batches:
            n = len(batch)
            if n == 0:
                continue
            if not batch.vector:
                # Rows that refused the columnar layout (NULL measures).
                rows += self._scan_records(
                    batch.python_rows(), mapper, clock, updaters,
                    topo_runtime, sink, stats,
                )
                continue
            part_cols = [
                map_column(
                    schema.dimensions[dim].hierarchy,
                    0,
                    level,
                    batch.columns[dim],
                )
                for dim, level in parts
            ]
            trigger_cols = part_cols[:prefix]
            change = np.zeros(n, dtype=bool)
            change[0] = True
            for col in trigger_cols:
                change[1:] |= col[1:] != col[:-1]
            bounds = np.flatnonzero(change).tolist()
            bounds.append(n)
            for i in range(len(bounds) - 1):
                start, end = bounds[i], bounds[i + 1]
                trigger = tuple(
                    int(col[start]) for col in trigger_cols
                )
                at = start
                while at < end:
                    cascaded = (
                        trigger != clock.trigger
                        or clock.since >= force_every
                    )
                    if cascaded:
                        if clock.trigger is not None:
                            pos = tuple(
                                int(col[at]) for col in part_cols
                            )
                            self._cascade(
                                topo_runtime, pos, sink, stats, final=False
                            )
                        clock.trigger = trigger
                        clock.since = 0
                    take = min(end - at, force_every - clock.since)
                    sub = batch.slice(at, at + take)
                    hold = cascaded and take >= _MIN_STAGED_ROWS
                    for updater, stages in zip(updaters, stageable):
                        # Rows that follow a cascade are held for the
                        # next one; rows extending a chunk fold into
                        # the table (after the rows held before them).
                        if hold and stages:
                            updater.stage(sub)
                        else:
                            updater.apply(sub)
                    clock.since += take
                    at += take
            rows += n
        return rows

    def _fits_in_memory(self, dataset: Dataset) -> bool:
        try:
            return len(dataset) <= self.run_size
        except (TypeError, NotImplementedError):
            return False

    def _sorted_input(
        self,
        dataset: Dataset,
        sort_key: SortKey,
        mapper,
        batch_size: int,
    ):
        """Sort the dataset; returns (batches or records, cleanup).

        The batched scan gets ``batch_size``-row batches of the
        columnar external sort (:func:`sort_dataset`: a stable sort of
        the sort-key part columns, in memory when the input fits one
        run) — the identical order to the scalar path's stable
        ``sorted(records, key=mapper)``, which the scalar scan keeps
        for inputs that fit in memory and otherwise reads from the
        same sort as records.
        """
        if batch_size == 0 and self._fits_in_memory(dataset):
            records = (
                dataset.records
                if isinstance(dataset, InMemoryDataset)
                else dataset.scan()
            )
            return sorted(records, key=mapper), lambda: None
        ordered = sort_dataset(dataset, sort_key, run_size=self.run_size)
        if batch_size > 0:
            return ordered.batches(batch_size), ordered.close
        return ordered.records(), ordered.close

    # -- flush cascade ------------------------------------------------------

    def _cascade(
        self,
        topo_runtime: list[_RuntimeNode],
        pos: tuple | None,
        sink: Sink,
        stats: EvalStats,
        final: bool,
    ) -> None:
        fire(FP_CASCADE)
        if final:
            fire(FP_FINAL_FLUSH)
        resident = 0
        for rt in topo_runtime:
            entries = rt.entries()
            resident += entries
            if rt.prof is not None:
                rt.prof.peak_entries = max(rt.prof.peak_entries, entries)
        stats.peak_entries = max(stats.peak_entries, resident)
        budget = self.memory_budget_entries
        if budget is not None and resident > budget:
            raise MemoryBudgetExceeded(
                resident, budget, where="sort-scan cascade"
            )

        tracer = get_tracer()
        flush_started = (
            time.perf_counter() if tracer.enabled else 0.0
        )
        flushed_before = stats.flushed_entries
        for rt in topo_runtime:
            if final:
                self._flush_node(rt, sink, stats, final)
                continue
            changed = rt.checker.refresh(pos)
            if changed and rt.prof is not None:
                rt.prof.bound_advances += 1
            # Unchanged bounds + no deliveries since the last scan means
            # the previous flush already drained everything finalizable.
            if not changed and not rt.touched:
                continue
            rt.touched = False
            self._flush_node(rt, sink, stats, final)
        if tracer.enabled:
            tracer.add_complete(
                "flush",
                cat="engine",
                start_perf=flush_started,
                duration=time.perf_counter() - flush_started,
                args={
                    "final": final,
                    "emitted": stats.flushed_entries - flushed_before,
                },
            )

    def _flush_node(
        self,
        rt: _RuntimeNode,
        sink: Sink,
        stats: EvalStats,
        final: bool,
    ) -> None:
        prof = rt.prof
        if prof is None:
            self._flush_node_inner(rt, sink, stats, final)
            return
        prof.flushes += 1
        emitted_before = stats.flushed_entries
        started = time.perf_counter()
        try:
            self._flush_node_inner(rt, sink, stats, final)
        finally:
            prof.flush_seconds += time.perf_counter() - started
            prof.rows_out += stats.flushed_entries - emitted_before

    def _flush_node_inner(
        self,
        rt: _RuntimeNode,
        sink: Sink,
        stats: EvalStats,
        final: bool,
    ) -> None:
        if rt.updater is not None and rt.updater.staged_entries():
            # Staged segments: the table was drained into them.
            self._flush_segments(rt, sink, stats, final)
            return
        table = rt.table
        if not table:
            self._gc_parents(rt, final)
            return
        if final:
            ready = sorted(table.keys())
        else:
            checker = rt.checker
            if checker.never:
                return
            # The whole resident table must be tested: the plan-time
            # specs promise downstream nodes that *every* entry below
            # the bound has been flushed, so none may be skipped.  The
            # table is small by construction (bounded by the plan's
            # slack), which keeps this cheap.
            ready = sorted(
                key for key in table if checker.is_final(key)
            )
            if not ready:
                self._gc_parents(rt, final)
                return

        name = rt.node.name
        capture_states = sink.wants_states and rt.kind == "basic"
        finalize = rt.finalize
        delivers = [delivery.deliver for delivery in rt.deliveries]
        emitted = 0
        for key in ready:
            entry = table.pop(key)
            if rt.flushed_keys is not None:
                rt.flushed_keys.add(key)
            if capture_states:
                # The entry *is* the accumulator state for basic nodes;
                # hand it over before finalization (which never mutates).
                sink.emit_state(name, key, entry)
            value = finalize(key, entry)
            if value is _SKIP:
                continue
            emitted += 1
            for output, out_filter in rt.outputs:
                if out_filter is None or out_filter(key, value):
                    sink.emit(output, key, value)
            for deliver in delivers:
                deliver(key, value)
        stats.flushed_entries += emitted
        self._gc_parents(rt, final)

    def _flush_segments(
        self,
        rt: _RuntimeNode,
        sink: Sink,
        stats: EvalStats,
        final: bool,
    ) -> None:
        """Flush a basic node's staged segments as arrays.

        Same observable sequence as the per-entry flush of the same
        entries — ascending key order on every output and every arc —
        but the entries exist only as key columns plus a state list.
        """
        columns, states = rt.updater.flush(
            None if final else rt.checker.final_mask
        )
        count = len(states)
        if not count:
            return
        name = rt.node.name
        columnar = [d for d in rt.deliveries if d.columnar]
        per_entry = [d.deliver for d in rt.deliveries if not d.columnar]
        keys = None
        if (
            per_entry
            or rt.outputs
            or rt.flushed_keys is not None
            or sink.wants_states
        ):
            keys = row_keys(columns, count)
        if rt.flushed_keys is not None:
            rt.flushed_keys.update(keys)
        if sink.wants_states:
            for key, state in zip(keys, states):
                sink.emit_state(name, key, state)
        finish = rt.node.agg.function.finalize
        values = [finish(state) for state in states]
        stats.flushed_entries += count
        for output, out_filter in rt.outputs:
            for key, value in zip(keys, values):
                if out_filter is None or out_filter(key, value):
                    sink.emit(output, key, value)
        if columnar:
            run = _as_column(values)
            for delivery in columnar:
                self._deliver_columns(delivery, columns, run)
        for deliver in per_entry:
            for key, value in zip(keys, values):
                deliver(key, value)

    @staticmethod
    def _deliver_columns(delivery: _Delivery, columns: list, run) -> None:
        """Carry a key-sorted run of entries across a lifting arc.

        ``run`` holds the entries' values (:func:`_as_column`).  The
        keys are lifted to the destination granularity as columns and
        grouped with a stable sort, so each destination entry folds its
        contributions in ascending source-key order — the order
        :meth:`_Delivery.deliver` would have applied them one by one —
        through one ``update_many``.
        """
        dst = delivery.dst
        node = dst.node
        agg = node.agg.function
        count = len(run)
        dst.touched = True
        if dst.prof is not None:
            dst.prof.rows_in += count
        lifted = lift_columns(
            node.granularity, delivery.arc.src.granularity, columns
        )
        key_dims = node.granularity.key_dims
        spans, groups = [(0, count)], 1
        if key_dims:
            order, sorted_keys, starts, ends = sorted_runs(
                [lifted[dim] for dim in key_dims], count
            )
            for dim, col in zip(key_dims, sorted_keys):
                lifted[dim] = col[starts]
            if isinstance(run, list):
                run = [run[row] for row in order.tolist()]
            else:
                run = run[order]
            spans, groups = zip(starts.tolist(), ends.tolist()), len(starts)
        table = dst.table
        flushed = dst.flushed_keys
        for key, (start, end) in zip(row_keys(lifted, groups), spans):
            if flushed is not None and key in flushed:
                raise _late(key, repr(node.name))
            state = table.get(key, _MISSING)
            if state is _MISSING:
                state = agg.create()
            table[key] = agg.update_many(state, run[start:end])

    def _gc_parents(self, rt: _RuntimeNode, final: bool) -> None:
        if rt.parents is None or not rt.parents:
            return
        if final:
            rt.parents.clear()
            return
        checker = rt.checker
        src_levels = rt.src_levels
        drop = [
            key
            for key in rt.parents
            if checker.is_final_at_levels(key, src_levels)
        ]
        for key in drop:
            del rt.parents[key]
