"""The single-scan algorithm (Section 5.1, following Johnson &
Chatziantoniou [19]).

One unsorted pass over the raw dataset maintains a hash table per basic
measure simultaneously; afterwards, composite measures are evaluated in
topological order from the completed tables.  No sort is paid — which
makes this the fastest engine when everything fits in memory (Figure
7(a)) — but *nothing* can be flushed early, so memory grows with the
number of distinct regions and the engine fails on large datasets
(Figure 6(a), where the paper only shows the 2M point).
"""

from __future__ import annotations

import time

from repro.errors import MemoryBudgetExceeded
from repro.engine.batch import BasicBatchUpdater
from repro.engine.compile import BasicNode, CombineNode, CompiledGraph
from repro.engine.interfaces import Engine, EvalStats
from repro.engine.semantics import (
    eval_combine,
    eval_composite,
    finalize_basic,
    update_basic_tables,
)
from repro.storage.columnar import resolve_batch_size
from repro.storage.sink import Sink
from repro.storage.table import Dataset


#: How often (in records) the scalar fill checks a memory budget.
BUDGET_CHECK_INTERVAL = 4096


def fill_basic_tables(
    dataset: Dataset,
    basic_state: list[tuple[BasicNode, dict]],
    batch_size: int,
    budget: int | None = None,
) -> int:
    """One unsorted scan of ``dataset`` into every basic node's hash
    table of accumulator states; returns the rows scanned.

    ``batch_size > 0`` hash-groups columnar batches
    (:class:`~repro.engine.batch.BasicBatchUpdater`), ``0`` folds one
    record at a time.  With a ``budget``, exceeding that many resident
    entries raises :class:`~repro.errors.MemoryBudgetExceeded` (checked
    per batch, or every :data:`BUDGET_CHECK_INTERVAL` records, and at
    the end).
    """

    def check() -> None:
        resident = sum(len(table) for __, table in basic_state)
        if resident > budget:
            raise MemoryBudgetExceeded(
                resident, budget, where="single-scan basic tables"
            )

    rows = 0
    if batch_size > 0:
        updaters = [
            BasicBatchUpdater(node, table) for node, table in basic_state
        ]
        for batch in dataset.scan_batches(batch_size):
            for updater in updaters:
                updater.apply(batch)
            rows += len(batch)
            if budget is not None:
                check()
    else:
        for record in dataset.scan():
            update_basic_tables(record, basic_state)
            rows += 1
            if budget is not None and rows % BUDGET_CHECK_INTERVAL == 0:
                check()
    if budget is not None:
        check()
    return rows


class SingleScanEngine(Engine):
    """One unsorted scan; all hash tables resident until the end.

    Args:
        memory_budget_entries: Optional cap on the total number of
            resident hash-table entries; exceeding it raises
            :class:`~repro.errors.MemoryBudgetExceeded`, modelling the
            paper's observation that the single-scan algorithm "slows
            down significantly due to insufficient memory".  The check
            runs during the scan (basic tables) and after each
            composite materialization.
        batch_size: Rows per columnar batch for the scan.  ``None``
            (default) auto-selects — the columnar default when numpy is
            available, scalar otherwise; ``0`` forces the row-at-a-time
            scalar path.  Both paths produce bit-identical tables (see
            :mod:`repro.engine.batch`).
    """

    name = "single-scan"

    def __init__(
        self,
        memory_budget_entries: int | None = None,
        batch_size: int | None = None,
    ) -> None:
        self.memory_budget_entries = memory_budget_entries
        self.batch_size = batch_size

    def _run(
        self,
        dataset: Dataset,
        graph: CompiledGraph,
        sink: Sink,
        stats: EvalStats,
    ) -> None:
        budget = self.memory_budget_entries
        batch_size = resolve_batch_size(self.batch_size)
        stats.batched = batch_size > 0
        stats.batch_size = batch_size
        basic_state = [
            (node, {}) for node in graph.nodes if isinstance(node, BasicNode)
        ]

        scan_started = time.perf_counter()
        stats.rows_scanned = fill_basic_tables(
            dataset, basic_state, batch_size, budget
        )
        stats.scans = 1

        tables: dict[str, dict] = {
            node.name: finalize_basic(node, raw)
            for node, raw in basic_state
        }
        del basic_state

        def resident_entries() -> int:
            return sum(len(table) for table in tables.values())

        for node in graph.nodes:
            if isinstance(node, BasicNode):
                continue
            inputs = {
                arc.src.name: tables[arc.src.name] for arc in node.in_arcs
            }
            if isinstance(node, CombineNode):
                tables[node.name] = eval_combine(node, inputs)
            else:
                tables[node.name] = eval_composite(node, inputs)
            if budget is not None and resident_entries() > budget:
                raise MemoryBudgetExceeded(
                    resident_entries(), budget, where=f"node {node.name}"
                )
        stats.scan_seconds = time.perf_counter() - scan_started
        stats.peak_entries = resident_entries()

        for name, (node, out_filter) in graph.outputs.items():
            for key, value in tables[node.name].items():
                if out_filter is None or out_filter(key, value):
                    sink.emit(name, key, value)
