"""Reference node semantics over fully materialized tables.

These functions define what each evaluation-graph node *means*, given
complete input tables: they are direct transliterations of the SQL
equivalents in Tables 2-4 of the paper.  The relational baseline, the
single-scan engine, and the multi-pass engine's cross-pass combination
step all evaluate composites through this module, so the streaming
engine has a single, simple definition of correctness to match.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import product
from operator import itemgetter

from repro.errors import EvaluationError
from repro.algebra.conditions import (
    ChildParent,
    Lags,
    ParentChild,
    SelfMatch,
    Sibling,
)
from repro.engine.compile import (
    Arc,
    BasicNode,
    CombineNode,
    CompositeNode,
    Node,
)
from repro.storage.table import Dataset


def filtered_items(arc: Arc, table: dict) -> list[tuple[tuple, object]]:
    """Entries of the arc's source table that pass the arc's σ."""
    if arc.filter is None:
        return list(table.items())
    entry_filter = arc.filter
    return [
        (key, value)
        for key, value in table.items()
        if entry_filter(key, value)
    ]


def eval_basic(node: BasicNode, dataset: Dataset) -> dict:
    """One full scan of the fact table for a single basic measure."""
    table: dict = {}
    agg = node.agg.function
    key_of = node.granularity.key_of_record
    record_filter = node.record_filter
    value_index = node.value_index
    for record in dataset.scan():
        if record_filter is not None and not record_filter(record):
            continue
        key = key_of(record)
        value = 1 if value_index is None else record[value_index]
        state = table.get(key)
        if state is None and key not in table:
            state = agg.create()
        table[key] = agg.update(state, value)
    return {key: agg.finalize(state) for key, state in table.items()}


def update_basic_tables(
    record: tuple,
    nodes_state: list[tuple[BasicNode, dict]],
) -> None:
    """Update *all* basic-measure hash tables with one record.

    This is the heart of the single-scan algorithm (Section 5.1): every
    basic measure is maintained simultaneously during one pass.
    """
    for node, table in nodes_state:
        if node.record_filter is not None and not node.record_filter(
            record
        ):
            continue
        key = node.granularity.key_of_record(record)
        value = 1 if node.value_index is None else record[node.value_index]
        agg = node.agg.function
        state = table.get(key)
        if state is None and key not in table:
            state = agg.create()
        table[key] = agg.update(state, value)


def finalize_basic(node: BasicNode, raw_table: dict) -> dict:
    """Finalize a basic node's accumulated states into values."""
    agg = node.agg.function
    return {key: agg.finalize(state) for key, state in raw_table.items()}


_ABSENT = object()
_by_key = itemgetter(0)


class FilteredTable:
    """``σ(table)`` evaluated per lookup: membership and reads of k
    entries cost k filter calls, not a pass over the table."""

    __slots__ = ("table", "keep")

    def __init__(self, table: dict, keep) -> None:
        self.table = table
        self.keep = keep

    def __contains__(self, key) -> bool:
        value = self.table.get(key, _ABSENT)
        return value is not _ABSENT and self.keep(key, value)

    def __getitem__(self, key):
        value = self.table[key]
        if not self.keep(key, value):
            raise KeyError(key)
        return value

    def get(self, key, default=None):
        return self.table[key] if key in self else default

    def __iter__(self):
        keep = self.keep
        return (key for key, value in self.table.items() if keep(key, value))


def _source(arc: Arc, tables: dict[str, dict], cells) -> "dict | FilteredTable":
    """The arc's σ-filtered source for lookups: the table itself when
    unfiltered, a filtered copy for a whole-table evaluation, a lazy
    :class:`FilteredTable` for a cell set."""
    table = tables[arc.src.name]
    if arc.filter is None:
        return table
    if cells is None:
        return dict(filtered_items(arc, table))
    return FilteredTable(table, arc.filter)


def _fold(agg, values: list) -> object:
    return agg.finalize(agg.update_many(agg.create(), values))


def _grouped(node: CompositeNode, tables, cells, members) -> dict:
    """Values-arc entries by generalized key, each group in source-key
    order — so a group folds the same way however its table was built.

    With ``cells``, only the non-empty groups of those cells, read
    through ``members`` (cell -> sorted source keys, see
    :func:`member_index`).
    """
    arc = node.values_arc
    grouped: dict = {}
    if cells is not None:
        source = _source(arc, tables, cells)
        for cell in cells:
            values = [
                source[key] for key in members.get(cell, ()) if key in source
            ]
            if values:
                grouped[cell] = values
        return grouped
    lift = node.granularity.lift_fn(arc.src.granularity)
    items = filtered_items(arc, tables[arc.src.name])
    for key, value in sorted(items, key=_by_key):
        out_key = lift(key)
        group = grouped.get(out_key)
        if group is None:
            grouped[out_key] = [value]
        else:
            group.append(value)
    return grouped


def eval_composite(
    node: CompositeNode, tables: dict[str, dict], cells=None, members=None
) -> dict:
    """Evaluate a roll-up or match join from complete input tables.

    With ``cells`` (output keys), only those cells are evaluated; a
    cell missing from the result has no row.  Roll-ups and child/parent
    joins then read their groups through ``members``, the cell -> source
    keys index of :func:`member_index`.
    """
    values_arc = node.values_arc
    source_gran = values_arc.src.granularity
    agg = node.agg.function

    if node.cond is None:
        # Pure roll-up: GROUP BY the generalized key (Table 2).
        return {
            key: _fold(agg, values)
            for key, values in _grouped(node, tables, cells, members).items()
        }

    keys_arc = node.keys_arc
    if keys_arc is None:
        raise EvaluationError(
            f"match-join node {node.name!r} has no keys arc"
        )
    if cells is None:
        cell_keys = [
            key
            for key, __ in filtered_items(
                keys_arc, tables[keys_arc.src.name]
            )
        ]
    else:
        keys_source = _source(keys_arc, tables, cells)
        cell_keys = [key for key in cells if key in keys_source]

    cond = node.cond
    if isinstance(cond, ChildParent):
        grouped = _grouped(node, tables, cells, members)
        return {
            s_key: _fold(agg, grouped.get(s_key, ())) for s_key in cell_keys
        }

    source = _source(values_arc, tables, cells)
    if isinstance(cond, SelfMatch):
        matched = lambda s_key: (s_key,)
    elif isinstance(cond, ParentChild):
        lift = source_gran.lift_fn(node.granularity)
        matched = lambda s_key: (lift(s_key),)
    elif isinstance(cond, Sibling):
        windows = cond.resolve(node.schema)
        matched = lambda s_key: _neighbor_keys(s_key, windows)
    elif isinstance(cond, Lags):
        offsets = cond.resolve(node.schema)
        matched = lambda s_key: _lag_keys(s_key, offsets)
    else:
        raise EvaluationError(f"unsupported match condition {cond!r}")
    return {
        s_key: _fold(
            agg,
            [source[t_key] for t_key in matched(s_key) if t_key in source],
        )
        for s_key in cell_keys
    }


def _neighbor_keys(s_key: tuple, windows: dict):
    """Enumerate ``T.X ∈ [S.X - before, S.X + after]`` neighbours."""
    dim_ranges = []
    for i, component in enumerate(s_key):
        if i in windows:
            before, after = windows[i]
            lo = max(0, component - before)
            dim_ranges.append(range(lo, component + after + 1))
        else:
            dim_ranges.append((component,))
    return product(*dim_ranges)


def _lag_keys(s_key: tuple, offsets: dict):
    """Enumerate ``T.X = S.X + delta`` neighbours for lag sets."""
    dim_values = []
    for i, component in enumerate(s_key):
        if i in offsets:
            dim_values.append(
                sorted({component + delta for delta in offsets[i]})
            )
        else:
            dim_values.append((component,))
    return product(*dim_values)


def eval_combine(
    node: CombineNode, tables: dict[str, dict], cells=None
) -> dict:
    """Evaluate a combine join (Table 4's chained left outer joins);
    with ``cells``, only those output keys."""
    slots: list = [None] * node.num_inputs
    for arc in node.in_arcs:
        if slots[arc.index] is not None:
            raise EvaluationError(
                f"combine node {node.name!r} has duplicate slot "
                f"{arc.index}"
            )
        slots[arc.index] = _source(arc, tables, cells)
    if any(slot is None for slot in slots):
        raise EvaluationError(
            f"combine node {node.name!r} is missing input slots"
        )
    base = slots[0]
    fn = node.fn
    result = {}
    for key in base if cells is None else [k for k in cells if k in base]:
        args = [base[key]] + [slot.get(key) for slot in slots[1:]]
        result[key] = fn(*args)
    return result


def eval_node_from_tables(
    node: Node, tables: dict[str, dict], dataset: Dataset | None = None
) -> dict:
    """Dispatch helper: evaluate any node given its inputs."""
    if isinstance(node, BasicNode):
        if dataset is None:
            raise EvaluationError(
                f"basic node {node.name!r} needs the dataset"
            )
        return eval_basic(node, dataset)
    if isinstance(node, CompositeNode):
        return eval_composite(node, tables)
    if isinstance(node, CombineNode):
        return eval_combine(node, tables)
    raise EvaluationError(f"unknown node type {type(node).__name__}")


# -- propagating a delta through the composites -------------------------


def member_index(node: Node, tables: dict[str, dict]) -> dict | None:
    """The cell index :func:`propagate` keeps for ``node``, if any.

    Roll-ups and child/parent joins map each output cell to the keys of
    their values-arc table that generalize to it (a cell's group);
    parent/child joins map each ancestor key of the values arc to the
    keys-arc cells below it.  Each list of keys is sorted.  Other nodes
    need no index.
    """
    if not isinstance(node, CompositeNode):
        return None
    if node.cond is None or isinstance(node.cond, ChildParent):
        arc, coarse = node.values_arc, node.granularity
    elif isinstance(node.cond, ParentChild):
        arc, coarse = node.keys_arc, node.values_arc.src.granularity
    else:
        return None
    lift = coarse.lift_fn(arc.src.granularity)
    index: dict = {}
    for key in tables[arc.src.name]:
        index.setdefault(lift(key), []).append(key)
    for group in index.values():
        group.sort()
    return index


def _reindex(index: dict, lift, keys, table: dict) -> None:
    """Bring ``index`` up to date with ``table`` at ``keys``."""
    for key in keys:
        group_key = lift(key)
        group = index.get(group_key)
        if group is None:
            if key in table:
                index[group_key] = [key]
            continue
        at = bisect_left(group, key)
        held = at < len(group) and group[at] == key
        if key in table:
            if not held:
                group.insert(at, key)
        elif held:
            del group[at]
            if not group:
                del index[group_key]


def _reached(node: Node, changed: dict, tables: dict, index) -> set:
    """Output cells of ``node`` whose inputs changed at ``changed``.

    A keys-arc change is a cell change (one that appears, leaves or
    flips its arc filter); a values-arc change reaches the cells whose
    condition names it.
    """
    if isinstance(node, CombineNode):
        cells: set = set()
        for arc in node.in_arcs:
            cells.update(changed[arc.src.name])
        return cells
    arc, cond = node.values_arc, node.cond
    keys = changed[arc.src.name]
    keys_arc = node.keys_arc
    cells = set() if keys_arc is None else set(changed[keys_arc.src.name])
    if cond is None or isinstance(cond, ChildParent):
        lift = node.granularity.lift_fn(arc.src.granularity)
        _reindex(index, lift, keys, tables[arc.src.name])
        cells.update(map(lift, keys))
    elif isinstance(cond, ParentChild):
        _reindex(
            index, arc.src.granularity.lift_fn(node.granularity),
            cells, tables[keys_arc.src.name],
        )
        for key in keys:
            cells.update(index.get(key, ()))
    else:
        s_gran, t_gran = node.granularity, arc.src.granularity
        for key in keys:
            cells.update(cond.affected_keys(key, s_gran, t_gran))
    return cells


def propagate(
    nodes: list[Node], tables: dict[str, dict], changed: dict[str, set],
    indexes: dict[str, dict],
) -> None:
    """Patch the composite ``nodes`` (topological order) in ``tables``
    after their inputs changed at the keys in ``changed``.

    Each node's reachable cells are re-evaluated through
    :func:`eval_composite` / :func:`eval_combine` and written back; a
    cell with no result any more (its keys-arc or group filter flipped,
    or its group emptied) is removed.  ``changed`` gains every node's
    cells that were or are in its table, and ``indexes`` (from
    :func:`member_index`) follow their source tables.  The result
    equals evaluating every node in full.
    """
    for node in nodes:
        index = indexes.get(node.name)
        cells = _reached(node, changed, tables, index)
        if isinstance(node, CombineNode):
            fresh = eval_combine(node, tables, cells)
        else:
            fresh = eval_composite(node, tables, cells, index)
        table = tables[node.name]
        touched = set()
        for cell in cells:
            if cell in fresh:
                table[cell] = fresh[cell]
                touched.add(cell)
            elif table.pop(cell, _ABSENT) is not _ABSENT:
                touched.add(cell)
        changed[node.name] = touched
