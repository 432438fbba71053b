"""Watermark machinery: when is a hash-table entry finalized?

This is the runtime form of the paper's Tables 6 and 8.  For every node
of the evaluation graph we precompute, at plan time, a set of
*finalization predicates* (:class:`PredSpec`).  Each spec descends from
the scan position through the chain of computational arcs between the
fact table and the node, composing three transform rules:

- **lift** (roll-ups / child-parent arcs): bound components are raised
  to the coarser granularity; the first strictly-raised component ends
  the spec, because finer positions can no longer be trusted — exactly
  the truncation behaviour of Table 6;
- **identity** (self matches, parent/child matches, keys and combine
  arcs): the bound passes through unchanged — for parent/child the
  *finer* entry is generalized up to the bound's levels at check time;
- **shift** (sibling matches): a window reaching ``after`` steps ahead
  delays finalization by ``after`` at that dimension, recorded as a
  per-dimension shift applied to the entry key before comparison (this
  is the stream *slack* of Section 5.3.1).

At run time, an entry of a node is finalized exactly when, for *every*
spec of the node, the entry's (shifted, generalized) key is strictly
lexicographically below the spec's bound evaluated at the current scan
position.  Strictness matters: the current scan group is still open.
A spec with no parts never finalizes anything before the end-of-scan
flush (the node's inputs recur across the whole scan).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import PlanError
from repro.algebra.conditions import (
    ChildParent,
    Lags,
    ParentChild,
    SelfMatch,
    Sibling,
)
from repro.cube.granularity import Granularity
from repro.cube.order import SortKey
from repro.engine.compile import (
    Arc,
    BasicNode,
    CompiledGraph,
    Node,
)
from repro.schema.dataset_schema import DatasetSchema
from repro.storage.columnar import map_column, np


class PredSpec:
    """One finalization predicate.

    Attributes:
        parts: ``((dim, level, scan_index, scan_level), ...)`` — the
            bound's components.  ``scan_index``/``scan_level`` say which
            scan-key position produces the component's value and at what
            level the scan key carries it (``level >= scan_level``).
        shifts: ``{dim: (shift_level, amount)}`` — entry keys are
            generalized to ``shift_level``, moved ``amount`` steps
            forward, then generalized on up before comparison.
    """

    __slots__ = ("parts", "shifts")

    def __init__(
        self,
        parts: Sequence[tuple[int, int, int, int]],
        shifts: dict[int, tuple[int, int]] | None = None,
    ) -> None:
        self.parts = tuple(parts)
        self.shifts = dict(shifts or {})

    def signature(self) -> tuple:
        return (self.parts, tuple(sorted(self.shifts.items())))

    def bound_at(self, schema: DatasetSchema, pos: tuple) -> tuple:
        """The bound values for scan position ``pos``."""
        values = []
        for dim, level, scan_index, scan_level in self.parts:
            values.append(
                schema.dimensions[dim].generalize(
                    pos[scan_index], scan_level, level
                )
            )
        return tuple(values)

    def entry_below(
        self,
        schema: DatasetSchema,
        key: tuple,
        key_levels: tuple[int, ...],
        bound: tuple,
    ) -> bool:
        """Strict lexicographic test of an entry key against ``bound``.

        Components whose level is finer than the entry's own level for
        that dimension are unusable (the entry cannot be specialized);
        the comparison truncates there, conservatively.
        """
        for position, (dim, level, __, ___) in enumerate(self.parts):
            have = key_levels[dim]
            if level < have:
                # Bound is finer than the key can express: truncate.
                return False
            value = key[dim]
            shift = self.shifts.get(dim)
            if shift is not None:
                shift_level, amount = shift
                if shift_level < have:
                    return False
                value = schema.dimensions[dim].generalize(
                    value, have, shift_level
                )
                value += amount
                value = schema.dimensions[dim].generalize(
                    value, shift_level, level
                )
            else:
                value = schema.dimensions[dim].generalize(
                    value, have, level
                )
            if value < bound[position]:
                return True
            if value > bound[position]:
                return False
        return False  # equal on every comparable component: not final

    def __repr__(self) -> str:
        parts = ",".join(f"d{d}@{lv}" for d, lv, __, ___ in self.parts)
        shifts = ",".join(
            f"d{d}+{amount}@{lv}"
            for d, (lv, amount) in sorted(self.shifts.items())
        )
        return f"PredSpec([{parts}]{'; ' + shifts if shifts else ''})"


def _basic_spec(
    scan_key: SortKey, granularity: Granularity
) -> PredSpec:
    """The spec of a basic node: scan position lifted to its grain."""
    schema = granularity.schema
    parts: list[tuple[int, int, int, int]] = []
    for scan_index, (dim, scan_level) in enumerate(scan_key.parts):
        node_level = granularity.levels[dim]
        all_level = schema.dimensions[dim].all_level
        if node_level <= scan_level:
            parts.append((dim, scan_level, scan_index, scan_level))
            continue
        if node_level == all_level:
            break  # this dimension recurs over the whole scan
        parts.append((dim, node_level, scan_index, scan_level))
        break  # strictly lifted: nothing finer survives
    return PredSpec(parts)


def _lift_spec(spec: PredSpec, granularity: Granularity) -> PredSpec:
    """Transform a spec across a roll-up / child-parent arc."""
    schema = granularity.schema
    parts: list[tuple[int, int, int, int]] = []
    for dim, level, scan_index, scan_level in spec.parts:
        node_level = granularity.levels[dim]
        all_level = schema.dimensions[dim].all_level
        if node_level <= level:
            if dim in spec.shifts and spec.shifts[dim][0] < node_level:
                # A shift recorded below the new granularity cannot be
                # applied to coarser keys; stop conservatively.
                break
            parts.append((dim, level, scan_index, scan_level))
            continue
        if node_level == all_level:
            break
        if dim in spec.shifts:
            break  # cannot re-apply a fine shift at a coarser level
        parts.append((dim, node_level, scan_index, scan_level))
        break
    kept_dims = {part[0] for part in parts}
    shifts = {
        dim: shift for dim, shift in spec.shifts.items() if dim in kept_dims
    }
    return PredSpec(parts, shifts)


def _shift_spec(
    spec: PredSpec, windows: dict[int, tuple[int, int]],
    granularity: Granularity,
) -> PredSpec:
    """Transform a spec across a sibling arc: add per-dim slack."""
    shifts = dict(spec.shifts)
    for dim, (__, after) in windows.items():
        level = granularity.levels[dim]
        prior = shifts.get(dim)
        if prior is None:
            if after:
                shifts[dim] = (level, after)
        else:
            prior_level, prior_amount = prior
            if prior_level != level:
                raise PlanError(
                    "chained sibling windows at different levels on one "
                    "dimension are not supported by the streaming plan"
                )
            shifts[dim] = (level, prior_amount + after)
    return PredSpec(spec.parts, shifts)


def transform_specs(
    specs: list[PredSpec], arc: Arc
) -> list[PredSpec]:
    """Transform a source node's specs across one computational arc."""
    dst = arc.dst
    if arc.role in ("keys", "combine"):
        return specs
    cond = arc.cond
    if cond is None or isinstance(cond, ChildParent):
        return [_lift_spec(spec, dst.granularity) for spec in specs]
    if isinstance(cond, (SelfMatch, ParentChild)):
        return specs
    if isinstance(cond, Sibling):
        windows = cond.resolve(dst.schema)
        return [
            _shift_spec(spec, windows, dst.granularity) for spec in specs
        ]
    if isinstance(cond, Lags):
        offsets = cond.resolve(dst.schema)
        pseudo_windows = {
            dim: (0, max(0, max(deltas)))
            for dim, deltas in offsets.items()
        }
        return [
            _shift_spec(spec, pseudo_windows, dst.granularity)
            for spec in specs
        ]
    raise PlanError(f"unsupported match condition {cond!r}")


def build_node_specs(
    graph: CompiledGraph, scan_key: SortKey
) -> dict[str, list[PredSpec]]:
    """Finalization specs for every node, by name (plan-time)."""
    specs: dict[str, list[PredSpec]] = {}
    for node in graph.nodes:
        if isinstance(node, BasicNode):
            specs[node.name] = [_basic_spec(scan_key, node.granularity)]
            continue
        collected: list[PredSpec] = []
        seen: set[tuple] = set()
        for arc in node.in_arcs:
            for spec in transform_specs(specs[arc.src.name], arc):
                signature = spec.signature()
                if signature not in seen:
                    seen.add(signature)
                    collected.append(spec)
        specs[node.name] = collected
    return specs


class NodeChecker:
    """Per-node runtime finalization test, refreshed each cascade.

    The per-spec arithmetic (generalize bound components from the scan
    position; shift and generalize entry-key components) is compiled to
    closures once, at construction — these tests run for every resident
    entry at every scan-position change.
    """

    __slots__ = (
        "schema",
        "levels",
        "specs",
        "bounds",
        "_signature",
        "_bound_steps",
        "_entry_steps",
        "_column_steps",
        "never",
    )

    def __init__(self, node: Node, specs: list[PredSpec]) -> None:
        self.schema = node.schema
        self.levels = node.granularity.levels
        self.specs = specs
        self.bounds: list[tuple] = [()] * len(specs)
        self._signature: tuple | None = None
        #: True when no entry can ever finalize before the end flush.
        self.never = not specs or any(not spec.parts for spec in specs)
        self._bound_steps = []
        self._entry_steps = []
        #: Per spec, ``(dim, hierarchy, have, shift_level, amount,
        #: level)`` — the array form of ``_entry_steps``.
        self._column_steps = []
        dims = self.schema.dimensions
        for spec in specs:
            bound_steps = []
            entry_steps = []
            column_steps = []
            for dim, level, scan_index, scan_level in spec.parts:
                hierarchy = dims[dim].hierarchy
                bound_steps.append(
                    (scan_index, hierarchy.mapper(scan_level, level))
                )
                have = self.levels[dim]
                if level < have:
                    # The bound is finer than this node's keys can
                    # express; the spec cannot finalize anything.
                    self.never = True
                    break
                shift = spec.shifts.get(dim)
                if shift is None:
                    entry_steps.append((dim, hierarchy.mapper(have, level)))
                    column_steps.append(
                        (dim, hierarchy, have, have, 0, level)
                    )
                else:
                    shift_level, amount = shift
                    if shift_level < have:
                        self.never = True
                        break
                    column_steps.append(
                        (dim, hierarchy, have, shift_level, amount, level)
                    )
                    to_shift = hierarchy.mapper(have, shift_level)
                    from_shift = hierarchy.mapper(shift_level, level)

                    def shifted(
                        value,
                        _to=to_shift,
                        _amount=amount,
                        _from=from_shift,
                    ):
                        if _to is not None:
                            value = _to(value)
                        value += _amount
                        if _from is not None:
                            value = _from(value)
                        return value

                    entry_steps.append((dim, shifted))
            self._bound_steps.append(tuple(bound_steps))
            self._entry_steps.append(tuple(entry_steps))
            self._column_steps.append(tuple(column_steps))

    def refresh(self, pos: tuple) -> bool:
        """Recompute bounds for the new scan position.

        Returns False when the bounds did not move (caller may skip the
        node's flush scan entirely).
        """
        if self.never:
            return False
        bounds = [
            tuple(
                pos[idx] if fn is None else fn(pos[idx])
                for idx, fn in steps
            )
            for steps in self._bound_steps
        ]
        if bounds == self._signature:
            return False
        self._signature = bounds
        self.bounds = bounds
        return True

    def is_final(self, key: tuple) -> bool:
        """Would this entry key never be updated again?"""
        if self.never:
            return False
        for steps, bound in zip(self._entry_steps, self.bounds):
            final = False
            for position, (dim, fn) in enumerate(steps):
                value = key[dim]
                if fn is not None:
                    value = fn(value)
                limit = bound[position]
                if value < limit:
                    final = True
                    break
                if value > limit:
                    return False
            if not final:
                return False
        return True

    def final_mask(self, key_columns: Sequence, count: int):
        """Array form of :meth:`is_final` over ``count`` entry keys.

        ``key_columns[dim]`` is the int64 array of the keys' values at
        dimension ``dim`` (only dimensions below ``D_ALL`` are read).
        Element ``i`` of the returned boolean array equals
        ``is_final`` of key ``i`` against the current bounds.
        """
        if self.never:
            return np.zeros(count, dtype=bool)
        final = None
        for steps, bound in zip(self._column_steps, self.bounds):
            # Strict lexicographic ``key < bound``, one component at a
            # time: below at the first component that is not tied.
            below = tied = None
            for position, step in enumerate(steps):
                dim, hierarchy, have, shift_level, amount, level = step
                column = key_columns[dim]
                if amount:
                    column = map_column(
                        hierarchy, have, shift_level, column
                    ) + amount
                    have = shift_level
                column = map_column(hierarchy, have, level, column)
                limit = bound[position]
                if tied is None:
                    below, tied = column < limit, column == limit
                else:
                    below |= tied & (column < limit)
                    tied &= column == limit
            final = below if final is None else final & below
        return final

    def is_final_at_levels(
        self, key: tuple, key_levels: tuple[int, ...]
    ) -> bool:
        """Finalization test for keys at a different granularity.

        Used to garbage-collect parent/child side tables, whose keys
        live at the *source* granularity.  Conservative: bound
        components finer than the key truncate the comparison.
        """
        if self.never:
            return False
        for spec, bound in zip(self.specs, self.bounds):
            if not spec.entry_below(self.schema, key, key_levels, bound):
                return False
        return True
