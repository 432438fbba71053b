"""Batched (columnar) basic-measure updates shared by the engines.

:class:`BasicBatchUpdater` is the batch-at-a-time counterpart of the
scalar inner loop in :func:`repro.engine.semantics.update_basic_tables`
(single-scan; sort/scan's row-at-a-time scan is
:meth:`BasicBatchUpdater.apply_record`): it folds a whole
:class:`~repro.storage.columnar.RecordBatch` into one basic node's
hash table.  Per batch it

1. evaluates the node's record filter per row (filters are arbitrary
   Python predicates over record tuples) into a boolean mask,
2. generalizes the dimension columns to the node's granularity with
   vectorized mappers (:func:`repro.storage.columnar.key_columns`),
3. groups rows by region key with one stable lexsort
   (:func:`repro.storage.columnar.group_runs`), and
4. folds each group segment through the aggregate's ``update_many``.

Bit-identity with the scalar loops holds because the lexsort is stable
(within-group value order is scan order), segments are visited in
first-appearance order (hash tables gain keys in exactly the order the
scalar loop would insert them, so downstream folds over ``dict``
iteration order match too), and ``update_many`` folds left-to-right
(see :mod:`repro.aggregates.base`).

The sort/scan engine goes one step further (:meth:`BasicBatchUpdater.stage`
/ :meth:`BasicBatchUpdater.flush`): the rows that follow a flush cascade
are held back, and if the next thing to happen is another cascade they
are grouped into *sorted segments* — arrays, not hash-table entries —
of which the final ones never touch the ``dict`` at all.  Only segments
still open at the cascade (they straddle it) are stored, and they
rejoin the next grouping as one leading pseudo-row each, so a
straddling region's state keeps folding in scan order.  If more rows of
the same chunk come first, the held rows fold into the table like any
other batch.
"""

from __future__ import annotations

from itertools import compress

from repro.errors import EvaluationError
from repro.engine.compile import BasicNode
from repro.schema.domain import ALL_VALUE
from repro.storage.columnar import (
    RecordBatch,
    group_runs,
    key_columns,
    np,
    row_keys,
    sorted_runs,
)

_MISSING = object()


class BasicBatchUpdater:
    """Applies record batches to one basic node's hash table.

    Args:
        node: The compiled basic node.
        table: The node's (mutable) accumulator hash table.
        flushed_keys: When the engine tracks flushed keys (the
            ``assert_no_late_updates`` testing hook), updates for keys
            in this set raise — same contract as the scalar loop.
        prof: Optional :class:`~repro.obs.profile.NodeProfile`;
            ``rows_in`` counts post-filter rows, as in the scalar loop.
    """

    __slots__ = (
        "node",
        "table",
        "flushed_keys",
        "prof",
        "granularity",
        "agg",
        "record_filter",
        "value_index",
        "key_dims",
        "template",
        "all_key",
        "_key_fn",
        "_held",
        "_staged",
    )

    def __init__(
        self,
        node: BasicNode,
        table: dict,
        flushed_keys: set | None = None,
        prof=None,
    ) -> None:
        self.node = node
        self.table = table
        self.flushed_keys = flushed_keys
        self.prof = prof
        self.granularity = node.granularity
        self.agg = node.agg.function
        self.record_filter = node.record_filter
        self.value_index = node.value_index
        self.key_dims = self.granularity.key_dims
        # Region keys have full dimension width with ALL slots pinned
        # to ALL_VALUE; only the key dims vary per segment.
        self.template = [ALL_VALUE] * self.granularity.schema.num_dimensions
        self.all_key = tuple(self.template)
        self._key_fn = self.granularity.record_key_fn()
        #: The batch :meth:`stage` holds until it is known whether a
        #: cascade or more rows come next.
        self._held: RecordBatch | None = None
        #: The held batch grouped for a cascade: ``(key columns by
        #: dimension, per-segment value-row starts, ends, ordered
        #: values, {segment: stored state})``.
        self._staged: tuple | None = None

    # -- scalar paths -------------------------------------------------

    def _check_flushed(self, key: tuple) -> None:
        if self.flushed_keys is not None and key in self.flushed_keys:
            raise EvaluationError(
                f"late update: record for finalized key {key} of "
                f"basic node {self.node.name!r}"
            )

    def apply_record(self, record: tuple) -> None:
        """Fold one record — the non-vector fallback, identical to the
        scalar engines' inner loop (filter included)."""
        if self._held is not None or self._staged is not None:
            self.settle()
        if self.record_filter is not None and not self.record_filter(
            record
        ):
            return
        key = self._key_fn(record)
        value = (
            1 if self.value_index is None else record[self.value_index]
        )
        state = self.table.get(key, _MISSING)
        if state is _MISSING:
            self._check_flushed(key)
            state = self.agg.create()
        self.table[key] = self.agg.update(state, value)
        if self.prof is not None:
            self.prof.rows_in += 1

    # -- batched path -------------------------------------------------

    def _filtered(self, batch: RecordBatch) -> RecordBatch | None:
        """The rows of a vector batch passing the record filter."""
        if self.record_filter is not None:
            record_filter = self.record_filter
            mask = np.fromiter(
                (
                    bool(record_filter(row))
                    for row in batch.iter_records()
                ),
                dtype=bool,
                count=len(batch),
            )
            if not mask.any():
                return None
            if not mask.all():
                batch = batch.take(mask)
        if self.prof is not None:
            self.prof.rows_in += len(batch)
        return batch

    def apply(self, batch: RecordBatch) -> None:
        """Fold a whole batch (vectorized when the batch is)."""
        if self._held is not None or self._staged is not None:
            self.settle()
        if len(batch) == 0:
            return
        if not batch.vector:
            for record in batch.python_rows():
                self.apply_record(record)
            return
        batch = self._filtered(batch)
        if batch is None:
            return
        n = len(batch)
        values = (
            batch.columns[self.value_index]
            if self.value_index is not None
            else None
        )
        agg = self.agg
        table = self.table

        key_cols = key_columns(self.granularity, batch)
        keys = [key_cols[dim] for dim in self.key_dims]
        if not keys:
            # Every dimension at D_ALL: the batch is one segment.
            key = self.all_key
            state = table.get(key, _MISSING)
            if state is _MISSING:
                self._check_flushed(key)
                state = agg.create()
            if values is None:
                table[key] = agg.update_repeat(state, 1, n)
            else:
                table[key] = agg.update_many(state, values)
            return

        order, sorted_keys, starts, ends = group_runs(keys, n)
        ordered_values = values[order] if values is not None else None
        template = self.template
        key_dims = self.key_dims
        for start, end in zip(starts, ends):
            for dim, col in zip(key_dims, sorted_keys):
                template[dim] = int(col[start])
            key = tuple(template)
            state = table.get(key, _MISSING)
            if state is _MISSING:
                self._check_flushed(key)
                state = agg.create()
            if ordered_values is None:
                table[key] = agg.update_repeat(
                    state, 1, int(end - start)
                )
            else:
                table[key] = agg.update_many(
                    state, ordered_values[start:end]
                )

    # -- segment staging (sort/scan) ----------------------------------

    def stage(self, batch: RecordBatch) -> None:
        """Hold a vector batch — the rows that follow a cascade — for
        the next cascade's :meth:`flush`."""
        self.settle()
        self._held = batch

    def _group(self) -> None:
        """Group the held batch into sorted segments.

        The resident table (entries the last cascade left open) is
        drained into the grouping as one pseudo-row per entry, ahead of
        the batch's rows: the lexsort is stable, so a stored state is
        the first row of its segment and the segment's values fold onto
        it in scan order.
        """
        batch, self._held = self._held, None
        if batch is not None:
            batch = self._filtered(batch)
        if batch is None:
            return
        key_cols = key_columns(self.granularity, batch)
        values = (
            batch.columns[self.value_index]
            if self.value_index is not None
            else None
        )
        table = self.table
        stored = len(table)
        if stored:
            resident = list(table)
            states = list(table.values())
            table.clear()
            for dim in self.key_dims:
                key_cols[dim] = np.concatenate(
                    (
                        np.fromiter(
                            (key[dim] for key in resident),
                            dtype=np.int64,
                            count=stored,
                        ),
                        key_cols[dim],
                    )
                )
            if values is not None:
                values = np.concatenate((np.zeros(stored), values))
        order, sorted_keys, starts, ends = sorted_runs(
            [key_cols[dim] for dim in self.key_dims], stored + len(batch)
        )
        for dim, col in zip(self.key_dims, sorted_keys):
            key_cols[dim] = col[starts]
        prior: dict[int, object] = {}
        if stored:
            first = order[starts]
            held = np.flatnonzero(first < stored)
            prior = {
                seg: states[row]
                for seg, row in zip(held.tolist(), first[held].tolist())
            }
            # A stored state occupies its segment's first sorted row.
            starts = starts.copy()
            starts[held] += 1
        if self.flushed_keys:
            fresh = np.ones(len(starts), dtype=bool)
            fresh[list(prior)] = False
            for key in row_keys(_take(key_cols, fresh), int(fresh.sum())):
                self._check_flushed(key)
        self._staged = (
            key_cols,
            starts,
            ends,
            values[order] if values is not None else None,
            prior,
        )

    def staged_entries(self) -> int:
        """Segments waiting in arrays (not in the table) at a cascade."""
        self._group()
        return 0 if self._staged is None else len(self._staged[1])

    def _reduce(self) -> list:
        """One accumulator state per staged segment (key order)."""
        __, starts, ends, values, prior = self._staged
        agg = self.agg
        create = agg.create
        if values is None:
            repeat = agg.update_repeat
            states = [
                repeat(create(), 1, count)
                for count in (ends - starts).tolist()
            ]
            for seg, state in prior.items():
                states[seg] = repeat(
                    state, 1, int(ends[seg] - starts[seg])
                )
            return states
        many = agg.update_many
        states = [
            many(create(), values[start:end])
            for start, end in zip(starts.tolist(), ends.tolist())
        ]
        for seg, state in prior.items():
            states[seg] = many(state, values[starts[seg] : ends[seg]])
        return states

    def settle(self) -> None:
        """Fold what :meth:`stage` held back into the table: no cascade
        came for the held rows, or one left the segments unflushed."""
        held, self._held = self._held, None
        if held is not None:
            self.apply(held)
            return
        if self._staged is None:
            return
        states = self._reduce()
        key_cols = self._staged[0]
        self._staged = None
        self.table.update(zip(row_keys(key_cols, len(states)), states))

    def flush(self, final_mask) -> tuple[list, list]:
        """Split the staged segments at a cascade (call only when
        :meth:`staged_entries` reports some).

        ``final_mask(key_columns, count)`` marks the segments that are
        final (``None`` = all of them: the end-of-scan flush).  Final
        segments are returned as ``(key columns by dimension, states)``
        in ascending key order without ever entering the table; the
        rest are stored.
        """
        key_cols = self._staged[0]
        states = self._reduce()
        self._staged = None
        if final_mask is None:
            return key_cols, states
        final = final_mask(key_cols, len(states))
        if final.all():
            return key_cols, states
        still_open = ~final
        self.table.update(
            zip(
                row_keys(
                    _take(key_cols, still_open), int(still_open.sum())
                ),
                compress(states, still_open.tolist()),
            )
        )
        return _take(key_cols, final), list(compress(states, final.tolist()))


def _take(key_cols: list, mask) -> list:
    """Rows of per-dimension key columns (``None`` = an ALL slot)."""
    return [None if col is None else col[mask] for col in key_cols]
