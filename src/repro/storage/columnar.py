"""Columnar record batches for vectorized scans (MonetDB/X100 style).

The engines' inner loops are pure Python; at any realistic scale the
interpreter — not the paper's algorithm — dominates the runtime.  This
module provides the batch-at-a-time substrate that removes most of that
overhead: a :class:`RecordBatch` holds a few thousand records as
parallel columns (numpy arrays when numpy is importable, plain lists
otherwise), datasets yield batches via ``Dataset.scan_batches``, and
the helpers here vectorize the two per-record operations engines
actually perform — key generalization (:func:`map_column`,
:func:`key_columns`, :func:`lift_columns`) and group segmentation
(:func:`sorted_runs`, :func:`group_runs`).

Everything is gated on ``HAVE_NUMPY``: without numpy the engines fall
back to their row-at-a-time scalar loops, so numpy stays an optional
dependency.

Bit-identity contract
---------------------
The batched path must produce *bit-identical* results to the scalar
path.  Two properties make that possible:

* ``group_runs`` sorts with a **stable** lexsort, so records within a
  group keep their scan order and per-group accumulation order is
  unchanged; segments are then visited in first-appearance order so
  hash tables are populated in exactly the order the scalar loop would
  populate them (downstream float folds over ``dict`` iteration order
  therefore match too).
* ``AggregateFunction.update_many`` implementations fold in strict
  left-to-right order (see :mod:`repro.aggregates.base`).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING, Any

from repro.schema.domain import ALL_VALUE

try:  # pragma: no cover - exercised indirectly via HAVE_NUMPY gates
    import numpy as np
except ImportError:  # pragma: no cover - CI installs numpy; keep gated
    np = None  # type: ignore[assignment]

if TYPE_CHECKING:
    from repro.cube.granularity import Granularity
    from repro.schema.dataset_schema import DatasetSchema, Record
    from repro.schema.domain import Hierarchy

#: Whether the vectorized path is available at all.
HAVE_NUMPY = np is not None

#: Default rows per batch.  4k rows keeps the working set of one batch
#: (a few columns of int64/float64) comfortably in L2 while amortizing
#: the per-batch Python overhead ~4000x.
DEFAULT_BATCH_SIZE = 4096


def default_batch_size() -> int:
    """The engines' automatic batch size: 0 (scalar) without numpy."""
    return DEFAULT_BATCH_SIZE if HAVE_NUMPY else 0


def resolve_batch_size(requested: int | None) -> int:
    """Normalize an engine's ``batch_size`` option to an effective size.

    ``None`` means "auto" (the default batch size when numpy is
    available, scalar otherwise); ``0`` or negative forces the scalar
    path; a positive request is honored only when numpy is importable,
    because the pure-Python batched path would merely add overhead.
    """
    if requested is None:
        return default_batch_size()
    if requested <= 0 or not HAVE_NUMPY:
        return 0
    return int(requested)


class RecordBatch:
    """A slice of a fact table stored column-wise.

    ``columns[i]`` holds field ``i`` of every record in the batch —
    int64 arrays for dimensions and float64 arrays for measures when
    numpy is available (``vector`` is then ``True``), plain lists
    otherwise.  Zero-length batches have no columns.
    """

    __slots__ = ("schema", "columns", "length", "vector")

    def __init__(
        self,
        schema: "DatasetSchema",
        columns: Sequence[Any],
        length: int,
    ) -> None:
        self.schema = schema
        self.columns = list(columns)
        self.length = length
        self.vector = bool(
            HAVE_NUMPY
            and self.columns
            and isinstance(self.columns[0], np.ndarray)
        )

    @classmethod
    def from_records(
        cls, schema: "DatasetSchema", records: Sequence["Record"]
    ) -> "RecordBatch":
        """Transpose a record slice into columns.

        Falls back to list columns when numpy is unavailable or a
        field refuses the int64/float64 layout.
        """
        n = len(records)
        if n == 0:
            return cls(schema, [], 0)
        cols = list(zip(*records))
        if HAVE_NUMPY:
            num_dims = schema.num_dimensions
            converted = []
            for i, col in enumerate(cols):
                # None measures are SQL NULLs; numpy would silently
                # coerce them to NaN, so such batches stay list-backed.
                if None in col:
                    converted = None
                    break
                dtype = np.int64 if i < num_dims else np.float64
                try:
                    converted.append(np.asarray(col, dtype=dtype))
                except (TypeError, ValueError, OverflowError):
                    converted = None
                    break
            if converted is not None:
                return cls(schema, converted, n)
        return cls(schema, [list(col) for col in cols], n)

    def __len__(self) -> int:
        return self.length

    def column(self, index: int) -> Any:
        return self.columns[index]

    def slice(self, start: int, stop: int) -> "RecordBatch":
        """A zero-copy (for numpy) sub-batch of rows ``[start, stop)``."""
        stop = min(stop, self.length)
        if start <= 0 and stop >= self.length:
            return self
        return RecordBatch(
            self.schema,
            [col[start:stop] for col in self.columns],
            max(0, stop - start),
        )

    def take(self, mask: Any) -> "RecordBatch":
        """Rows where ``mask`` (a boolean array) is true; vector only."""
        kept = [col[mask] for col in self.columns]
        length = int(len(kept[0])) if kept else 0
        return RecordBatch(self.schema, kept, length)

    def iter_records(self) -> Iterator[tuple]:
        """Row tuples (numpy scalars for vector batches) — cheap zip."""
        if not self.columns:
            return iter(())
        return zip(*self.columns)

    def python_rows(self) -> list[tuple]:
        """Row tuples of plain Python scalars (for scalar fallbacks)."""
        if not self.columns:
            return []
        if self.vector:
            return list(zip(*[col.tolist() for col in self.columns]))
        return list(zip(*self.columns))


def batches_from_records(
    schema: "DatasetSchema",
    records: Iterable["Record"],
    batch_size: int,
) -> Iterator[RecordBatch]:
    """Chunk any record iterable into :class:`RecordBatch` objects."""
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if isinstance(records, (list, tuple)):
        for start in range(0, len(records), batch_size):
            yield RecordBatch.from_records(
                schema, records[start : start + batch_size]
            )
        return
    chunk: list[Record] = []
    for record in records:
        chunk.append(record)
        if len(chunk) >= batch_size:
            yield RecordBatch.from_records(schema, chunk)
            chunk = []
    if chunk:
        yield RecordBatch.from_records(schema, chunk)


# -- vectorized key generalization ------------------------------------


def map_column(
    hierarchy: "Hierarchy",
    from_level: int,
    to_level: int,
    column: Any,
) -> Any:
    """Vectorized :meth:`Hierarchy.generalize` over an int64 array.

    Uses the hierarchy's closed-form :meth:`~Hierarchy.array_mapper`
    when one exists (e.g. integer division for
    :class:`~repro.schema.numeric_hierarchy.UniformHierarchy`);
    otherwise generalizes each *distinct* value once through the scalar
    mapper and scatters the results back with a lookup table, which is
    still a large win because batches carry far fewer distinct values
    than rows.
    """
    if to_level == from_level:
        return column
    if to_level == hierarchy.all_level:
        return np.full(len(column), ALL_VALUE, dtype=np.int64)
    fast = hierarchy.array_mapper(from_level, to_level)
    if fast is not None:
        return fast(column)
    mapper = hierarchy.mapper(from_level, to_level)
    uniques, inverse = np.unique(column, return_inverse=True)
    lut = np.fromiter(
        (mapper(int(value)) for value in uniques),
        dtype=np.int64,
        count=len(uniques),
    )
    return lut[inverse]


def key_columns(
    granularity: "Granularity", batch: RecordBatch
) -> list[Any]:
    """Per-dimension generalized key arrays for a vector batch.

    Returns one entry per dimension: ``None`` for dimensions at
    ``D_ALL`` (their key slot is the constant ``ALL_VALUE``), else the
    int64 array of generalized values.
    """
    schema = granularity.schema
    cols: list[Any] = []
    for i, dim in enumerate(schema.dimensions):
        level = granularity.levels[i]
        if level == dim.all_level:
            cols.append(None)
        else:
            cols.append(
                map_column(dim.hierarchy, 0, level, batch.columns[i])
            )
    return cols


# -- group segmentation ------------------------------------------------


def sorted_runs(
    keys: Sequence[Any], length: int
) -> tuple[Any, list[Any], Any, Any]:
    """Stable grouping of rows by their key arrays, runs in key order.

    Returns ``(order, sorted_keys, starts, ends)`` where ``order`` is a
    stable permutation gathering equal keys into contiguous runs,
    ``sorted_keys`` are the key arrays under that permutation, and
    ``starts[j]:ends[j]`` is run ``j`` in ascending key order — the
    order ``sorted()`` gives the corresponding region-key tuples.
    Stability keeps the rows within a run in their original order.
    """
    order = np.lexsort(tuple(reversed(list(keys))))
    sorted_keys = [key[order] for key in keys]
    change = np.zeros(length, dtype=bool)
    change[0] = True
    for key in sorted_keys:
        change[1:] |= key[1:] != key[:-1]
    starts = np.flatnonzero(change)
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1] = length
    return order, sorted_keys, starts, ends


def group_runs(
    keys: Sequence[Any], length: int
) -> tuple[Any, list[Any], Any, Any]:
    """:func:`sorted_runs` with the runs in *first-appearance order* —
    the order in which a row-at-a-time loop would first see each key.

    ``order[start]`` is each run's first original row index (the
    grouping is stable), so sorting runs by it recovers appearance
    order.
    """
    order, sorted_keys, starts, ends = sorted_runs(keys, length)
    appearance = np.argsort(order[starts], kind="stable")
    return order, sorted_keys, starts[appearance], ends[appearance]


def lift_columns(
    coarse: "Granularity", fine: "Granularity", columns: Sequence[Any]
) -> list[Any]:
    """Vectorized :meth:`Granularity.lift_fn`: per-dimension key arrays
    at ``fine`` generalized to ``coarse``.

    ``columns`` has one entry per dimension (``None`` where ``fine`` is
    at ``D_ALL``); so has the result, with ``None`` for every dimension
    ``coarse`` puts at ``D_ALL``.
    """
    lifted: list[Any] = []
    for i, dim in enumerate(coarse.schema.dimensions):
        level = coarse.levels[i]
        if level == dim.all_level:
            lifted.append(None)
        else:
            lifted.append(
                map_column(
                    dim.hierarchy, fine.levels[i], level, columns[i]
                )
            )
    return lifted


def row_keys(columns: Sequence[Any], length: int) -> list[tuple]:
    """Full-width region-key tuples of plain Python ints from
    per-dimension key arrays (``None`` = the constant ``ALL_VALUE``)."""
    return list(
        zip(
            *[
                [ALL_VALUE] * length if col is None else col.tolist()
                for col in columns
            ]
        )
    )
