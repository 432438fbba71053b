"""External merge sorts: the engine's columnar sort and a record adapter.

The sort phase of a Sort/Scan pass (Section 5.3) must handle datasets
larger than memory.  Both sorts here are the textbook two-phase
approach — cut the input into runs that fit the memory budget, sort
each in memory, spill it, merge the runs back in key order — and both
are *stable*: rows with equal keys keep their input order, so the
sorted stream is ``sorted(rows, key=sort_key.record_mapper())``
element for element.

:func:`sort_dataset` is the engine's sort.  It reads the dataset in
columnar batches, computes each run's sort-key columns once
(``map_column``), orders the run with a stable ``numpy.lexsort`` and
spills it as fixed-width binary records (the flat-file layout plus one
``int64`` field per generalized key part).  The merge reads every run
a block at a time and repeats one step: the *cut* is the smallest
block-tail key among the live runs; the rows below the cut are
gathered from every run, stable-lexsorted (ties keep run order) and
written; then the rows *equal* to the cut are written run by run, each
run continuing into its next blocks until its equal-key range ends —
a later run's equal keys must never overtake an earlier run's.  The
output is a flat file that :class:`FlatFileDataset` reads back.  Input
that fits one run is sorted in memory and never touches disk; input
that refuses the columnar layout (NULL measures, no numpy) goes
through the record adapter instead.

:func:`external_sort` is the record adapter: any record iterable, any
``key_fn``.  Its runs are ``list.sort``-ed and pickled, and
``heapq.merge`` merges them.  ``RelationalEngine``'s sort-group
fallback uses it.

Spill files are always removed — even when the consumer abandons the
iterator early, a spill write dies half way through, or a reader
raises mid-merge.  The columnar sort writes only inside its own
private temporary directory and removes the whole directory; the
record adapter (whose caller may pass ``tmp_dir``) claims every spill
path, and so tracks it for cleanup, *before* its file is written.
Either way a partially written run can never outlive the sort.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import math
import os
import pickle
import shutil
import tempfile
from collections.abc import Callable, Iterable, Iterator

from repro.errors import StorageError
from repro.schema.dataset_schema import Record
from repro.storage.columnar import (
    DEFAULT_BATCH_SIZE,
    HAVE_NUMPY,
    RecordBatch,
    batches_from_records,
    map_column,
    np,
)
from repro.storage.flatfile import FlatFileDataset, record_dtype, write_header
from repro.testkit.failpoints import fire, register

#: Default run size: comfortably in-memory for tuple records.
DEFAULT_RUN_SIZE = 200_000

#: Rows per run read at a time by :func:`sort_dataset`'s merge.
MERGE_BLOCK_ROWS = 16_384

#: Largest packed sort key :func:`_stable_order` sorts as one int64.
_PACKED_LIMIT = 2**63 - 1

FP_SPILL = register(
    "sort.spill", "sort",
    "after one sorted run is spilled to disk",
)
FP_MERGE = register(
    "sort.merge", "sort",
    "after all runs are spilled, before the k-way merge starts",
)


# -- the engine's columnar sort -----------------------------------------


class SortedInput:
    """A dataset's rows in sort order, ready to be scanned once.

    Exactly one source is set: the sorted columns of a single in-memory
    run, the merged flat-file spool, or a sorted record iterator.
    :meth:`close` releases whatever the sort left on disk.
    """

    def __init__(
        self,
        schema,
        columns: list | None = None,
        spool: str | None = None,
        rows: Iterator[Record] | None = None,
        runs: int = 0,
        cleanup: Callable[[], None] | None = None,
    ) -> None:
        self.schema = schema
        self.columns = columns
        self.spool = spool
        self.rows = rows
        #: Runs spilled to disk (0 when the sort stayed in memory).
        self.runs = runs
        self._cleanup = cleanup

    def batches(self, batch_size: int) -> Iterable[RecordBatch]:
        """The sorted rows as batches of ``batch_size`` rows."""
        if self.columns is not None:
            cols = self.columns
            total = len(cols[0]) if cols else 0
            return [
                RecordBatch(
                    self.schema,
                    [col[s : s + batch_size] for col in cols],
                    min(batch_size, total - s),
                )
                for s in range(0, total, batch_size)
            ]
        if self.spool is not None:
            return FlatFileDataset(self.spool, self.schema).scan_batches(
                batch_size
            )
        return batches_from_records(self.schema, self.rows, batch_size)

    def records(self) -> Iterable[Record]:
        """The sorted rows as tuples of Python scalars."""
        if self.columns is not None:
            return zip(*[col.tolist() for col in self.columns])
        if self.spool is not None:
            return FlatFileDataset(self.spool, self.schema).scan()
        return self.rows

    def close(self) -> None:
        if self._cleanup is not None:
            self._cleanup()
            self._cleanup = None


def sort_dataset(
    dataset, sort_key, run_size: int = DEFAULT_RUN_SIZE
) -> SortedInput:
    """Sort ``dataset`` by ``sort_key`` in runs of ``run_size`` rows.

    At most one run (plus the read batch that shows more input follows)
    is resident while runs are built, and one :data:`MERGE_BLOCK_ROWS`
    block per run during the merge.  When the whole input fits one run
    it is sorted in memory and nothing is written; otherwise the runs
    and the spool live in a private temporary directory.  The sort is
    finished — every run spilled and merged — when this returns; the
    caller must :meth:`~SortedInput.close` the result.

    Args:
        dataset: Any :class:`~repro.storage.table.Dataset`.
        sort_key: A :class:`~repro.cube.order.SortKey` over its schema.
        run_size: Maximum rows per in-memory run.
    """
    if run_size < 1:
        raise StorageError(f"run_size must be positive, got {run_size}")
    if not HAVE_NUMPY:
        return _sort_records(dataset, sort_key, run_size)
    schema = dataset.schema
    chunks: list[RecordBatch] = []
    pending = 0
    spill: _Spill | None = None
    try:
        for batch in dataset.scan_batches(min(run_size, DEFAULT_BATCH_SIZE)):
            if not batch.vector:
                # Rows the columnar layout cannot hold (NULL measures).
                if spill is not None:
                    spill.close()
                    spill = None
                return _sort_records(dataset, sort_key, run_size)
            at, n = 0, len(batch)
            while at < n:
                if pending == run_size:
                    # A full run, and more rows follow: spill it.
                    if spill is None:
                        spill = _Spill(schema, sort_key.parts)
                    spill.add_run(_concat(chunks))
                    chunks, pending = [], 0
                take = min(run_size - pending, n - at)
                chunks.append(batch.slice(at, at + take))
                pending += take
                at += take
        if spill is None:
            cols = _concat(chunks)
            if cols:
                order = _stable_order(
                    _key_columns(schema, sort_key.parts, cols)
                )
                cols = [col[order] for col in cols]
            return SortedInput(schema, columns=cols)
        # The last run (spills happen only when more rows follow).
        spill.add_run(_concat(chunks))
        del chunks
        fire(FP_MERGE)
        spool = spill.merge()
        return SortedInput(
            schema, spool=spool, runs=len(spill.runs), cleanup=spill.close
        )
    except BaseException:
        if spill is not None:
            spill.close()
        raise


def _sort_records(dataset, sort_key, run_size) -> SortedInput:
    """The record adapter's sort, advanced to its first row so every
    run is spilled (and an in-memory input sorted) before this
    returns."""
    rows = external_sort(dataset.scan(), sort_key.record_mapper(), run_size)
    first = next(rows, None)
    return SortedInput(
        dataset.schema,
        rows=rows if first is None else itertools.chain((first,), rows),
        cleanup=rows.close,
    )


def _concat(chunks: list[RecordBatch]) -> list:
    """The columns of consecutive batches as one array each."""
    if len(chunks) == 1:
        return chunks[0].columns
    if not chunks:
        return []
    return [
        np.concatenate([chunk.columns[i] for chunk in chunks])
        for i in range(len(chunks[0].columns))
    ]


def _key_columns(schema, parts, cols) -> list:
    """The generalized sort-key part columns, most significant first."""
    return [
        map_column(schema.dimensions[dim].hierarchy, 0, level, cols[dim])
        for dim, level in parts
    ]


def _stable_order(keys: list):
    """The stable permutation sorting rows by the ``keys`` columns (most
    significant first) — ``numpy.lexsort``'s.

    When the columns' value ranges multiply to less than ``2**63`` they
    are packed, order-preserving, into one ``int64`` column and sorted
    with a single stable ``argsort``: one pass instead of one per
    column, and one that runs fast over concatenated sorted runs.
    """
    lows = [int(key.min()) for key in keys]
    spans = [int(key.max()) - low + 1 for key, low in zip(keys, lows)]
    if math.prod(spans) > _PACKED_LIMIT:
        return np.lexsort(keys[::-1])
    packed = keys[0] - lows[0]
    for key, low, span in zip(keys[1:], lows[1:], spans[1:]):
        packed = packed * span + (key - low)
    return np.argsort(packed, kind="stable")


class _Spill:
    """The sorted runs of one :func:`sort_dataset` call, and their merge.

    A run is an array of *spill records*: the flat-file fields followed
    by one ``int64`` field per sort-key part coarser than the fact
    level (a fact-level part reuses its dimension field), so the merge
    compares keys without generalizing anything again.
    """

    def __init__(self, schema, parts) -> None:
        self.schema = schema
        self.parts = parts
        # Every run and the spool are created inside this directory, so
        # removing it releases all of them, half-written ones included.
        self.directory = tempfile.mkdtemp(prefix="awra-sort-")
        self.runs: list[str] = []
        self.data = record_dtype(schema)
        extra = [
            (f"k{i}", "<i8")
            for i, (_dim, level) in enumerate(parts)
            if level != 0
        ]
        self.dtype = np.dtype(self.data.descr + extra)
        self.key_fields = [
            f"d{dim}" if level == 0 else f"k{i}"
            for i, (dim, level) in enumerate(parts)
        ]

    def add_run(self, cols: list) -> None:
        """Sort one run's columns and spill them."""
        keys = _key_columns(self.schema, self.parts, cols)
        order = _stable_order(keys)
        run = np.empty(len(order), dtype=self.dtype)
        for name, col in zip(self.data.names, cols):
            run[name] = col[order]
        for name, col in zip(self.key_fields, keys):
            if name not in self.data.fields:
                run[name] = col[order]
        path = os.path.join(self.directory, f"run-{len(self.runs):05d}.bin")
        self.runs.append(path)
        run.tofile(path)
        fire(FP_SPILL, path=path)

    def merge(self) -> str:
        """Merge every run into a flat-file spool; returns its path."""
        spool = os.path.join(self.directory, "sorted.bin")
        data_size = self.data.itemsize
        keyless = self.dtype.itemsize == data_size

        def emit(rows) -> None:
            if keyless:
                rows.tofile(out)
            else:
                # Drop the trailing key fields of every record.
                raw = rows.view(np.uint8).reshape(len(rows), -1)
                np.ascontiguousarray(raw[:, :data_size]).tofile(out)

        readers: list[_RunReader] = []
        try:
            for path in self.runs:
                readers.append(_RunReader(path, self.dtype, self.key_fields))
            with open(spool, "wb") as out:
                write_header(out, self.schema)
                _merge(readers, emit)
        finally:
            for reader in readers:
                reader.close()
        for path in self.runs:
            with contextlib.suppress(OSError):
                os.remove(path)
        return spool

    def close(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)


class _RunReader:
    """One spilled run, read a block at a time.

    ``rows`` is the current block, ``keys`` its sort-key columns and
    ``pos`` the first row not yet merged; an empty block means the run
    is exhausted.
    """

    __slots__ = ("fh", "dtype", "names", "block_bytes", "rows", "keys", "pos")

    def __init__(self, path: str, dtype, names: list[str]) -> None:
        self.fh = open(path, "rb")
        self.dtype = dtype
        self.names = names
        self.block_bytes = MERGE_BLOCK_ROWS * dtype.itemsize
        self.rows = None
        self.keys: list = []
        self.pos = 0

    def load(self) -> bool:
        """Read the next block; False once the run is exhausted."""
        block = self.fh.read(self.block_bytes)
        fields = np.frombuffer(block, self.dtype)
        self.keys = [np.ascontiguousarray(fields[name]) for name in self.names]
        # Opaque fixed-width rows: numpy concatenates and gathers these
        # an order of magnitude faster than records with fields.
        self.rows = np.frombuffer(block, (np.void, self.dtype.itemsize))
        self.pos = 0
        return len(fields) > 0

    def live(self) -> bool:
        return self.pos < len(self.rows)

    def tail(self) -> tuple:
        return tuple(int(key[-1]) for key in self.keys)

    def span(self, cut: tuple) -> tuple[int, int]:
        """Block positions ``(lo, hi)``: rows ``pos..lo`` are below
        ``cut`` and rows ``lo..hi`` equal it."""
        lo, hi = self.pos, len(self.rows)
        for key, value in zip(self.keys, cut):
            # Rows lo..hi agree on every earlier key part, so this one
            # is sorted there.
            segment = key[lo:hi]
            lo, hi = (
                lo + int(segment.searchsorted(value, "left")),
                lo + int(segment.searchsorted(value, "right")),
            )
            if lo == hi:
                break
        return lo, hi

    def close(self) -> None:
        self.fh.close()


def _merge(readers: list[_RunReader], emit) -> None:
    """Emit every run's rows in stable sort order, block by block."""
    live = [reader for reader in readers if reader.load()]
    while len(live) > 1:
        cut = min(reader.tail() for reader in live)
        spans = [reader.span(cut) for reader in live]
        # Every row below the cut is in a current block: later blocks
        # hold keys >= their run's block tail >= cut.
        below = [
            (reader, lo)
            for reader, (lo, _hi) in zip(live, spans)
            if lo > reader.pos
        ]
        if len(below) == 1:
            reader, lo = below[0]
            emit(reader.rows[reader.pos : lo])
        elif below:
            keys = [
                np.concatenate([r.keys[i][r.pos : lo] for r, lo in below])
                for i in range(len(cut))
            ]
            rows = np.concatenate([r.rows[r.pos : lo] for r, lo in below])
            emit(np.take(rows, _stable_order(keys)))
        # Rows equal to the cut go out in run order, each run to the end
        # of its equal-key range even where that runs past its block.
        for reader, (lo, hi) in zip(live, spans):
            reader.pos = lo
            while True:
                if hi > reader.pos:
                    emit(reader.rows[reader.pos : hi])
                reader.pos = hi
                if hi < len(reader.rows) or not reader.load():
                    break
                _lo, hi = reader.span(cut)
        live = [reader for reader in live if reader.live()]
    for reader in live:
        emit(reader.rows[reader.pos :])
        while reader.load():
            emit(reader.rows)


# -- the record adapter --------------------------------------------------


def _spill_run(run: list, path: str) -> None:
    with open(path, "wb") as fh:
        pickle.dump(run, fh, protocol=pickle.HIGHEST_PROTOCOL)
    fire(FP_SPILL, path=path)


def _read_run(path: str) -> Iterator[Record]:
    with open(path, "rb") as fh:
        run = pickle.load(fh)
    yield from run


def external_sort(
    records: Iterable[Record],
    key_fn: Callable[[Record], tuple],
    run_size: int = DEFAULT_RUN_SIZE,
    tmp_dir: str | None = None,
) -> Iterator[Record]:
    """Yield ``records`` sorted by ``key_fn`` using bounded memory.

    Once the first row is yielded, every run is on disk: ``tmp_dir``
    then holds one spill file per ``run_size`` records (none when the
    input fits one run).

    Args:
        records: The input stream.
        key_fn: Sort key extractor; must be deterministic.
        run_size: Maximum records held in memory at once.
        tmp_dir: Directory for spill files; a private temporary
            directory is created (and removed) when omitted.

    Yields:
        Records in ascending ``key_fn`` order.
    """
    if run_size < 1:
        raise StorageError(f"run_size must be positive, got {run_size}")

    first_run: list = []
    iterator = iter(records)
    for record in iterator:
        first_run.append(record)
        if len(first_run) >= run_size:
            break
    else:
        # Everything fit in a single run: pure in-memory sort.
        first_run.sort(key=key_fn)
        yield from first_run
        return

    own_tmp = tmp_dir is None
    directory = tempfile.mkdtemp(prefix="awra-sort-") if own_tmp else tmp_dir
    spill_paths: list[str] = []

    def claim_path() -> str:
        # Claimed before the write so a run that dies half way through
        # is still removed by the cleanup below.
        path = os.path.join(directory, f"run-{len(spill_paths):05d}.pkl")
        spill_paths.append(path)
        return path

    try:
        first_run.sort(key=key_fn)
        _spill_run(first_run, claim_path())
        del first_run

        run: list = []
        for record in iterator:
            run.append(record)
            if len(run) >= run_size:
                run.sort(key=key_fn)
                _spill_run(run, claim_path())
                run = []
        if run:
            run.sort(key=key_fn)
            _spill_run(run, claim_path())
            del run

        fire(FP_MERGE)
        streams = [_read_run(path) for path in spill_paths]
        yield from heapq.merge(*streams, key=key_fn)
    finally:
        for path in spill_paths:
            with contextlib.suppress(OSError):
                os.remove(path)
        if own_tmp:
            # rmtree, not rmdir: even if a stray file somehow landed in
            # the owned directory, the sort owns the whole tree.
            shutil.rmtree(directory, ignore_errors=True)
