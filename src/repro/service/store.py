"""Persistent, crash-safe measure store.

The paper's one-pass algorithm "flushes the finalized entries to disk"
(Table 7); this module gives those flushed entries a durable home so a
computed measure can be *served* and incrementally maintained instead of
being recomputed from scratch per request.

Layout of a store directory::

    store/
      MANIFEST.json        # the single source of truth, swapped atomically
      segments/
        t000001.seg        # one sorted segment per committed table
        t000001.idx        # sparse region-key index for the segment
        f000002.bin        # appended fact batches (binary flat files)

Every committed table — finalized measure values or raw basic-node
accumulator states — is one *segment*: newline-delimited JSON rows
sorted by region key, plus a sparse index holding every ``index_every``-th
``(key, byte offset)`` pair.  Point lookups bisect the sparse index and
scan at most one stride of the data file; granularity-prefix range scans
bisect to the first matching key and stream forward while the prefix
holds (region keys are full dimension width and totally ordered, per
Proposition 1).

Commit protocol (and why a crash cannot corrupt the store): segment
files for the new generation are written and fsynced first, under names
the current manifest does not reference; then the new manifest is
written to a temporary file and atomically swapped in with
``os.replace``.  A crash before the swap leaves the old manifest intact
— the half-written segments are orphans, ignored and garbage-collected
on the next open.  A crash after the swap leaves the new state fully
durable.  Readers therefore always see a consistent generation.

Delta-proportional writes: a table staged with the set of keys whose
rows may have changed (the ingest path does this for state tables and
basic outputs) is *spliced* — the new segment is the committed one
with only those rows re-encoded, inserted or removed, and the sparse
index is rebuilt from the new row offsets.  That needs the committed
segment's row keys and offsets, which this store object keeps for the
tables it last wrote this way.  The files are byte-identical to a full
write, so the format and every read path are unchanged.  A write
without a key set (bootstrap, resolution), or of a table whose rows
this object does not know (after a reopen, or after a full write),
encodes every row.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from itertools import accumulate
from typing import NamedTuple

from repro.errors import StorageError
from repro.obs import get_registry, get_tracer
from repro.obs.metrics import (
    STORE_COMMIT_SECONDS,
    STORE_FACTS,
    STORE_GENERATION,
    STORE_SEGMENTS,
)
from repro.cube.granularity import Granularity
from repro.schema.dataset_schema import DatasetSchema, Record
from repro.storage.flatfile import FlatFileDataset, write_flatfile
from repro.storage.sink import Sink
from repro.storage.table import Dataset, MeasureTable
from repro.testkit.failpoints import fire, register

# Injection sites of the commit protocol and its recovery half; the
# crash-recovery sweeper (repro.testkit.sweeper) enumerates the
# ``store`` scope and kills a committing subprocess at each of these.
FP_SEGMENT_WRITE = register(
    "store.segment-write", "store",
    "after a segment's rows are written, before its fsync",
)
FP_SEGMENT_FSYNC = register(
    "store.segment-fsync", "store",
    "after a segment data file is fsynced, before its index is written",
)
FP_FACTS_APPEND = register(
    "store.facts-append", "store",
    "after a fact batch lands on disk, before it is staged",
)
FP_MANIFEST_WRITE = register(
    "store.manifest-write", "store",
    "after the new manifest is written to its temp file, before the swap",
)
FP_MANIFEST_SWAP = register(
    "store.manifest-swap", "store",
    "immediately after the atomic manifest swap",
)
FP_REPLACED_GC = register(
    "store.replaced-gc", "store",
    "after the swap, before segments replaced by the commit are deleted",
)
FP_OPEN_GC = register(
    "store.open-gc", "store",
    "at the start of orphan collection when a store is opened",
)

_MANIFEST = "MANIFEST.json"
_SEGMENT_DIR = "segments"
_FORMAT = 1

#: Sparse-index stride: one index entry per this many segment rows.
INDEX_EVERY = 64


# -- value / state codec ---------------------------------------------------
#
# Segment rows are JSON.  Measure values are scalars (or None), but raw
# accumulator states include tuples (avg, var) and bytearrays (HLL
# sketch registers), so non-JSON types are wrapped in one-key tag
# objects.  Plain dicts never occur as measure values in this system,
# which keeps the tagging unambiguous.

def encode_cell(value):
    """Encode a measure value or accumulator state as JSON-safe data."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {"t": [encode_cell(item) for item in value]}
    if isinstance(value, (bytes, bytearray)):
        return {"b": bytes(value).hex()}
    if isinstance(value, list):
        return {"l": [encode_cell(item) for item in value]}
    if isinstance(value, (set, frozenset)):
        return {"s": sorted((encode_cell(item) for item in value),
                            key=repr)}
    raise StorageError(
        f"cannot persist value of type {type(value).__name__}: {value!r}"
    )


def decode_cell(data):
    """Inverse of :func:`encode_cell`."""
    if isinstance(data, dict):
        if "t" in data:
            return tuple(decode_cell(item) for item in data["t"])
        if "b" in data:
            return bytearray.fromhex(data["b"])
        if "l" in data:
            return [decode_cell(item) for item in data["l"]]
        if "s" in data:
            return {decode_cell(item) for item in data["s"]}
        raise StorageError(f"unknown cell tag in {data!r}")
    return data


def _dump_row(key: tuple, value) -> bytes:
    return (
        json.dumps([list(key), encode_cell(value)], separators=(",", ":"))
        .encode("utf-8")
        + b"\n"
    )


def _load_row(line: bytes) -> tuple[tuple, object]:
    key, value = json.loads(line)
    return tuple(key), decode_cell(value)


# -- segment encoding ------------------------------------------------------


class _Segment(NamedTuple):
    """A segment's bytes, as ``chunks`` to write in order, with the key
    and byte offset of every row.

    ``offsets`` has one entry per row plus the total length, so row
    ``i`` is ``data[offsets[i]:offsets[i + 1]]`` of the written file.
    """

    keys: list
    offsets: array
    chunks: list


class _SparseIndex(NamedTuple):
    """A loaded ``.idx`` file: every ``every``-th row's key and offset.

    Keys are tuples, so lookups bisect them without converting.
    """

    every: int
    keys: list
    offsets: list


def _encode(rows: dict) -> _Segment:
    """Every row of ``rows``, sorted by key — a full segment."""
    keys = sorted(rows)
    lines = [_dump_row(key, rows[key]) for key in keys]
    offsets = array("q", [0])
    offsets.extend(accumulate(map(len, lines)))
    return _Segment(keys, offsets, lines)


def _splice(
    keys: list, offsets: array, data: bytes, rows: dict,
    changed: Iterable[tuple],
) -> _Segment:
    """The segment ``data`` (rows ``keys`` at ``offsets``) with the rows
    of ``changed`` re-encoded from ``rows``.

    A changed key present in ``rows`` is replaced or inserted; one
    absent from ``rows`` is removed.  Every other row is copied as
    bytes, so when ``rows`` agrees with ``data`` outside ``changed`` the
    result is byte for byte what :func:`_encode` makes of ``rows``.
    """
    view = memoryview(data)
    out_keys: list = []
    out_offsets = array("q")
    chunks: list = []
    size = 0  # bytes emitted so far
    done = 0  # rows of ``data`` consumed so far

    def copy_rows(upto: int) -> None:
        # Rows done..upto are unchanged: copy their bytes and shift
        # their offsets to where they now start.
        nonlocal size
        if upto <= done:
            return
        start, end = offsets[done], offsets[upto]
        out_keys.extend(keys[done:upto])
        run = offsets[done:upto]
        shift = size - start
        out_offsets.extend(map(shift.__add__, run) if shift else run)
        chunks.append(view[start:end])
        size += end - start

    for key in sorted(set(changed)):
        at = bisect_left(keys, key, done)
        copy_rows(at)
        done = at + 1 if at < len(keys) and keys[at] == key else at
        if key in rows:
            line = _dump_row(key, rows[key])
            out_keys.append(key)
            out_offsets.append(size)
            chunks.append(line)
            size += len(line)
    copy_rows(len(keys))
    out_offsets.append(size)
    return _Segment(out_keys, out_offsets, chunks)


def _fsync_file(fh) -> None:
    fh.flush()
    os.fsync(fh.fileno())


class _ChainedFacts(Dataset):
    """All fact segments of a store, scanned back to back."""

    def __init__(self, datasets: list[FlatFileDataset],
                 schema: DatasetSchema) -> None:
        self.schema = schema
        self._datasets = datasets

    def scan(self) -> Iterator[Record]:
        for dataset in self._datasets:
            yield from dataset.scan()

    def __len__(self) -> int:
        return sum(len(dataset) for dataset in self._datasets)


class MeasureStore:
    """A directory of committed measure tables behind one manifest.

    Two kinds of tables are stored, in separate namespaces:

    - ``values`` — finalized measure entries, the servable result of a
      query output;
    - ``states`` — raw basic-node accumulator states, the mergeable
      substrate incremental ingestion folds new fact batches into.

    The store is deliberately schema-agnostic: keys are integer tuples
    and granularities are stored as level vectors.  Binding tables back
    to :class:`~repro.cube.granularity.Granularity` objects is the
    service layer's job (it owns the workflow and therefore the schema).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._segment_dir = os.path.join(path, _SEGMENT_DIR)
        os.makedirs(self._segment_dir, exist_ok=True)
        # Sparse indexes by .idx file name: only live tables' (commit
        # evicts the ones it replaces and seeds the ones it writes).
        self._index_cache: dict[str, _SparseIndex] = {}
        # (kind, name) -> (segment file, row keys, row offsets) for
        # tables last written with a changed-key set: what the next such
        # write needs to splice into that file, valid while the manifest
        # still names it.
        self._images: dict[tuple[str, str], tuple[str, list, array]] = {}
        manifest_path = os.path.join(path, _MANIFEST)
        # A commit that crashed between writing the new manifest and
        # swapping it in leaves a stale (possibly torn) temp file; it
        # was never authoritative, so drop it on open.
        with contextlib.suppress(OSError):
            os.remove(manifest_path + ".tmp")
        if os.path.exists(manifest_path):
            with open(manifest_path, "r", encoding="utf-8") as fh:
                self.manifest = json.load(fh)
            if self.manifest.get("format") != _FORMAT:
                raise StorageError(
                    f"{path}: store format "
                    f"{self.manifest.get('format')!r}, expected {_FORMAT}"
                )
            self._collect_orphans()
        else:
            self.manifest = {
                "format": _FORMAT,
                "generation": 0,
                "next_file": 1,
                "values": {},
                "states": {},
                "facts": [],
                "dirty": {"nodes": {}, "measures": []},
                "meta": {},
            }

    # -- introspection -------------------------------------------------

    @property
    def generation(self) -> int:
        """Commit counter; bumped by every successful manifest swap."""
        return self.manifest["generation"]

    def is_empty(self) -> bool:
        """True until the first commit lands."""
        return self.generation == 0

    def measures(self) -> list[str]:
        """Names of the servable value tables, sorted."""
        return sorted(self.manifest["values"])

    def state_nodes(self) -> list[str]:
        """Names of the persisted basic-node state tables, sorted."""
        return sorted(self.manifest["states"])

    def table_info(self, name: str, kind: str = "values") -> dict:
        """Manifest entry for one table (levels, row count, file)."""
        try:
            return self.manifest[kind][name]
        except KeyError:
            raise StorageError(
                f"store has no {kind} table {name!r}; "
                f"have {sorted(self.manifest[kind])}"
            ) from None

    def levels(self, name: str, kind: str = "values") -> tuple[int, ...]:
        """Granularity level vector a table was committed with."""
        return tuple(self.table_info(name, kind)["levels"])

    def meta(self) -> dict:
        """The free-form metadata blob recorded by commits."""
        return dict(self.manifest["meta"])

    def dirty_nodes(self) -> dict[str, set | None]:
        """Holistic basic nodes awaiting recompute: name → affected keys.

        A value of ``None`` means *all* regions of the node are dirty.
        """
        out: dict[str, set | None] = {}
        for name, keys in self.manifest["dirty"]["nodes"].items():
            out[name] = (
                None if keys is None else {tuple(key) for key in keys}
            )
        return out

    def dirty_measures(self) -> set[str]:
        """Value tables whose contents are stale pending recompute."""
        return set(self.manifest["dirty"]["measures"])

    def segment_count(self) -> int:
        """Live segments the manifest references: one per value table,
        one per state table, one per fact batch (index files are not
        counted — they ride along with their segment)."""
        return (
            len(self.manifest["values"])
            + len(self.manifest["states"])
            + len(self.manifest["facts"])
        )

    # -- reads ---------------------------------------------------------

    def _segment_path(self, info: dict) -> str:
        return os.path.join(self._segment_dir, info["file"])

    def _index_of(self, info: dict) -> _SparseIndex:
        """Load (and cache) a segment's sparse index.

        Segment files are immutable once committed, so caching by file
        name is safe across generations.
        """
        cached = self._index_cache.get(info["index"])
        if cached is None:
            path = os.path.join(self._segment_dir, info["index"])
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
            entries = loaded["entries"]
            cached = _SparseIndex(
                loaded["every"],
                [tuple(entry[0]) for entry in entries],
                [entry[1] for entry in entries],
            )
            self._index_cache[info["index"]] = cached
        return cached

    def read_table(self, name: str, kind: str = "values") -> dict:
        """Load one table fully: ``{region key: value}``."""
        info = self.table_info(name, kind)
        table: dict = {}
        with open(self._segment_path(info), "rb") as fh:
            for line in fh:
                key, value = _load_row(line)
                table[key] = value
        return table

    def iter_table(
        self, name: str, kind: str = "values"
    ) -> Iterator[tuple[tuple, object]]:
        """Stream one table's rows in ascending key order."""
        info = self.table_info(name, kind)
        with open(self._segment_path(info), "rb") as fh:
            for line in fh:
                yield _load_row(line)

    def point(self, name: str, key: tuple, kind: str = "values"):
        """Disk point lookup through the sparse index.

        Raises:
            KeyError: if the table holds no entry for ``key``.
        """
        info = self.table_info(name, kind)
        index = self._index_of(info)
        key = tuple(key)
        slot = bisect_right(index.keys, key) - 1
        if slot < 0:
            raise KeyError(key)
        with open(self._segment_path(info), "rb") as fh:
            fh.seek(index.offsets[slot])
            for __ in range(index.every):
                line = fh.readline()
                if not line:
                    break
                row_key, value = _load_row(line)
                if row_key == key:
                    return value
                if row_key > key:
                    break
        raise KeyError(key)

    def scan_prefix(
        self, name: str, prefix: tuple = (), kind: str = "values"
    ) -> list[tuple[tuple, object]]:
        """All rows whose key starts with ``prefix``, in key order.

        An empty prefix returns the whole table.  The sparse index
        bounds the scan's starting point; the scan stops at the first
        key past the prefix (keys are sorted).
        """
        info = self.table_info(name, kind)
        prefix = tuple(prefix)
        width = len(prefix)
        rows: list[tuple[tuple, object]] = []
        start = 0
        if width:
            index = self._index_of(info)
            # The last index entry strictly before the prefix region is
            # a safe starting point: a shorter tuple compares less than
            # any tuple it prefixes, so bisect_right on the raw prefix
            # lands at the first key that could match.
            slot = bisect_right(index.keys, prefix) - 1
            if slot >= 0:
                start = index.offsets[slot]
        with open(self._segment_path(info), "rb") as fh:
            fh.seek(start)
            for line in fh:
                key, value = _load_row(line)
                head = key[:width]
                if head < prefix:
                    continue
                if head > prefix:
                    break
                rows.append((key, value))
        return rows

    def measure_table(
        self, name: str, granularity: Granularity
    ) -> MeasureTable:
        """Materialize a value table as a :class:`MeasureTable`."""
        return MeasureTable(name, granularity, rows=self.read_table(name))

    # -- facts ---------------------------------------------------------

    def fact_count(self) -> int:
        """Total records across all committed fact segments."""
        return sum(entry["rows"] for entry in self.manifest["facts"])

    def fact_dataset(self, schema: DatasetSchema) -> Dataset:
        """Every committed fact batch, as one scannable dataset."""
        datasets = [
            FlatFileDataset(
                os.path.join(self._segment_dir, entry["file"]), schema
            )
            for entry in self.manifest["facts"]
        ]
        return _ChainedFacts(datasets, schema)

    # -- writes --------------------------------------------------------

    def begin(self) -> "StoreCommit":
        """Start staging one atomic commit."""
        return StoreCommit(self)

    # -- housekeeping --------------------------------------------------

    def _referenced_files(self) -> set[str]:
        files: set[str] = set()
        for namespace in ("values", "states"):
            for info in self.manifest[namespace].values():
                files.add(info["file"])
                files.add(info["index"])
        for entry in self.manifest["facts"]:
            files.add(entry["file"])
        return files

    def _collect_orphans(self) -> None:
        """Delete segment files the manifest does not reference.

        This is the recovery half of the commit protocol: segments of a
        commit that crashed before its manifest swap are invisible (the
        manifest never pointed at them) and reclaimed here.
        """
        fire(FP_OPEN_GC)
        referenced = self._referenced_files()
        try:
            present = os.listdir(self._segment_dir)
        except OSError:
            return
        for filename in present:
            if filename not in referenced:
                with contextlib.suppress(OSError):
                    os.remove(
                        os.path.join(self._segment_dir, filename)
                    )


class StoreCommit:
    """One staged, atomic store mutation.

    Stage any number of table writes, fact appends, dirty-set changes,
    and metadata updates, then :meth:`commit`.  Data files land on disk
    as they are staged (fsynced, but unreferenced); nothing becomes
    visible until the manifest swap.  :meth:`abort` (or crashing)
    leaves the store exactly as it was, and so does a :meth:`commit`
    that fails before its swap.
    """

    def __init__(self, store: MeasureStore) -> None:
        self.store = store
        self._next_file = store.manifest["next_file"]
        self._staged_values: dict[str, dict] = {}
        self._staged_states: dict[str, dict] = {}
        self._staged_facts: list[dict] = []
        self._dirty_nodes = {
            name: (None if keys is None else [list(k) for k in keys])
            for name, keys in store.dirty_nodes().items()
        }
        self._dirty_measures = set(store.dirty_measures())
        self._meta_updates: dict = {}
        self._staged_files: list[str] = []
        # (kind, name) -> image of changed-key writes, and .idx file ->
        # sparse index of every table write.
        self._staged_images: dict[tuple[str, str], tuple[str, list, array]] = {}
        self._staged_indexes: dict[str, _SparseIndex] = {}
        self._done = False
        self._swapped = False

    def _claim_file(self, prefix: str, suffix: str) -> str:
        name = f"{prefix}{self._next_file:06d}{suffix}"
        self._next_file += 1
        self._staged_files.append(name)
        return name

    def _write_segment(self, segment: _Segment) -> tuple[str, str]:
        seg_name = self._claim_file("t", ".seg")
        idx_name = seg_name[:-4] + ".idx"
        self._staged_files.append(idx_name)
        seg_path = os.path.join(self.store._segment_dir, seg_name)
        idx_path = os.path.join(self.store._segment_dir, idx_name)
        with open(seg_path, "wb") as fh:
            fh.writelines(segment.chunks)
            fire(FP_SEGMENT_WRITE, path=seg_path)
            _fsync_file(fh)
        fire(FP_SEGMENT_FSYNC, path=seg_path)
        count = len(segment.keys)
        index = _SparseIndex(
            INDEX_EVERY,
            segment.keys[::INDEX_EVERY],
            list(segment.offsets[:count:INDEX_EVERY]),
        )
        with open(idx_path, "w", encoding="utf-8") as fh:
            # One ``dumps`` call runs the C encoder; ``json.dump`` to a
            # file streams through the pure-Python one (same text).
            fh.write(json.dumps(
                {
                    "every": INDEX_EVERY,
                    "entries": [
                        [list(key), offset]
                        for key, offset in zip(index.keys, index.offsets)
                    ],
                    "rows": count,
                }
            ))
            _fsync_file(fh)
        self._staged_indexes[idx_name] = index
        return seg_name, idx_name

    def _put_table(
        self, kind: str, name: str, granularity: Granularity, rows: dict,
        changed, **extra,
    ) -> None:
        """Stage ``rows`` as table ``name`` of namespace ``kind``.

        With ``changed`` — the keys whose rows may differ from the
        committed table — an empty set stages nothing, and otherwise
        the write splices those rows into the committed segment when
        this store wrote it the same way (so it knows the segment's row
        keys and offsets).  Without it, or without that, every row is
        encoded.  Both give the same files.
        """
        store = self.store
        committed = store.manifest[kind].get(name)
        segment = None
        if changed is not None and committed is not None:
            if not changed:
                return
            image = store._images.get((kind, name))
            if image is not None and image[0] == committed["file"]:
                file, keys, offsets = image
                with open(os.path.join(store._segment_dir, file), "rb") as fh:
                    data = fh.read()
                if len(data) == offsets[-1]:
                    segment = _splice(keys, offsets, data, rows, changed)
        if segment is None:
            segment = _encode(rows)
        seg, idx = self._write_segment(segment)
        if changed is not None:
            self._staged_images[(kind, name)] = (
                seg, segment.keys, segment.offsets
            )
        staged = (
            self._staged_values if kind == "values" else self._staged_states
        )
        staged[name] = {
            "file": seg,
            "index": idx,
            "levels": list(granularity.levels),
            "rows": len(segment.keys),
            **extra,
        }

    def put_values(
        self, name: str, granularity: Granularity, rows: dict,
        changed: Iterable[tuple] | None = None,
    ) -> None:
        """Stage one servable measure table (replaces any prior one).

        ``changed``, when given, holds every key whose row may differ
        from the committed table (a key missing from ``rows`` is a
        removal); the write then costs in proportion to it.
        """
        self._put_table("values", name, granularity, rows, changed)

    def put_states(
        self, name: str, granularity: Granularity, rows: dict,
        agg_name: str = "", changed: Iterable[tuple] | None = None,
    ) -> None:
        """Stage one basic node's accumulator-state table
        (``changed`` as for :meth:`put_values`)."""
        self._put_table(
            "states", name, granularity, rows, changed, agg=agg_name
        )

    def append_facts(
        self, schema: DatasetSchema, records: Iterable[Record]
    ) -> int:
        """Stage one fact batch as a new flat-file segment."""
        name = self._claim_file("f", ".bin")
        path = os.path.join(self.store._segment_dir, name)
        count = write_flatfile(path, schema, records)
        with open(path, "rb") as fh:
            os.fsync(fh.fileno())
        fire(FP_FACTS_APPEND, path=path)
        self._staged_facts.append({"file": name, "rows": count})
        return count

    def mark_dirty(
        self, node: str, keys: Iterable[tuple] | None
    ) -> None:
        """Mark a basic node's regions dirty (``None`` = all regions)."""
        if keys is None:
            self._dirty_nodes[node] = None
            return
        existing = self._dirty_nodes.get(node)
        if existing is None and node in self._dirty_nodes:
            return  # already fully dirty
        merged = {tuple(k) for k in (existing or [])}
        merged.update(tuple(k) for k in keys)
        self._dirty_nodes[node] = [list(k) for k in sorted(merged)]

    def mark_measure_dirty(self, name: str) -> None:
        """Flag a value table as stale pending lazy recompute."""
        self._dirty_measures.add(name)

    def clear_dirty(self) -> None:
        """Drop all dirty markers (after a successful recompute)."""
        self._dirty_nodes = {}
        self._dirty_measures = set()

    def update_meta(self, updates: dict) -> None:
        """Merge keys into the manifest's free-form metadata blob."""
        self._meta_updates.update(updates)

    def abort(self) -> None:
        """Discard the staged commit: remove its data files and any temp
        manifest.  Once the manifest swap has happened this does
        nothing — the staged files are then the store's."""
        self._done = True
        if self._swapped:
            return
        for name in self._staged_files:
            with contextlib.suppress(OSError):
                os.remove(os.path.join(self.store._segment_dir, name))
        with contextlib.suppress(OSError):
            os.remove(os.path.join(self.store.path, _MANIFEST + ".tmp"))

    def commit(self) -> int:
        """Swap the new manifest in atomically; returns the generation.

        Everything staged becomes visible at once; segment files
        replaced by this commit are deleted afterwards (failures there
        are harmless — the next open garbage-collects orphans).  A
        commit that fails before the swap aborts itself.
        """
        if self._done:
            raise StorageError("commit object already finished")
        self._done = True
        started = time.perf_counter()
        store = self.store
        old_manifest = store.manifest
        manifest = {
            "format": _FORMAT,
            "generation": old_manifest["generation"] + 1,
            "next_file": self._next_file,
            "values": dict(old_manifest["values"]),
            "states": dict(old_manifest["states"]),
            "facts": list(old_manifest["facts"]) + self._staged_facts,
            "dirty": {
                "nodes": self._dirty_nodes,
                "measures": sorted(self._dirty_measures),
            },
            "meta": {**old_manifest["meta"], **self._meta_updates},
        }
        replaced: list[dict] = []
        for name, info in self._staged_values.items():
            if name in manifest["values"]:
                replaced.append(manifest["values"][name])
            manifest["values"][name] = info
        for name, info in self._staged_states.items():
            if name in manifest["states"]:
                replaced.append(manifest["states"][name])
            manifest["states"][name] = info

        manifest_path = os.path.join(store.path, _MANIFEST)
        tmp_path = manifest_path + ".tmp"
        try:
            with open(tmp_path, "w", encoding="utf-8") as fh:
                json.dump(manifest, fh)
                _fsync_file(fh)
            fire(FP_MANIFEST_WRITE, path=tmp_path)
            os.replace(tmp_path, manifest_path)
        except BaseException:
            self.abort()
            raise
        self._swapped = True
        store.manifest = manifest
        self._install(replaced)
        try:
            # No path here: post-swap the manifest is authoritative, and
            # a torn authoritative manifest is outside the protocol's
            # fault model (fsync + atomic replace rule it out).
            fire(FP_MANIFEST_SWAP)
            fire(FP_REPLACED_GC)
        finally:
            for info in replaced:
                for filename in (info["file"], info["index"]):
                    with contextlib.suppress(OSError):
                        os.remove(
                            os.path.join(store._segment_dir, filename)
                        )
        duration = time.perf_counter() - started
        registry = get_registry()
        registry.histogram(
            STORE_COMMIT_SECONDS,
            "Manifest-swap commit latency of the measure store",
        ).observe(duration)
        registry.gauge(
            STORE_GENERATION, "Committed generation of the measure store"
        ).set(manifest["generation"])
        registry.gauge(
            STORE_SEGMENTS,
            "Live segments (value + state tables and fact batches)",
        ).set(store.segment_count())
        registry.gauge(
            STORE_FACTS, "Fact records across all committed batches"
        ).set(store.fact_count())
        get_tracer().add_complete(
            "store:commit",
            cat="store",
            start_perf=started,
            duration=duration,
            args={"generation": manifest["generation"]},
        )
        return manifest["generation"]

    def _install(self, replaced: list[dict]) -> None:
        """Point the store's in-memory caches at what was just swapped
        in: indexes of replaced tables go, those written are seeded,
        and splice bases follow their tables."""
        store = self.store
        cache = store._index_cache
        for info in replaced:
            cache.pop(info["index"], None)
        for kind, staged in (
            ("values", self._staged_values), ("states", self._staged_states)
        ):
            for name, info in staged.items():
                cache[info["index"]] = self._staged_indexes[info["index"]]
                store._images.pop((kind, name), None)
        store._images.update(self._staged_images)


class StoreSink(Sink):
    """A sink that flushes an engine run straight into a store.

    Wire any engine's output into a persistent store in one line::

        engine.evaluate(dataset, workflow, sink=StoreSink(store))

    Finalized entries become ``values`` tables; when the engine offers
    partial-state capture (the one-pass sort/scan engine does), raw
    basic-node accumulator states for distributive/algebraic aggregates
    become ``states`` tables — the substrate of incremental ingestion.
    Everything lands in one atomic commit at :meth:`close`.

    Args:
        store: Destination store.
        meta: Optional metadata merged into the manifest on commit.
        state_aggs: Optional ``{basic node name: aggregate}`` map; when
            given, captured states are persisted only for nodes whose
            aggregate is not holistic (holistic exact states grow with
            the group and are recomputed from facts instead), and the
            aggregate name is recorded with each state table.
        autocommit: Commit on :meth:`close` (the default).  The
            ingestion layer disables this and stages the sink's tables
            into a wider commit (tables + fact batch, atomically) via
            :meth:`stage_into`.
    """

    wants_states = True

    def __init__(
        self,
        store: MeasureStore,
        meta: dict | None = None,
        state_aggs: dict | None = None,
        autocommit: bool = True,
    ) -> None:
        self.store = store
        self.meta = meta or {}
        self.state_aggs = state_aggs
        self.autocommit = autocommit
        self.tables: dict[str, MeasureTable] = {}
        self.states: dict[str, MeasureTable] = {}
        self.committed_generation: int | None = None

    def open_measure(self, name: str, granularity: Granularity) -> None:
        self.tables.setdefault(name, MeasureTable(name, granularity))

    def emit(self, name: str, key: tuple, value) -> None:
        self.tables[name].rows[key] = value

    def open_states(self, name: str, granularity: Granularity) -> None:
        self.states.setdefault(name, MeasureTable(name, granularity))

    def emit_state(self, name: str, key: tuple, state) -> None:
        self.states[name].rows[key] = state

    def _persistable_state(self, name: str) -> str | None:
        """Agg name if this node's states should be persisted."""
        from repro.aggregates.base import Kind

        if self.state_aggs is None:
            return ""
        agg = self.state_aggs.get(name)
        if agg is None or agg.kind is Kind.HOLISTIC:
            return None
        return agg.name

    def stage_into(self, commit: StoreCommit) -> None:
        """Stage the collected tables into an externally managed commit."""
        for name, table in self.tables.items():
            commit.put_values(name, table.granularity, table.rows)
        for name, table in self.states.items():
            agg_name = self._persistable_state(name)
            if agg_name is None:
                continue
            commit.put_states(
                name, table.granularity, table.rows, agg_name=agg_name
            )
        if self.meta:
            commit.update_meta(self.meta)

    def close(self) -> None:
        if not self.autocommit:
            return
        commit = self.store.begin()
        self.stage_into(commit)
        self.committed_generation = commit.commit()

    def result(self) -> dict[str, MeasureTable]:
        return self.tables
