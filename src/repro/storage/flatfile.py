"""Flat-file fact tables: binary fixed-width records, plus CSV.

The paper stores datasets "in flat files as the input for our
algorithm".  The binary format here is fixed-width ``struct`` records —
``int64`` per dimension, ``float64`` per measure — behind a small header
carrying a magic number, a format version, and the field layout, so a
reader can detect schema mismatches instead of silently mis-parsing.
"""

from __future__ import annotations

import csv
import os
import struct
from collections.abc import Iterable, Iterator

from repro.errors import StorageError
from repro.schema.dataset_schema import DatasetSchema, Record
from repro.storage.columnar import (
    DEFAULT_BATCH_SIZE,
    HAVE_NUMPY,
    RecordBatch,
    np,
)
from repro.storage.table import Dataset

_MAGIC = b"AWRA"
_VERSION = 1
_HEADER = struct.Struct("<4sHHI")  # magic, version, width, num_dims
_BATCH = 4096


def _record_struct(schema: DatasetSchema) -> struct.Struct:
    fmt = "<" + "q" * schema.num_dimensions + "d" * len(schema.measures)
    return struct.Struct(fmt)


def record_dtype(schema: DatasetSchema):
    """One flat-file record as a numpy structured dtype: fields ``d<i>``
    (``int64``) per dimension, then ``m<j>`` (``float64``) per measure."""
    fields = [(f"d{i}", "<i8") for i in range(schema.num_dimensions)]
    fields += [(f"m{j}", "<f8") for j in range(len(schema.measures))]
    return np.dtype(fields)


def write_header(fh, schema: DatasetSchema) -> None:
    """Start a flat file: the header a :class:`FlatFileDataset` checks.
    Records follow back to back, written by :func:`write_flatfile` or as
    :func:`record_dtype` arrays (``ndarray.tofile``)."""
    fh.write(
        _HEADER.pack(
            _MAGIC, _VERSION, schema.record_width, schema.num_dimensions
        )
    )


def write_flatfile(
    path: str, schema: DatasetSchema, records: Iterable[Record]
) -> int:
    """Write records to a binary flat file; returns the record count."""
    rec_struct = _record_struct(schema)
    count = 0
    with open(path, "wb") as fh:
        write_header(fh, schema)
        buffer = bytearray()
        for record in records:
            buffer += rec_struct.pack(*record)
            count += 1
            if count % _BATCH == 0:
                fh.write(buffer)
                buffer.clear()
        fh.write(buffer)
    return count


class FlatFileDataset(Dataset):
    """A binary flat-file fact table supporting repeated scans."""

    def __init__(self, path: str, schema: DatasetSchema) -> None:
        if not os.path.exists(path):
            raise StorageError(f"no such flat file: {path}")
        self.path = path
        self.schema = schema
        self._struct = _record_struct(schema)
        with open(path, "rb") as fh:
            header = fh.read(_HEADER.size)
            if len(header) < _HEADER.size:
                raise StorageError(f"{path}: truncated header")
            magic, version, width, num_dims = _HEADER.unpack(header)
            if magic != _MAGIC:
                raise StorageError(f"{path}: not an AWRA flat file")
            if version != _VERSION:
                raise StorageError(
                    f"{path}: format version {version}, expected {_VERSION}"
                )
            if width != schema.record_width or num_dims != (
                schema.num_dimensions
            ):
                raise StorageError(
                    f"{path}: layout ({num_dims} dims, width {width}) does "
                    f"not match schema ({schema.num_dimensions} dims, "
                    f"width {schema.record_width})"
                )
        payload = os.path.getsize(path) - _HEADER.size
        if payload % self._struct.size:
            raise StorageError(f"{path}: truncated record data")
        self._count = payload // self._struct.size

    def __getstate__(self):
        """Pickle ``(path, schema)`` only: ``struct.Struct`` objects are
        not picklable, and re-validating the header in the receiving
        process catches files that vanished in transit."""
        return (self.path, self.schema)

    def __setstate__(self, state) -> None:
        path, schema = state
        self.__init__(path, schema)

    def scan(self) -> Iterator[Record]:
        rec_size = self._struct.size
        with open(self.path, "rb") as fh:
            fh.seek(_HEADER.size)
            while True:
                chunk = fh.read(rec_size * _BATCH)
                if not chunk:
                    return
                if len(chunk) % rec_size:
                    raise StorageError(
                        f"{self.path}: torn read mid-record"
                    )
                yield from self._struct.iter_unpack(chunk)

    def scan_batches(
        self, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator["RecordBatch"]:
        """Decode whole batches column-wise with one ``frombuffer``.

        Each chunk of ``batch_size`` records becomes a numpy structured
        array view over the read buffer; the per-field views are the
        batch columns — no per-record ``struct`` unpacking at all.
        Falls back to the generic record-chunking path without numpy.
        """
        if not HAVE_NUMPY:
            yield from super().scan_batches(batch_size)
            return
        if batch_size <= 0:
            raise StorageError("batch_size must be positive")
        schema = self.schema
        dtype = record_dtype(schema)
        rec_size = self._struct.size
        with open(self.path, "rb") as fh:
            fh.seek(_HEADER.size)
            while True:
                chunk = fh.read(rec_size * batch_size)
                if not chunk:
                    return
                if len(chunk) % rec_size:
                    raise StorageError(
                        f"{self.path}: torn read mid-record"
                    )
                rows = np.frombuffer(chunk, dtype=dtype)
                columns = [rows[name] for name in dtype.names]
                yield RecordBatch(schema, columns, len(rows))

    def __len__(self) -> int:
        return self._count


def write_csv(
    path: str, schema: DatasetSchema, records: Iterable[Record]
) -> int:
    """Write records as CSV with a header row; returns record count."""
    count = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [d.name for d in schema.dimensions] + list(schema.measures)
        )
        for record in records:
            writer.writerow(record)
            count += 1
    return count


def read_csv(path: str, schema: DatasetSchema) -> Iterator[Record]:
    """Read a CSV written by :func:`write_csv`, validating the header."""
    expected = [d.name for d in schema.dimensions] + list(schema.measures)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected:
            raise StorageError(
                f"{path}: header {header} does not match schema {expected}"
            )
        num_dims = schema.num_dimensions
        for row_number, row in enumerate(reader, start=2):
            if len(row) != len(expected):
                raise StorageError(
                    f"{path}:{row_number}: {len(row)} fields, expected "
                    f"{len(expected)}"
                )
            try:
                dims = tuple(int(cell) for cell in row[:num_dims])
                measures = tuple(float(cell) for cell in row[num_dims:])
            except ValueError as exc:
                raise StorageError(
                    f"{path}:{row_number}: malformed value ({exc})"
                ) from None
            yield dims + measures
