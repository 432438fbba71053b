"""Unit tests for the columnar batch substrate (repro.storage.columnar)."""

from __future__ import annotations

import pytest

from repro.cube.granularity import Granularity
from repro.schema.dataset_schema import synthetic_schema
from repro.schema.domain import ALL_VALUE
from repro.storage.columnar import (
    HAVE_NUMPY,
    RecordBatch,
    batches_from_records,
    default_batch_size,
    group_runs,
    key_columns,
    lift_columns,
    map_column,
    resolve_batch_size,
    row_keys,
    sorted_runs,
)
from repro.storage.flatfile import FlatFileDataset, write_flatfile
from repro.storage.table import InMemoryDataset

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="vectorized path requires numpy"
)


@pytest.fixture(scope="module")
def schema():
    return synthetic_schema(num_dimensions=3, levels=3, fanout=4)


def _records(schema, count, seed=0):
    import random

    rng = random.Random(seed)
    return [
        (
            rng.randrange(64),
            rng.randrange(64),
            rng.randrange(64),
            rng.random(),
        )
        for __ in range(count)
    ]


class TestResolveBatchSize:
    def test_none_is_auto(self):
        assert resolve_batch_size(None) == default_batch_size()

    def test_zero_and_negative_force_scalar(self):
        assert resolve_batch_size(0) == 0
        assert resolve_batch_size(-5) == 0

    @needs_numpy
    def test_positive_is_honored(self):
        assert resolve_batch_size(123) == 123

    @needs_numpy
    def test_auto_is_vectorized_with_numpy(self):
        assert default_batch_size() > 0


class TestRecordBatch:
    def test_round_trips_records(self, schema):
        records = _records(schema, 10)
        batch = RecordBatch.from_records(schema, records)
        assert len(batch) == 10
        assert batch.python_rows() == records

    def test_empty(self, schema):
        batch = RecordBatch.from_records(schema, [])
        assert len(batch) == 0
        assert batch.python_rows() == []
        assert list(batch.iter_records()) == []

    @needs_numpy
    def test_numeric_records_become_vectors(self, schema):
        batch = RecordBatch.from_records(schema, _records(schema, 8))
        assert batch.vector

    def test_none_measures_stay_list_backed(self, schema):
        # SQL NULL measures must survive — numpy would coerce to NaN.
        records = [(1, 2, 3, None), (4, 5, 6, 1.5)]
        batch = RecordBatch.from_records(schema, records)
        assert not batch.vector
        assert batch.python_rows() == records

    def test_slice(self, schema):
        records = _records(schema, 10)
        batch = RecordBatch.from_records(schema, records)
        part = batch.slice(3, 7)
        assert part.python_rows() == records[3:7]
        # Sliced past the end clamps; the full slice is the batch.
        assert batch.slice(0, 99) is batch
        assert len(batch.slice(8, 99)) == 2

    def test_python_rows_are_plain_scalars(self, schema):
        batch = RecordBatch.from_records(schema, _records(schema, 4))
        for row in batch.python_rows():
            assert all(
                type(value) in (int, float) for value in row
            )


class TestBatchesFromRecords:
    @pytest.mark.parametrize("count", [0, 1, 7, 8, 9])
    def test_chunking_covers_everything(self, schema, count):
        records = _records(schema, count)
        batches = list(batches_from_records(schema, records, 4))
        assert sum(len(b) for b in batches) == count
        flattened = [
            row for b in batches for row in b.python_rows()
        ]
        assert flattened == records

    def test_generator_input(self, schema):
        records = _records(schema, 10)
        batches = list(
            batches_from_records(schema, iter(records), 3)
        )
        assert [len(b) for b in batches] == [3, 3, 3, 1]

    def test_rejects_nonpositive_size(self, schema):
        with pytest.raises(ValueError):
            list(batches_from_records(schema, [], 0))


@needs_numpy
class TestMapColumn:
    def test_matches_scalar_generalize(self, schema):
        import numpy as np

        dim = schema.dimensions[0]
        column = np.arange(64, dtype=np.int64)
        for to_level in range(dim.all_level + 1):
            mapped = map_column(dim.hierarchy, 0, to_level, column)
            expected = [
                dim.hierarchy.generalize(int(v), 0, to_level)
                for v in column
            ]
            assert mapped.tolist() == expected

    def test_generic_lut_fallback(self, schema):
        import numpy as np

        dim = schema.dimensions[0]

        class NoFastPath:
            all_level = dim.hierarchy.all_level

            def array_mapper(self, from_level, to_level):
                return None

            def mapper(self, from_level, to_level):
                return dim.hierarchy.mapper(from_level, to_level)

        column = np.array([5, 5, 63, 0, 5], dtype=np.int64)
        mapped = map_column(NoFastPath(), 0, 1, column)
        scalar = dim.hierarchy.mapper(0, 1)
        assert mapped.tolist() == [scalar(int(v)) for v in column]

    def test_key_columns_all_slots_are_none(self, schema):
        batch = RecordBatch.from_records(schema, _records(schema, 6))
        gran = Granularity(
            schema,
            [1, schema.dimensions[1].all_level, 0],
        )
        cols = key_columns(gran, batch)
        assert cols[1] is None
        assert cols[0] is not None and cols[2] is not None


@needs_numpy
class TestGroupRuns:
    def test_first_appearance_order(self, schema):
        import numpy as np

        keys = [np.array([2, 1, 2, 3, 1, 2], dtype=np.int64)]
        order, sorted_keys, starts, ends = group_runs(keys, 6)
        seen = [int(sorted_keys[0][s]) for s in starts]
        # Scalar scan sees 2 first, then 1, then 3.
        assert seen == [2, 1, 3]
        # Runs cover every row exactly once.
        assert sorted(
            (int(s), int(e)) for s, e in zip(starts, ends)
        ) == [(0, 2), (2, 5), (5, 6)]

    def test_rows_within_run_keep_scan_order(self, schema):
        import numpy as np

        keys = [np.array([1, 1, 0, 1], dtype=np.int64)]
        values = np.array([10.0, 20.0, 30.0, 40.0])
        order, sorted_keys, starts, ends = group_runs(keys, 4)
        ordered = values[order]
        runs = {
            int(sorted_keys[0][s]): ordered[s:e].tolist()
            for s, e in zip(starts, ends)
        }
        assert runs == {1: [10.0, 20.0, 40.0], 0: [30.0]}


@needs_numpy
class TestSortedRunsAndLifts:
    def test_runs_come_in_key_order(self, schema):
        import numpy as np

        keys = [
            np.array([2, 1, 2, 1, 2], dtype=np.int64),
            np.array([0, 5, 0, 3, 1], dtype=np.int64),
        ]
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        order, sorted_keys, starts, ends = sorted_runs(keys, 5)
        seen = [
            (int(sorted_keys[0][s]), int(sorted_keys[1][s]))
            for s in starts
        ]
        assert seen == sorted({(2, 0), (1, 5), (1, 3), (2, 1)})
        # Stable: the two (2, 0) rows keep their scan order.
        run = seen.index((2, 0))
        assert values[order][starts[run] : ends[run]].tolist() == [1.0, 3.0]

    def test_lift_columns_matches_lift_fn(self, schema):
        import numpy as np

        all_level = schema.dimensions[1].all_level
        fine = Granularity(schema, [0, 1, all_level])
        coarse = Granularity(schema, [1, all_level, all_level])
        columns = [
            np.arange(0, 64, 7, dtype=np.int64),
            np.arange(10, dtype=np.int64),
            None,
        ]
        lifted = lift_columns(coarse, fine, columns)
        assert lifted[1] is None and lifted[2] is None
        lift = coarse.lift_fn(fine)
        assert row_keys(lifted, 10) == [
            lift(key) for key in row_keys(columns, 10)
        ]

    def test_row_keys_are_plain_full_width_tuples(self, schema):
        import numpy as np

        keys = row_keys([np.array([3, 4], dtype=np.int64), None, None], 2)
        assert keys == [(3, ALL_VALUE, ALL_VALUE), (4, ALL_VALUE, ALL_VALUE)]
        assert all(type(part) is int for key in keys for part in key)


class TestScanBatches:
    @pytest.mark.parametrize("batch_size", [1, 7, 4096])
    def test_inmemory_matches_scan(self, schema, batch_size):
        dataset = InMemoryDataset(schema, _records(schema, 23))
        rows = [
            row
            for batch in dataset.scan_batches(batch_size)
            for row in batch.python_rows()
        ]
        assert rows == list(dataset.scan())

    @pytest.mark.parametrize("batch_size", [1, 7, 4096])
    def test_flatfile_matches_scan(self, schema, tmp_path, batch_size):
        records = _records(schema, 23)
        path = str(tmp_path / "facts.bin")
        write_flatfile(path, schema, records)
        dataset = FlatFileDataset(path, schema)
        rows = [
            row
            for batch in dataset.scan_batches(batch_size)
            for row in batch.python_rows()
        ]
        assert rows == list(dataset.scan())

    @needs_numpy
    def test_flatfile_batches_are_vectors(self, schema, tmp_path):
        path = str(tmp_path / "facts.bin")
        write_flatfile(path, schema, _records(schema, 10))
        for batch in FlatFileDataset(path, schema).scan_batches(4):
            assert batch.vector
