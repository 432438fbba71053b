"""The spilled sort path: sort/scan over input larger than one run.

Oversized input goes through the columnar external sort
(:func:`repro.storage.external_sort.sort_dataset`): stable-lexsorted
runs spilled as fixed-width blocks, merged block by block into a
flat-file spool.  These tests pin what the scan must not be able to
tell apart — the sorted stream (tie order included), the tables, and
the footprint counters equal the in-memory sort's — and that a sort
that dies leaves nothing behind in the temp directory.
"""

from __future__ import annotations

import importlib
import math
import os
import random
import tempfile

import pytest

from repro.cube.order import SortKey
from repro.engine.multi_pass import MultiPassEngine
from repro.engine.naive import RelationalEngine
from repro.engine.partitioned import PartitionedEngine
from repro.engine.sort_scan import SortScanEngine
from repro.schema.dataset_schema import synthetic_schema
from repro.storage.columnar import HAVE_NUMPY
from repro.storage.external_sort import sort_dataset
from repro.storage.table import InMemoryDataset
from repro.testkit import FailPointError, failpoint
from repro.workflow.workflow import AggregationWorkflow

# ``repro.storage`` re-exports the function under the module's name.
external_sort_module = importlib.import_module("repro.storage.external_sort")
needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")

ROWS = 700


@pytest.fixture(scope="module")
def schema():
    return synthetic_schema(num_dimensions=3, levels=3, fanout=4)


def _dataset(schema, count=ROWS, cardinality=4, seed=0, nulls=0):
    """Low-cardinality facts: long equal-key ranges under any sort key.
    The measure is the row's input position (or ``None`` on every
    ``nulls``-th row), so tie order is visible in the sorted stream."""
    rng = random.Random(seed)
    return InMemoryDataset(
        schema,
        [
            (
                rng.randrange(cardinality),
                rng.randrange(cardinality),
                rng.randrange(cardinality),
                None if nulls and i % nulls == 0 else float(i),
            )
            for i in range(count)
        ],
    )


def _workflow(schema):
    wf = AggregationWorkflow(schema, name="spilled")
    wf.basic("sum_fine", {"d0": "d0.L0", "d1": "d1.L0"}, agg=("sum", "v"))
    wf.basic("cnt_mid", {"d1": "d1.L1"}, agg="count")
    wf.basic("med", {"d2": "d2.L0"}, agg=("median", "v"))
    wf.rollup("sum_up", {"d0": "d0.L1"}, source="sum_fine", agg="sum")
    wf.moving_window(
        "trend", {"d0": "d0.L1"}, source="sum_up",
        windows={"d0": (0, 1)}, agg="avg",
    )
    return wf


def _tables(result):
    return {name: table.rows for name, table in result.tables.items()}


@pytest.fixture()
def small_blocks(monkeypatch):
    """Merge blocks of 5 rows, so equal-key ranges straddle blocks."""
    monkeypatch.setattr(external_sort_module, "MERGE_BLOCK_ROWS", 5)


@pytest.fixture()
def private_tmp(tmp_path, monkeypatch):
    """Point ``tempfile`` at an empty directory and hand it out."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return tmp_path


@needs_numpy
class TestSortedStream:
    @pytest.mark.parametrize("runs", [1, 2, 5])
    @pytest.mark.parametrize("block_rows", [1, 3, 64])
    @pytest.mark.parametrize(
        "parts",
        [[(0, 1)], [(0, 0), (1, 2)], [(2, 1), (0, 2), (1, 0)]],
    )
    def test_stream_is_the_stable_sort(
        self, schema, runs, block_rows, parts, private_tmp, monkeypatch
    ):
        monkeypatch.setattr(
            external_sort_module, "MERGE_BLOCK_ROWS", block_rows
        )
        dataset = _dataset(schema, cardinality=3)
        key = SortKey(schema, parts)
        run_size = math.ceil(ROWS / runs)
        ordered = sort_dataset(dataset, key, run_size=run_size)
        try:
            assert ordered.runs == (runs if runs > 1 else 0)
            assert list(ordered.records()) == sorted(
                dataset.records, key=key.record_mapper()
            )
        finally:
            ordered.close()
        assert os.listdir(private_tmp) == []

    @pytest.mark.parametrize("batch_size", [1, 7, 4096])
    def test_batches_cut_every_batch_size_rows(
        self, schema, batch_size, small_blocks
    ):
        dataset = _dataset(schema)
        key = SortKey(schema, [(1, 1), (0, 0)])
        ordered = sort_dataset(dataset, key, run_size=150)
        try:
            batches = list(ordered.batches(batch_size))
        finally:
            ordered.close()
        assert [len(b) for b in batches[:-1]] == [batch_size] * (
            len(batches) - 1
        )
        rows = [row for batch in batches for row in batch.python_rows()]
        assert rows == sorted(dataset.records, key=key.record_mapper())

    def test_one_run_never_touches_disk(self, schema, private_tmp):
        dataset = _dataset(schema)
        ordered = sort_dataset(
            dataset, SortKey(schema, [(0, 0)]), run_size=ROWS
        )
        assert ordered.runs == 0 and ordered.spool is None
        assert os.listdir(private_tmp) == []
        ordered.close()


@needs_numpy
class TestSpilledScan:
    # 150 rows a run: 5 runs of ROWS, not a multiple of any batch size.
    @pytest.mark.parametrize("run_size", [ROWS - 1, 350, 150])
    @pytest.mark.parametrize("batch_size", [0, 1, 7, 4096])
    def test_tables_and_footprint_equal_in_memory(
        self, schema, run_size, batch_size, small_blocks
    ):
        dataset = _dataset(schema)
        wf = _workflow(schema)
        in_memory = SortScanEngine(batch_size=batch_size).evaluate(
            dataset, wf
        )
        spilled = SortScanEngine(
            run_size=run_size,
            batch_size=batch_size,
            assert_no_late_updates=True,
        ).evaluate(dataset, wf)
        assert _tables(spilled) == _tables(in_memory)
        assert spilled.stats.flushed_entries == (
            in_memory.stats.flushed_entries
        )
        assert spilled.stats.peak_entries == in_memory.stats.peak_entries

    def test_multi_pass_engine(self, schema, small_blocks):
        dataset = _dataset(schema)
        wf = _workflow(schema)
        reference = MultiPassEngine().evaluate(dataset, wf)
        spilled = MultiPassEngine(run_size=120).evaluate(dataset, wf)
        assert _tables(spilled) == _tables(reference)

    def test_partitioned_engine(self, schema, small_blocks):
        dataset = _dataset(schema, count=2000, cardinality=16)
        # Every measure keeps d0, the partition dimension.
        wf = AggregationWorkflow(schema, name="spilled-partitioned")
        wf.basic("sum_fine", {"d0": "d0.L0", "d1": "d1.L0"}, agg=("sum", "v"))
        wf.basic("cnt_mid", {"d0": "d0.L1", "d2": "d2.L1"}, agg="count")
        wf.rollup("sum_up", {"d0": "d0.L1"}, source="sum_fine", agg="sum")
        engines = [
            PartitionedEngine(
                partition_dim="d0", num_partitions=3, parallel="serial",
                run_size=run_size,
            )
            for run_size in (200_000, 100)
        ]
        reference, spilled = (
            engine.evaluate(dataset, wf) for engine in engines
        )
        assert _tables(spilled) == _tables(reference)


class TestNullMeasures:
    """The flat-file spool cannot hold ``None``: oversized input with
    NULL measures sorts through the record adapter instead."""

    @pytest.mark.parametrize("batch_size", [None, 0])
    def test_oversized_nulls_match_relational(self, schema, batch_size):
        dataset = _dataset(schema, count=500, nulls=7)
        wf = AggregationWorkflow(schema, name="nulls")
        wf.basic("total", {"d0": "d0.L0"}, agg=("sum", "v"))
        wf.basic("rows", {"d1": "d1.L1"}, agg="count")
        wf.basic("low", {"d2": "d2.L0"}, agg=("min", "v"))
        oracle = RelationalEngine().evaluate(dataset, wf)
        spilled = SortScanEngine(
            run_size=100, batch_size=batch_size
        ).evaluate(dataset, wf)
        for name in wf.outputs():
            assert oracle[name].equal_rows(spilled[name]), name


@needs_numpy
class TestNoLeaks:
    """Every exit path of a spilled sort leaves the temp dir empty."""

    @pytest.mark.parametrize("site", ["sort.spill", "sort.merge"])
    @pytest.mark.parametrize("batch_size", [None, 0])
    def test_failed_sort_leaves_nothing(
        self, schema, site, batch_size, private_tmp
    ):
        engine = SortScanEngine(run_size=100, batch_size=batch_size)
        with failpoint(site, "raise"), pytest.raises(FailPointError):
            engine.evaluate(_dataset(schema), _workflow(schema))
        assert os.listdir(private_tmp) == []

    @pytest.mark.parametrize("batch_size", [None, 0])
    def test_null_input_leaves_nothing(self, schema, batch_size, private_tmp):
        # Vector rows first: runs are spilled before the NULLs show up.
        records = _dataset(schema, count=300).records + _dataset(
            schema, count=200, nulls=7
        ).records
        dataset = InMemoryDataset(schema, records)
        SortScanEngine(run_size=100, batch_size=batch_size).evaluate(
            dataset, _workflow(schema)
        )
        assert os.listdir(private_tmp) == []

    def test_failed_scan_leaves_nothing(self, schema, private_tmp):
        engine = SortScanEngine(run_size=100)
        with (
            failpoint("sortscan.cascade", "raise"),
            pytest.raises(FailPointError),
        ):
            engine.evaluate(_dataset(schema), _workflow(schema))
        assert os.listdir(private_tmp) == []

    def test_completed_sort_leaves_nothing(self, schema, private_tmp):
        SortScanEngine(run_size=100).evaluate(
            _dataset(schema), _workflow(schema)
        )
        assert os.listdir(private_tmp) == []
