"""Batch-boundary edge cases for the columnar scan path.

Each case is a shape where the batched loop's bookkeeping could
plausibly go wrong — a group span straddling a batch boundary, the
degenerate one-row batch, a final partial batch, a dataset size that
divides the batch size exactly, empty and single-row datasets — and
each asserts bit-identical tables against the scalar path (and, for
single-scan, against the naive oracle).
"""

from __future__ import annotations

import pytest

from repro.engine.naive import RelationalEngine
from repro.engine.single_scan import SingleScanEngine
from repro.engine.sort_scan import SortScanEngine
from repro.storage.table import InMemoryDataset
from repro.testkit.differential import assert_batched_equals_scalar
from repro.workflow.workflow import AggregationWorkflow


def _workflow(schema):
    """A mixed workflow: coarse + fine keys, several aggregate classes."""
    wf = AggregationWorkflow(schema, name="boundaries")
    wf.basic("sum_fine", {"d0": "d0.L0"}, agg=("sum", "v"))
    wf.basic("sum_mid", {"d0": "d0.L1", "d1": "d1.L1"}, agg=("sum", "v"))
    wf.basic("cnt", {"d1": "d1.L2"}, agg="count")
    wf.basic("avg_all", {}, agg=("avg", "v"))
    wf.basic("med", {"d2": "d2.L2"}, agg=("median", "v"))
    wf.rollup("sum_total", {}, source="sum_mid", agg=("sum", "M"))
    return wf


def _dataset(schema, count, seed=0):
    import random

    rng = random.Random(seed)
    return InMemoryDataset(
        schema,
        [
            (
                rng.randrange(64),
                rng.randrange(64),
                rng.randrange(64),
                rng.random(),
            )
            for __ in range(count)
        ],
    )


def _assert_all_paths_agree(dataset, workflow, batch_sizes):
    assert_batched_equals_scalar(dataset, workflow, batch_sizes)
    oracle = RelationalEngine().evaluate(dataset, workflow)
    for batch_size in batch_sizes:
        batched = SingleScanEngine(batch_size=batch_size).evaluate(
            dataset, workflow
        )
        for name in workflow.outputs():
            assert oracle[name].rows == batched[name].rows


class TestBoundaryShapes:
    def test_group_straddles_batch_boundary(self, syn_schema):
        # One giant group interleaved with small ones: with batch size
        # 4 the d0=0 group crosses every boundary, and sort-scan sees
        # runs of it split across consecutive batches after sorting.
        records = []
        for i in range(30):
            records.append((0, i % 3, 5, float(i)))
            if i % 5 == 0:
                records.append((7, 1, 2, 0.25 * i))
        dataset = InMemoryDataset(syn_schema, records)
        _assert_all_paths_agree(
            dataset, _workflow(syn_schema), batch_sizes=(4,)
        )

    def test_batch_size_one(self, syn_schema):
        dataset = _dataset(syn_schema, 37)
        _assert_all_paths_agree(
            dataset, _workflow(syn_schema), batch_sizes=(1,)
        )

    def test_final_partial_batch(self, syn_schema):
        # 23 = 2 full batches of 8 + a 7-row remainder.
        dataset = _dataset(syn_schema, 23)
        _assert_all_paths_agree(
            dataset, _workflow(syn_schema), batch_sizes=(8,)
        )

    def test_size_exact_multiple_of_batch(self, syn_schema):
        dataset = _dataset(syn_schema, 24)
        _assert_all_paths_agree(
            dataset, _workflow(syn_schema), batch_sizes=(8,)
        )

    def test_batch_larger_than_dataset(self, syn_schema):
        dataset = _dataset(syn_schema, 5)
        _assert_all_paths_agree(
            dataset, _workflow(syn_schema), batch_sizes=(4096,)
        )

    def test_empty_dataset(self, syn_schema):
        dataset = InMemoryDataset(syn_schema, [])
        _assert_all_paths_agree(
            dataset, _workflow(syn_schema), batch_sizes=(1, 8, 4096)
        )

    def test_single_row_dataset(self, syn_schema):
        dataset = InMemoryDataset(syn_schema, [(3, 9, 27, 1.5)])
        _assert_all_paths_agree(
            dataset, _workflow(syn_schema), batch_sizes=(1, 8, 4096)
        )


class TestBatchedStats:
    def test_stats_record_batched_run(self, syn_schema):
        dataset = _dataset(syn_schema, 40)
        result = SingleScanEngine(batch_size=8).evaluate(
            dataset, _workflow(syn_schema)
        )
        from repro.storage.columnar import HAVE_NUMPY

        if HAVE_NUMPY:
            assert result.stats.batched
            assert result.stats.batch_size == 8
        else:
            assert not result.stats.batched
            assert result.stats.batch_size == 0
        assert result.stats.rows_scanned == 40

    def test_stats_record_scalar_run(self, syn_schema):
        dataset = _dataset(syn_schema, 10)
        for engine in (
            SingleScanEngine(batch_size=0),
            SortScanEngine(batch_size=0),
        ):
            result = engine.evaluate(dataset, _workflow(syn_schema))
            assert not result.stats.batched
            assert result.stats.batch_size == 0

    def test_record_filter_applies_before_counting(self, syn_schema):
        # Filtered workflows go through the mask path; rows_in in the
        # batched path counts post-filter rows exactly like scalar.
        wf = AggregationWorkflow(syn_schema, name="filtered")
        from repro.algebra.predicates import Field

        wf.basic(
            "sum_small",
            {"d0": "d0.L1"},
            agg=("sum", "v"),
            where=Field("v") < 0.5,
        )
        dataset = _dataset(syn_schema, 60)
        assert_batched_equals_scalar(dataset, wf, batch_sizes=(1, 7, 16))
        oracle = RelationalEngine().evaluate(dataset, wf)
        batched = SingleScanEngine(batch_size=7).evaluate(dataset, wf)
        assert oracle["sum_small"].rows == batched["sum_small"].rows


@pytest.mark.parametrize("force_every", [3, 10])
def test_sort_scan_cascade_cap_respected_batched(
    syn_schema, force_every
):
    """``max_records_between_cascades`` splits batched regions too."""
    dataset = _dataset(syn_schema, 50)
    wf = _workflow(syn_schema)
    scalar = SortScanEngine(
        batch_size=0, max_records_between_cascades=force_every
    ).evaluate(dataset, wf)
    batched = SortScanEngine(
        batch_size=8, max_records_between_cascades=force_every
    ).evaluate(dataset, wf)
    for name in wf.outputs():
        assert scalar[name].rows == batched[name].rows


def test_staged_segments_straddling_a_cascade_fold_in_scan_order(
    syn_schema,
):
    """A region open at a cascade is stored, rejoins the next staging
    as a leading pseudo-row, and keeps folding in scan order: the float
    sum equals the left-to-right scalar sum, and final segments never
    enter the table.  Held rows that no cascade follows fold into the
    table like any batch."""
    pytest.importorskip("numpy")
    from repro.engine.batch import BasicBatchUpdater
    from repro.engine.compile import compile_workflow
    from repro.storage.columnar import RecordBatch, row_keys

    wf = AggregationWorkflow(syn_schema, name="straddle")
    wf.basic("total", {"d0": "d0.L0"}, agg=("sum", "v"))
    node = compile_workflow(wf).nodes[0]
    table: dict = {}
    updater = BasicBatchUpdater(node, table)
    first = [(1, 0, 0, 0.1), (2, 0, 0, 0.2), (2, 1, 0, 0.7)]
    second = [(2, 2, 0, 1e-17), (2, 3, 0, 0.4), (3, 0, 0, 0.5)]

    def below(limit):
        return lambda columns, count: columns[0] < limit

    updater.stage(RecordBatch.from_records(syn_schema, first))
    assert updater.staged_entries() == 2 and not table
    columns, states = updater.flush(below(2))
    assert row_keys(columns, len(states)) == [(1, 0, 0)]
    assert states == [0.1]
    assert table == {(2, 0, 0): 0.2 + 0.7}

    updater.stage(RecordBatch.from_records(syn_schema, second))
    assert updater.staged_entries() == 2
    assert not table  # drained into the grouping
    columns, states = updater.flush(None)
    assert row_keys(columns, len(states)) == [(2, 0, 0), (3, 0, 0)]
    assert states == [((0.2 + 0.7) + 1e-17) + 0.4, 0.5]
    assert all(type(state) is float for state in states)  # not numpy

    updater.stage(RecordBatch.from_records(syn_schema, first))
    updater.apply(RecordBatch.from_records(syn_schema, second))
    assert updater.staged_entries() == 0
    assert table == {
        (1, 0, 0): 0.1,
        (2, 0, 0): ((0.2 + 0.7) + 1e-17) + 0.4,
        (3, 0, 0): 0.5,
    }


@pytest.mark.parametrize("batch_size", [1, 8, 50, 4096])
def test_null_carrying_batches_between_vector_batches(
    syn_schema, batch_size
):
    """Batches holding a NULL measure stay list-backed and take the
    per-record fallback; staged segments of the vector batches around
    them must be stored first, not overwritten."""
    import random

    rng = random.Random(5)
    dataset = InMemoryDataset(
        syn_schema,
        [
            (
                rng.randrange(16),  # ~37 rows a region: long enough to stage
                rng.randrange(64),
                rng.randrange(64),
                None if i % 37 == 0 else rng.random(),
            )
            for i in range(600)
        ],
    )
    wf = AggregationWorkflow(syn_schema, name="nulls")
    wf.basic("s", {"d0": "d0.L0", "d1": "d1.L1"}, agg=("sum", "v"))
    wf.basic("c", {"d0": "d0.L0"}, agg="count")
    wf.rollup("up", {"d0": "d0.L1"}, source="s", agg="sum")
    scalar = SortScanEngine(batch_size=0).evaluate(dataset, wf)
    batched = SortScanEngine(
        batch_size=batch_size, assert_no_late_updates=True
    ).evaluate(dataset, wf)
    for name in wf.outputs():
        assert scalar[name].rows == batched[name].rows, name
