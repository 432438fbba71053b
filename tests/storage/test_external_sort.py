"""Tests for the external merge sorts."""

import importlib
import math
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.cube.order import SortKey
from repro.errors import StorageError
from repro.schema.dataset_schema import synthetic_schema
from repro.storage.columnar import HAVE_NUMPY
from repro.storage.external_sort import external_sort, sort_dataset
from repro.storage.table import InMemoryDataset


def test_in_memory_path_when_input_fits():
    records = [(3,), (1,), (2,)]
    assert list(external_sort(records, lambda r: r, run_size=10)) == [
        (1,),
        (2,),
        (3,),
    ]


def test_spill_path_multiple_runs(tmp_path):
    records = [(i % 7, i) for i in range(100)]
    out = list(
        external_sort(
            records, lambda r: r[0], run_size=8, tmp_dir=str(tmp_path)
        )
    )
    assert [r[0] for r in out] == sorted(r[0] for r in records)
    # Spill files are cleaned up afterwards.
    assert [p for p in os.listdir(tmp_path) if p.startswith("run-")] == []


def test_exact_run_boundary():
    records = [(i,) for i in range(20, 0, -1)]
    out = list(external_sort(records, lambda r: r, run_size=10))
    assert out == sorted(records)


def test_empty_input():
    assert list(external_sort([], lambda r: r)) == []


def test_invalid_run_size():
    with pytest.raises(StorageError):
        list(external_sort([(1,)], lambda r: r, run_size=0))


def test_early_abandonment_cleans_up(tmp_path):
    records = [(i,) for i in range(50)]
    iterator = external_sort(
        records, lambda r: r, run_size=5, tmp_dir=str(tmp_path)
    )
    next(iterator)
    iterator.close()  # abandon mid-stream
    assert [p for p in os.listdir(tmp_path) if p.startswith("run-")] == []


def test_duplicate_keys_all_preserved():
    records = [(1, "a"), (1, "b"), (0, "c"), (1, "d")]
    out = list(external_sort(records, lambda r: r[0], run_size=2))
    assert len(out) == 4
    assert [r[0] for r in out] == [0, 1, 1, 1]
    assert {r[1] for r in out} == {"a", "b", "c", "d"}


@settings(max_examples=50)
@given(
    values=st.lists(st.integers(-1000, 1000), max_size=200),
    run_size=st.integers(min_value=1, max_value=50),
)
def test_matches_builtin_sorted(values, run_size):
    records = [(v,) for v in values]
    out = list(external_sort(records, lambda r: r, run_size=run_size))
    assert out == sorted(records)


class TestInjectedFailures:
    """A spill or merge that dies must not leak temp run files."""

    def _records(self):
        return [(i % 9, i) for i in range(50)]

    def test_failed_spill_leaves_no_run_files(self, tmp_path):
        from repro.testkit import FailPointError, failpoint

        with (
            failpoint("sort.spill", "raise"),
            pytest.raises(FailPointError),
        ):
            list(
                external_sort(
                    self._records(),
                    lambda r: r[0],
                    run_size=5,
                    tmp_dir=str(tmp_path),
                )
            )
        assert os.listdir(tmp_path) == []

    def test_failed_merge_leaves_no_run_files(self, tmp_path):
        from repro.testkit import FailPointError, failpoint

        with (
            failpoint("sort.merge", "raise"),
            pytest.raises(FailPointError),
        ):
            list(
                external_sort(
                    self._records(),
                    lambda r: r[0],
                    run_size=5,
                    tmp_dir=str(tmp_path),
                )
            )
        assert os.listdir(tmp_path) == []

    def test_failed_spill_removes_owned_temp_directory(self):
        import tempfile

        from repro.testkit import FailPointError, failpoint

        base = tempfile.gettempdir()

        def sort_dirs():
            return {
                name
                for name in os.listdir(base)
                if name.startswith("awra-sort-")
            }

        before = sort_dirs()
        with (
            failpoint("sort.spill", "raise"),
            pytest.raises(FailPointError),
        ):
            list(
                external_sort(
                    self._records(), lambda r: r[0], run_size=5
                )
            )
        assert sort_dirs() == before


@pytest.mark.parametrize(
    "count, run_size", [(50, 5), (51, 5), (49, 5), (10, 10), (9, 10), (1, 1)]
)
def test_every_run_is_on_disk_at_the_first_row(tmp_path, count, run_size):
    """The record adapter's contract with callers that count its spill
    files (the perf ledger's ``external_sort.runs``): once the first row
    is out, ``tmp_dir`` holds one file per run — ceil(n / run_size) when
    the input fills a run, none when it sorts in memory."""
    records = [(i % 7, i) for i in range(count)]
    rows = external_sort(
        records, lambda r: r[0], run_size=run_size, tmp_dir=str(tmp_path)
    )
    try:
        next(rows)
        expected = math.ceil(count / run_size) if count >= run_size else 0
        assert len(os.listdir(tmp_path)) == expected
    finally:
        rows.close()
    assert os.listdir(tmp_path) == []


needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")
SCHEMA = synthetic_schema(num_dimensions=2, levels=3, fanout=4)
# ``repro.storage`` re-exports the function under the module's name.
MODULE = importlib.import_module("repro.storage.external_sort")


def _facts(pairs):
    # The measure is the input position, so tie order is visible.
    return InMemoryDataset(
        SCHEMA, [(a, b, float(i)) for i, (a, b) in enumerate(pairs)]
    )


def _assert_stable_sorted(dataset, key, run_size):
    ordered = sort_dataset(dataset, key, run_size=run_size)
    try:
        assert list(ordered.records()) == sorted(
            dataset.records, key=key.record_mapper()
        )
    finally:
        ordered.close()
    return ordered


@pytest.fixture()
def private_tmp(tmp_path, monkeypatch):
    """Point ``tempfile`` at an empty directory and hand it out."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return tmp_path


@needs_numpy
class TestSortDataset:
    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=120
        ),
        run_size=st.integers(min_value=1, max_value=40),
        block_rows=st.integers(min_value=1, max_value=9),
        parts=st.sampled_from(
            [((0, 0),), ((0, 1), (1, 0)), ((1, 2), (0, 1)), ((0, 3),)]
        ),
    )
    def test_matches_stable_sorted(self, pairs, run_size, block_rows, parts):
        with mock.patch.object(MODULE, "MERGE_BLOCK_ROWS", block_rows):
            _assert_stable_sorted(
                _facts(pairs), SortKey(SCHEMA, parts), run_size
            )

    def test_wide_keys_fall_back_to_lexsort(self, monkeypatch):
        # Key ranges whose product passes 2**63 cannot be packed.
        monkeypatch.setattr(MODULE, "MERGE_BLOCK_ROWS", 2)
        values = [-(2**62), 2**62, 0, 5, -3]
        dataset = _facts([(a, b) for a in values for b in values])
        _assert_stable_sorted(dataset, SortKey(SCHEMA, [(0, 0), (1, 0)]), 7)

    @pytest.mark.parametrize("run_size, runs", [(5000, 2), (20_000, 0)])
    def test_runs_span_read_batches(self, run_size, runs):
        # Runs longer than one read batch are stitched from several.
        dataset = _facts([(i * 7 % 13, i % 3) for i in range(9000)])
        key = SortKey(SCHEMA, [(0, 1), (1, 0)])
        assert _assert_stable_sorted(dataset, key, run_size).runs == runs

    def test_without_numpy_sorts_records(self, monkeypatch):
        monkeypatch.setattr(MODULE, "HAVE_NUMPY", False)
        dataset = _facts([(i % 5, i % 3) for i in range(60)])
        ordered = _assert_stable_sorted(dataset, SortKey(SCHEMA, [(1, 0)]), 7)
        assert ordered.columns is None and ordered.spool is None

    def test_invalid_run_size(self):
        with pytest.raises(StorageError):
            sort_dataset(_facts([(1, 1)]), SortKey(SCHEMA, [(0, 0)]), 0)

    @pytest.mark.parametrize("site", ["sort.spill", "sort.merge"])
    def test_failed_sort_leaves_no_files(self, private_tmp, site):
        from repro.testkit import FailPointError, failpoint

        dataset = _facts([(i % 5, i % 3) for i in range(60)])
        with failpoint(site, "raise"), pytest.raises(FailPointError):
            sort_dataset(dataset, SortKey(SCHEMA, [(0, 0)]), run_size=7)
        assert os.listdir(private_tmp) == []

    def test_spool_is_removed_on_close(self, private_tmp):
        dataset = _facts([(i % 5, i % 3) for i in range(60)])
        ordered = sort_dataset(dataset, SortKey(SCHEMA, [(0, 0)]), run_size=7)
        (directory,) = os.listdir(private_tmp)
        # Runs go as soon as the spool is complete.
        assert os.listdir(private_tmp / directory) == ["sorted.bin"]
        assert ordered.runs == 9
        ordered.close()
        assert os.listdir(private_tmp) == []
