"""Tests for the finalization-bound (watermark) machinery."""

import random

import pytest

from repro.errors import PlanError
from repro.cube.order import SortKey
from repro.engine.compile import compile_workflow
from repro.engine.watermark import (
    NodeChecker,
    PredSpec,
    _basic_spec,
    _lift_spec,
    _shift_spec,
    build_node_specs,
)
from repro.cube.granularity import Granularity
from repro.schema.dataset_schema import synthetic_schema
from repro.storage.columnar import HAVE_NUMPY, np
from repro.workflow.workflow import AggregationWorkflow


@pytest.fixture(scope="module")
def schema():
    return synthetic_schema(num_dimensions=2, levels=3, fanout=4)


class TestBasicSpec:
    def test_same_level_kept(self, schema):
        key = SortKey(schema, [(0, 0), (1, 0)])
        gran = Granularity(schema, (0, 0))
        spec = _basic_spec(key, gran)
        assert [(d, lv) for d, lv, __, ___ in spec.parts] == [
            (0, 0),
            (1, 0),
        ]

    def test_coarser_node_lifts_and_truncates(self, schema):
        """A node at d0.L1 under a d0.L0 sort: the bound lifts to L1 and
        nothing after the lifted component survives (Table 6)."""
        key = SortKey(schema, [(0, 0), (1, 0)])
        gran = Granularity.from_spec(schema, {"d0": "d0.L1", "d1": "d1.L0"})
        spec = _basic_spec(key, gran)
        assert [(d, lv) for d, lv, __, ___ in spec.parts] == [(0, 1)]

    def test_all_dimension_ends_spec(self, schema):
        """A node at ALL for the leading sort dimension can never flush
        before the end of the scan."""
        key = SortKey(schema, [(0, 0), (1, 0)])
        gran = Granularity.from_spec(schema, {"d1": "d1.L0"})
        spec = _basic_spec(key, gran)
        assert spec.parts == ()

    def test_finer_node_keeps_scan_level(self, schema):
        """Node finer than the sort key on a dim: bound stays at the
        scan level (entries compare by their generalization)."""
        key = SortKey(schema, [(0, 1)])
        gran = Granularity(schema, (0, 3))
        spec = _basic_spec(key, gran)
        assert [(d, lv) for d, lv, __, ___ in spec.parts] == [(0, 1)]


class TestTransforms:
    def test_lift_preserves_equal_levels(self, schema):
        spec = PredSpec([(0, 0, 0, 0), (1, 0, 1, 0)])
        same = _lift_spec(spec, Granularity(schema, (0, 0)))
        assert same.parts == spec.parts

    def test_lift_truncates_at_coarsening(self, schema):
        spec = PredSpec([(0, 0, 0, 0), (1, 0, 1, 0)])
        lifted = _lift_spec(spec, Granularity(schema, (1, 0)))
        assert [(d, lv) for d, lv, __, ___ in lifted.parts] == [(0, 1)]

    def test_lift_drops_fine_shifts(self, schema):
        spec = PredSpec([(0, 0, 0, 0)], {0: (0, 2)})
        lifted = _lift_spec(spec, Granularity(schema, (1, 3)))
        assert lifted.parts == ()  # cannot re-apply a fine shift

    def test_shift_accumulates_same_level(self, schema):
        gran = Granularity(schema, (0, 3))
        spec = PredSpec([(0, 0, 0, 0)])
        once = _shift_spec(spec, {0: (0, 2)}, gran)
        twice = _shift_spec(once, {0: (1, 3)}, gran)
        assert twice.shifts[0] == (0, 5)

    def test_chained_windows_at_different_levels_rejected(self, schema):
        gran_fine = Granularity(schema, (0, 3))
        gran_coarse = Granularity(schema, (1, 3))
        spec = _shift_spec(PredSpec([(0, 0, 0, 0)]), {0: (0, 2)}, gran_fine)
        with pytest.raises(PlanError):
            _shift_spec(spec, {0: (0, 1)}, gran_coarse)

    def test_backward_window_shifts_negative(self, schema):
        gran = Granularity(schema, (0, 3))
        spec = _shift_spec(PredSpec([(0, 0, 0, 0)]), {0: (3, -1)}, gran)
        assert spec.shifts[0] == (0, -1)


class TestNodeChecker:
    def build(self, schema, windows=None):
        wf = AggregationWorkflow(schema)
        wf.basic("cnt", {"d0": "d0.L0"})
        if windows:
            wf.moving_window(
                "win", {"d0": "d0.L0"}, source="cnt", windows=windows
            )
        return compile_workflow(wf)

    def test_refresh_reports_movement(self, schema):
        graph = self.build(schema)
        key = SortKey(schema, [(0, 0)])
        specs = build_node_specs(graph, key)
        node = graph.nodes[0]
        checker = NodeChecker(node, specs[node.name])
        assert checker.refresh((5,))
        assert not checker.refresh((5,))  # unchanged
        assert checker.refresh((6,))

    def test_strictness_at_the_bound(self, schema):
        graph = self.build(schema)
        key = SortKey(schema, [(0, 0)])
        specs = build_node_specs(graph, key)
        node = graph.nodes[0]
        checker = NodeChecker(node, specs[node.name])
        checker.refresh((5,))
        assert checker.is_final((4, 0))
        assert not checker.is_final((5, 0))  # current group still open
        assert not checker.is_final((6, 0))

    def test_window_delays_finalization(self, schema):
        graph = self.build(schema, windows={"d0": (0, 2)})
        key = SortKey(schema, [(0, 0)])
        specs = build_node_specs(graph, key)
        win = next(n for n in graph.nodes if n.name == "win")
        checker = NodeChecker(win, specs[win.name])
        checker.refresh((5,))
        # Entry k needs inputs through k+2: final iff k+2 < 5.
        assert checker.is_final((2, 0))
        assert not checker.is_final((3, 0))

    def test_never_when_leading_dim_uncovered(self, schema):
        wf = AggregationWorkflow(schema)
        wf.basic("cnt", {"d1": "d1.L0"})
        graph = compile_workflow(wf)
        key = SortKey(schema, [(0, 0)])  # sorted by the other dim
        specs = build_node_specs(graph, key)
        node = graph.nodes[0]
        checker = NodeChecker(node, specs[node.name])
        assert checker.never
        checker.refresh((5,))
        assert not checker.is_final((0, 0))


@pytest.mark.skipif(not HAVE_NUMPY, reason="array form requires numpy")
class TestFinalMask:
    """``final_mask`` is ``is_final`` over key columns, key by key."""

    @pytest.fixture(scope="class")
    def wide(self):
        return synthetic_schema(num_dimensions=3, levels=3, fanout=4)

    def workflow(self, schema):
        wf = AggregationWorkflow(schema)
        wf.basic("fine", {"d0": "d0.L0", "d1": "d1.L0"})
        wf.basic("lifted", {"d0": "d0.L1", "d2": "d2.L0"})
        wf.basic("uncovered", {"d1": "d1.L0"})
        wf.rollup("up", {"d0": "d0.L1"}, source="fine", agg="sum")
        wf.moving_window(
            "win", {"d0": "d0.L0", "d1": "d1.L0"}, source="fine",
            windows={"d0": (1, 2)},
        )
        wf.moving_window(
            "win_up", {"d0": "d0.L1"}, source="up",
            windows={"d0": (0, 1)}, agg="avg",
        )
        return wf

    def assert_mask_matches(self, checker, node, rng):
        levels = node.granularity.levels
        dims = node.schema.dimensions
        keys = [
            tuple(
                0 if level == dim.all_level
                else rng.randrange(dim.hierarchy.level_cardinality(level))
                for dim, level in zip(dims, levels)
            )
            for __ in range(200)
        ]
        columns = [
            None if level == dim.all_level
            else np.array([key[i] for key in keys], dtype=np.int64)
            for i, (dim, level) in enumerate(zip(dims, levels))
        ]
        mask = checker.final_mask(columns, len(keys))
        assert mask.dtype == bool
        assert mask.tolist() == [checker.is_final(key) for key in keys]
        return mask

    @pytest.mark.parametrize(
        "parts",
        [
            [(0, 0), (1, 0), (2, 0)],
            [(0, 1), (1, 0)],
            [(1, 0), (0, 0)],
            [(2, 1)],
        ],
        ids=["schema-order", "coarse-lead", "swapped", "other-dim"],
    )
    def test_equals_is_final_for_every_node(self, wide, parts):
        graph = compile_workflow(self.workflow(wide))
        sort_key = SortKey(wide, parts)
        specs = build_node_specs(graph, sort_key)
        rng = random.Random(7)
        shifted = flushed = 0
        for node in graph.nodes:
            checker = NodeChecker(node, specs[node.name])
            shifted += any(spec.shifts for spec in specs[node.name])
            for __ in range(12):
                record = tuple(rng.randrange(64) for __ in range(3))
                checker.refresh(sort_key.record_mapper()(record + (0.0,)))
                mask = self.assert_mask_matches(checker, node, rng)
                flushed += int(mask.sum())
                if checker.never:
                    assert not mask.any()
        assert flushed  # the comparison saw final and open keys alike
        if parts[0][0] == 0:
            assert shifted  # ... and shifted specs

    def test_strict_at_the_bound(self, schema):
        wf = AggregationWorkflow(schema)
        wf.basic("cnt", {"d0": "d0.L0"})
        graph = compile_workflow(wf)
        node = graph.nodes[0]
        specs = build_node_specs(graph, SortKey(schema, [(0, 0)]))
        checker = NodeChecker(node, specs[node.name])
        checker.refresh((5,))
        mask = checker.final_mask(
            [np.array([4, 5, 6], dtype=np.int64), None], 3
        )
        assert mask.tolist() == [True, False, False]
