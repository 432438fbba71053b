"""The batched-vs-scalar equivalence pack.

The columnar batched scan path (:mod:`repro.storage.columnar`,
:mod:`repro.engine.batch`) promises results *bit-identical* to the
row-at-a-time scalar path — not merely tolerance-equal.  This pack
holds that promise to the fire with every shipped paper query and 25
seeded generated workflows, at batch sizes covering the degenerate
(1), the non-dividing (7), and the production default (4096) cases,
with ``0`` as the scalar baseline.

Against the naive relational oracle two different bars apply:

* single-scan accumulates in scan order, exactly like the oracle's
  per-group folds, so its tables must match the oracle **bit for bit**
  at every batch size;
* sort/scan accumulates in *sorted* order, so float sums can land on
  different ulps than the oracle's scan-order folds — a pre-existing
  property of the scalar engine, unrelated to batching.  There the
  pack asserts tolerance equality (``equal_rows``) plus the strict
  bit-identity of batched-vs-scalar within the engine.
"""

from __future__ import annotations

import pytest

from repro.data.synthetic import synthetic_dataset
from repro.engine.naive import RelationalEngine
from repro.engine.single_scan import SingleScanEngine
from repro.engine.sort_scan import SortScanEngine
from repro.queries.combined import combined_workflow
from repro.queries.escalation import escalation_workflow
from repro.queries.examples import examples_workflow
from repro.queries.multi_recon import multi_recon_workflow
from repro.queries.q1_child_parent import q1_workflow
from repro.queries.q2_sibling_chain import q2_workflow
from repro.storage.sink import Sink
from repro.testkit.differential import (
    assert_batched_equals_scalar,
    batched_divergence,
)
from repro.testkit.generator import RandomCase
from repro.workflow.workflow import AggregationWorkflow

BATCH_SIZES = (0, 1, 7, 4096)

NETWORK_QUERIES = [
    examples_workflow,
    escalation_workflow,
    multi_recon_workflow,
    combined_workflow,
]

SYNTHETIC_QUERIES = [
    lambda s: q1_workflow(s, num_children=4),
    lambda s: q2_workflow(s, depth=3, num_chains=2),
]


@pytest.fixture(scope="module")
def syn4_dataset():
    """q1/q2 expect the 4-dimensional synthetic schema."""
    return synthetic_dataset(2500)


def _assert_against_oracle(dataset, workflow):
    """Shipped-query contract vs the naive relational oracle."""
    oracle = RelationalEngine().evaluate(dataset, workflow)
    for batch_size in BATCH_SIZES:
        single = SingleScanEngine(batch_size=batch_size).evaluate(
            dataset, workflow
        )
        sort = SortScanEngine(batch_size=batch_size).evaluate(
            dataset, workflow
        )
        for name in workflow.outputs():
            assert oracle[name].rows == single[name].rows, (
                f"single-scan batch_size={batch_size} differs from "
                f"the naive oracle on {name!r}: "
                f"{oracle[name].diff(single[name])}"
            )
            # Sorted-order accumulation: tolerance bar (see module
            # docstring); bit-identity of sort/scan batched-vs-scalar
            # is asserted separately below.
            assert oracle[name].equal_rows(sort[name]), (
                f"sort-scan batch_size={batch_size} differs from "
                f"the naive oracle on {name!r}: "
                f"{oracle[name].diff(sort[name])}"
            )
    assert_batched_equals_scalar(dataset, workflow)


@pytest.mark.parametrize(
    "build", NETWORK_QUERIES, ids=lambda fn: fn.__name__
)
def test_network_queries_batched_equivalence(net_dataset, build):
    _assert_against_oracle(net_dataset, build(net_dataset.schema))


@pytest.mark.parametrize(
    "build", SYNTHETIC_QUERIES, ids=["q1", "q2"]
)
def test_synthetic_queries_batched_equivalence(syn4_dataset, build):
    _assert_against_oracle(syn4_dataset, build(syn4_dataset.schema))


@pytest.mark.parametrize("seed", range(25))
def test_generated_workflows_batched_equivalence(seed, syn_schema):
    """25 seeded random workflows: batched is bit-identical to scalar.

    The generator mixes distributive, algebraic, and holistic
    aggregates with rollup chains and match joins, so this sweeps the
    vectorized fast paths *and* the per-row fallbacks.
    """
    case = RandomCase(seed, syn_schema)
    divergence = batched_divergence(
        case.dataset, case.workflow, batch_sizes=(1, 7, 4096)
    )
    assert divergence is None, (
        f"seed={seed}: {divergence}\n"
        f"Reproduce with RandomCase({seed}, schema):\n"
        f"{case.recipe_text()}"
    )


# -- the columnar flush cascade ---------------------------------------
#
# Q1's children are base-granularity basics feeding roll-ups: their
# sorted segments are finalized, lifted and rolled up as arrays.  Q2's
# sibling windows keep the per-entry path.  Both must land on the
# scalar engine's tables bit for bit at every batch size and trigger
# prefix, with the watermark-safety assertion armed.

CASCADE_QUERIES = {
    **{
        f"q1-{children}": (
            lambda s, children=children: q1_workflow(
                s, num_children=children
            )
        )
        for children in range(2, 8)
    },
    "q2": lambda s: q2_workflow(s, depth=3, num_chains=2),
}

_scalar_tables: dict = {}


@pytest.fixture(scope="module")
def dense4_dataset():
    """125 ``d0`` regions of ~20 rows: some chunks are long enough to
    be staged as sorted segments, some fold straight into the table."""
    return synthetic_dataset(2500, fanout=5)


def _scalar_reference(dataset, query: str, cascade_prefix: int):
    """The scalar engine's tables, evaluated once per configuration."""
    slot = (query, cascade_prefix)
    if slot not in _scalar_tables:
        workflow = CASCADE_QUERIES[query](dataset.schema)
        _scalar_tables[slot] = SortScanEngine(
            batch_size=0, cascade_prefix=cascade_prefix
        ).evaluate(dataset, workflow)
    return _scalar_tables[slot]


@pytest.mark.parametrize("cascade_prefix", (1, 2))
@pytest.mark.parametrize("batch_size", (1, 7, 64, 4096))
@pytest.mark.parametrize("query", sorted(CASCADE_QUERIES))
def test_flush_cascade_matches_scalar(
    dense4_dataset, query, batch_size, cascade_prefix
):
    workflow = CASCADE_QUERIES[query](dense4_dataset.schema)
    scalar = _scalar_reference(dense4_dataset, query, cascade_prefix)
    batched = SortScanEngine(
        batch_size=batch_size,
        cascade_prefix=cascade_prefix,
        assert_no_late_updates=True,
    ).evaluate(dense4_dataset, workflow)
    assert batched.stats.flushed_entries == scalar.stats.flushed_entries
    # Cascades fall on the scalar positions: same footprint, too.
    assert batched.stats.peak_entries == scalar.stats.peak_entries
    for name in workflow.outputs():
        assert scalar[name].rows == batched[name].rows, (
            f"{query} batch_size={batch_size} "
            f"cascade_prefix={cascade_prefix} differs on {name!r}: "
            f"{scalar[name].diff(batched[name])}"
        )


class _StateRecorder(Sink):
    """A ``wants_states`` sink, as the measure service's ingestor is."""

    wants_states = True

    def __init__(self) -> None:
        self.states: list[tuple] = []

    def emit(self, name, key, value) -> None:
        pass

    def emit_state(self, name, key, state) -> None:
        self.states.append((name, key, state))


@pytest.mark.parametrize("batch_size", (7, 4096))
def test_columnar_flush_hands_over_identical_states(
    dense4_dataset, batch_size
):
    """Ingest equivalence: what a state-capturing sink receives from
    the segment flush is exactly what the per-entry flush hands over —
    the same ``(node, key, state)`` stream, in the same order."""
    schema = dense4_dataset.schema
    workflow = AggregationWorkflow(schema, name="state-capture")
    fine = {"d0": "d0.L0", "d1": "d1.L0"}
    workflow.basic("Count", fine, agg="count")
    workflow.basic("Total", fine, agg=("sum", "v"))
    workflow.basic("Mean", {"d0": "d0.L0"}, agg=("avg", "v"))
    workflow.rollup("Coarse", {"d0": "d0.L1"}, source="Total", agg="sum")
    captured = {}
    for size in (0, batch_size):
        sink = _StateRecorder()
        SortScanEngine(batch_size=size).evaluate(
            dense4_dataset, workflow, sink=sink
        )
        captured[size] = sink.states
    scalar, batched = captured[0], captured[batch_size]
    assert len(batched) == len(set((n, k) for n, k, __ in batched))
    assert batched == scalar


def test_cascade_pack_dataset_takes_both_paths(dense4_dataset, monkeypatch):
    """The pack above means nothing unless its dataset drives the
    segment flush *and* the hash-table flush of basic nodes."""
    from repro.engine.batch import BasicBatchUpdater

    calls = {"stage": 0, "apply": 0}
    for name in calls:
        original = getattr(BasicBatchUpdater, name)

        def counted(self, batch, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, batch)

        monkeypatch.setattr(BasicBatchUpdater, name, counted)
    SortScanEngine().evaluate(
        dense4_dataset, q1_workflow(dense4_dataset.schema)
    )
    assert calls["stage"] > 100 and calls["apply"] > 100
