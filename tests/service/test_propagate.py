"""Delta propagation through the composites.

An ingest hash-groups the delta into basic-node states, finalizes only
the delta's keys, and re-evaluates only the composite cells its arcs
reach, patching resident tables that live across commits.  These tests
hold that path to the full derivation it replaces: after every ingest
the resident tables must *equal* a full ``_derive_composites`` over the
same merged states, every segment must be byte-identical to a full
write, and the stored outputs must equal a one-shot evaluation.
"""

from __future__ import annotations

import math
import random
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.aggregates.base import AggSpec
from repro.algebra.conditions import ChildParent, Lags, SelfMatch
from repro.algebra.predicates import Field
from repro.engine.compile import compile_workflow
from repro.engine.semantics import (
    eval_node_from_tables,
    finalize_basic,
    member_index,
    propagate,
)
from repro.engine.single_scan import fill_basic_tables
from repro.engine.sort_scan import SortScanEngine
from repro.service.ingest import Ingestor
from repro.service.store import MeasureStore
from repro.storage.sink import Sink
from repro.storage.table import InMemoryDataset
from repro.testkit.failpoints import FailPointError, failpoint
from repro.testkit.generator import RandomCase
from repro.workflow.measure import Measure, MeasureKind
from repro.workflow.workflow import AggregationWorkflow

from tests.service.test_splice import (
    assert_byte_identical,
    assert_no_strays,
    delta_sequence,
    records_in,
)


def ratio(total, count, window):
    if total is None or not count:
        return None
    return total / count + (window or 0.0)


def spread(high, median):
    return None if median is None else high - median


def propagation_workflow(schema) -> AggregationWorkflow:
    """Every arc kind the propagation maps, with filters that flip."""
    wf = AggregationWorkflow(schema, name="propagate-test")
    fine = {"d0": "d0.L0", "d1": "d1.L1"}
    coarse = {"d0": "d0.L1"}
    top = {"d0": "d0.L2"}
    wf.basic("Count", fine, agg="count")
    wf.basic("Sum", fine, agg=("sum", "v"))
    wf.basic("Max", coarse, agg=("max", "v"))
    wf.basic("Med", coarse, agg=("median", "v"))
    # Roll-ups, one of a composite (float sums: fold order matters).
    wf.rollup("sSum", coarse, source="Sum", agg="sum")
    wf.rollup("ssSum", top, source="sSum", agg="sum")
    # A filtered roll-up arc: cells appear as counts grow past 1.
    wf.rollup("sBusy", coarse, source="Count", agg="avg",
              where=Field("M") >= 2)
    wf.rollup("ssBusy", top, source="sBusy", agg="var")
    wf.moving_window("Win", fine, source="Sum", windows={"d0": (1, 2)},
                     agg="avg")
    wf.match("Lag", fine, source="Count", cond=Lags({"d0": (-3, 5)}),
             agg="sum", keys="Count")
    # Self match whose values filter flips (the cell stays, as NULL).
    wf.derive("Self", source="Sum", where=Field("M") > 1.5, agg="max")
    wf.broadcast("Down", fine, source="sSum", agg="max", keys="Count")
    # Keys arcs whose filter flips: cells leave as counts grow.
    wf.filter("Few", source="Count", where=Field("M") <= 2)
    wf.match("FewSum", fine, source="Sum", cond=SelfMatch(), agg="sum",
             keys="Few")
    wf.broadcast("FewDown", fine, source="sBusy", agg="max", keys="Few")
    # A roll-up of a table whose cells leave (its group index shrinks).
    wf.rollup("sFewSum", coarse, source="FewSum", agg="sum")
    wf.combine("Ratio", ["Sum", "Count", "Win"], fn=ratio,
               fn_name="ratio", handles_null=True)
    # An output filter over a composite.
    wf.filter("Hot", source="Ratio", where=Field("M") > 0.9)
    # Holistic consumers: deferred to resolution, never propagated.
    wf.rollup("sMed", top, source="Med", agg="max")
    wf.combine("MedSpread", ["Max", "Med"], fn=spread,
               fn_name="spread", handles_null=True)
    return wf


@pytest.fixture()
def prop_workflow(syn_schema):
    return propagation_workflow(syn_schema)


# -- the checks ------------------------------------------------------------


def assert_resident_exact(ingestor: Ingestor) -> None:
    """Resident tables and indexes equal a full derivation, exactly."""
    resident = ingestor._resident
    assert resident is not None
    assert resident.tag == ingestor._state_files()
    tables = {
        name: finalize_basic(ingestor._nodes[name], raw)
        for name, raw in resident.states.items()
    }
    ingestor._derive_composites(tables, skip=ingestor._closure)
    assert tables.keys() == resident.tables.keys()
    for name, table in tables.items():
        assert resident.tables[name] == table, name
    for node in ingestor._derived:
        assert resident.indexes[node.name] == member_index(node, tables)
    # What the store serves is what the ingestor holds.
    store = ingestor.store
    for out_name, (node, out_filter) in ingestor.graph.outputs.items():
        if out_name in store.dirty_measures():
            continue
        rows = resident.tables.get(node.name)
        if rows is None:  # deferred, and resolved since
            continue
        assert store.read_table(out_name) == {
            key: value
            for key, value in rows.items()
            if out_filter is None or out_filter(key, value)
        }, out_name


def assert_one_shot(store, workflow, batches) -> None:
    """Every servable output equals a one-shot evaluation."""
    records = [record for batch in batches for record in batch]
    reference = SortScanEngine().evaluate(
        InMemoryDataset(workflow.schema, records), workflow
    )
    dirty = store.dirty_measures()
    for name in workflow.outputs():
        if name in dirty:
            continue
        expected = reference[name]
        got = store.measure_table(name, expected.granularity)
        assert got.equal_rows(expected), f"{name}: {expected.diff(got)}"


def check_after_ingest(tmp_path, schema, ingestor, batches) -> None:
    assert_resident_exact(ingestor)
    assert_byte_identical(tmp_path, schema, ingestor.store)
    assert_one_shot(ingestor.store, ingestor.workflow, batches)
    assert_no_strays(ingestor.store)


# -- hand-written workflow -------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_ingest_patches_exactly(
    tmp_path, syn_schema, prop_workflow, seed
):
    rng = random.Random(seed)
    base = records_in(rng, 500, 32)
    store = MeasureStore(str(tmp_path / "store"))
    ingestor = Ingestor(store, prop_workflow)
    ingestor.bootstrap(base)
    batches = [base]
    for i, delta in enumerate(delta_sequence(seed, base, 8)):
        ingestor.ingest(delta)
        batches.append(delta)
        check_after_ingest(tmp_path, syn_schema, ingestor, batches)
        if i % 3 == 2:
            ingestor.resolve()
            assert_resident_exact(ingestor)
            assert_one_shot(store, prop_workflow, batches)
    # Composites were spliced at their changed keys, not rewritten.
    for name in ("sSum", "ssBusy", "Win", "Down", "FewSum", "Hot"):
        assert ("values", name) in store._images, name


def test_filter_flips_remove_and_add_cells(
    tmp_path, syn_schema, prop_workflow
):
    rng = random.Random(4)
    base = records_in(rng, 300, 32)
    store = MeasureStore(str(tmp_path / "store"))
    ingestor = Ingestor(store, prop_workflow)
    ingestor.bootstrap(base)
    ingestor.ingest([])
    few, busy = set(store.read_table("FewSum")), set(
        store.read_table("sBusy")
    )
    # Every touched count grows past 2 (leaves Few); new keys past the
    # bootstrap's d0 range count 2 (enter sBusy's filtered roll-up arc
    # in cells that did not exist).
    fresh = [(40 + i % 8, i, i, 0.5) for i in range(10)]
    delta = (base[:60] + fresh) * 2
    ingestor.ingest(delta)
    assert few - set(store.read_table("FewSum"))
    assert set(store.read_table("sBusy")) - busy
    check_after_ingest(tmp_path, syn_schema, ingestor, [base, [], delta])


@settings(max_examples=25, deadline=None)
@given(
    deltas=st.lists(
        st.lists(
            st.tuples(
                st.integers(0, 63), st.integers(0, 63), st.integers(0, 63),
                st.sampled_from([0.0, 0.25, 0.5, 0.999, 1.0 / 3.0]),
            ),
            max_size=25,
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_random_deltas_patch_exactly(syn_schema, deltas):
    prop_workflow = propagation_workflow(syn_schema)
    base = records_in(random.Random(7), 200, 48)
    with tempfile.TemporaryDirectory() as root:
        ingestor = Ingestor(MeasureStore(root + "/store"), prop_workflow)
        ingestor.bootstrap(base)
        for delta in deltas:
            ingestor.ingest(delta)
            assert_resident_exact(ingestor)
        assert_one_shot(ingestor.store, prop_workflow, [base, *deltas])


# -- child/parent joins, below the store ------------------------------------


def full_tables(graph, states) -> dict:
    tables = {
        node.name: finalize_basic(node, states[node.name])
        for node in graph.basic_nodes
    }
    for node in graph.nodes:
        if node.name not in tables:
            tables[node.name] = eval_node_from_tables(node, tables)
    return tables


@settings(max_examples=40, deadline=None)
@given(
    deltas=st.lists(
        st.lists(
            st.tuples(
                st.integers(0, 63), st.integers(0, 63), st.integers(0, 63),
                st.sampled_from([0.0, 0.1, 0.7, 1.0 / 3.0]),
            ),
            max_size=20,
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_child_parent_joins_propagate_exactly(syn_schema, deltas):
    """A child/parent match join (the workflow builder offers it only
    as a roll-up, and sort/scan cannot bootstrap one) patched by
    :func:`propagate` equals its full evaluation, with its keys arc
    filter flipping and a roll-up of it downstream."""
    wf = AggregationWorkflow(syn_schema, name="child-parent")
    coarse = wf._granularity({"d0": "d0.L1"})
    wf.basic("Sum", {"d0": "d0.L0", "d1": "d1.L1"}, agg=("sum", "v"))
    wf.basic("Count", {"d0": "d0.L1"}, agg="count")
    wf.filter("Few", source="Count", where=Field("M") <= 4)
    wf._add(
        Measure(
            "CP", coarse, MeasureKind.MATCH, agg=AggSpec("sum", "M"),
            source="Sum", keys="Few", cond=ChildParent(),
        )
    )
    wf.rollup("sCP", {"d0": "d0.L2"}, source="CP", agg="sum")
    graph = compile_workflow(wf)
    states = {node.name: {} for node in graph.basic_nodes}
    base = records_in(random.Random(13), 150, 48)
    fill_basic_tables(
        InMemoryDataset(syn_schema, base),
        [(node, states[node.name]) for node in graph.basic_nodes], 0,
    )
    tables = full_tables(graph, states)
    derived = [node for node in graph.nodes if node.name not in states]
    indexes = {node.name: member_index(node, tables) for node in derived}
    for delta in deltas:
        fresh = [(node, {}) for node in graph.basic_nodes]
        fill_basic_tables(InMemoryDataset(syn_schema, delta), fresh, 0)
        changed = {}
        for node, delta_states in fresh:
            agg, merged = node.agg.function, states[node.name]
            for key, state in delta_states.items():
                if key in merged:
                    state = agg.merge(merged[key], state)
                merged[key] = state
                tables[node.name][key] = agg.finalize(state)
            changed[node.name] = delta_states.keys()
        propagate(derived, tables, changed, indexes)
        full = full_tables(graph, states)
        assert tables == full
        for node in derived:
            assert indexes[node.name] == member_index(node, full)


# -- generated workflows ---------------------------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_generated_workflows_patch_exactly(tmp_path, syn_schema, seed):
    case = RandomCase(seed, syn_schema)
    records = list(case.dataset.records)
    cut = len(records) // 2
    base, rest = records[:cut], records[cut:]
    deltas = [rest[i::4] for i in range(4)]
    store = MeasureStore(str(tmp_path / "store"))
    ingestor = Ingestor(store, case.workflow)
    ingestor.bootstrap(base)
    batches = [base]
    for delta in deltas:
        ingestor.ingest(delta)
        batches.append(delta)
        check_after_ingest(tmp_path, syn_schema, ingestor, batches)
    ingestor.resolve()
    assert_one_shot(store, case.workflow, batches)


# -- other writers, reopens, resolution, failures ----------------------------


def test_reopened_store_continues_exactly(
    tmp_path, syn_schema, prop_workflow
):
    rng = random.Random(8)
    base = records_in(rng, 400, 32)
    path = str(tmp_path / "store")
    ingestor = Ingestor(MeasureStore(path), prop_workflow)
    ingestor.bootstrap(base)
    batches = [base]
    for i, delta in enumerate(delta_sequence(8, base, 6)):
        if i % 2:
            ingestor = Ingestor(MeasureStore(path), prop_workflow)
        ingestor.ingest(delta)
        batches.append(delta)
        check_after_ingest(tmp_path, syn_schema, ingestor, batches)


def test_second_ingestor_on_the_same_store(
    tmp_path, syn_schema, prop_workflow, monkeypatch
):
    rng = random.Random(9)
    base = records_in(rng, 400, 32)
    deltas = [records_in(rng, 30, 64) for __ in range(3)]
    store = MeasureStore(str(tmp_path / "store"))
    first = Ingestor(store, prop_workflow)
    first.bootstrap(base)
    first.ingest(deltas[0])
    held = first._resident
    # An empty ingest by another ingestor leaves the states (and so the
    # resident tables) valid ...
    Ingestor(store, prop_workflow).ingest([])
    assert first._valid_resident() is held
    # ... a real one makes them stale: the next ingest reloads.
    Ingestor(store, prop_workflow).ingest(deltas[1])
    assert first._valid_resident() is None
    reads = []
    real = store.read_table
    monkeypatch.setattr(
        store, "read_table",
        lambda name, kind="values": reads.append(kind) or real(name, kind),
    )
    first.ingest(deltas[2])
    assert "states" in reads
    monkeypatch.undo()
    check_after_ingest(
        tmp_path, syn_schema, first, [base, deltas[0], [], *deltas[1:]]
    )


def test_resolve_reads_the_resident_states(
    tmp_path, syn_schema, prop_workflow, monkeypatch
):
    rng = random.Random(10)
    base = records_in(rng, 300, 32)
    delta, more = records_in(rng, 30, 64), records_in(rng, 30, 64)
    store = MeasureStore(str(tmp_path / "store"))
    ingestor = Ingestor(store, prop_workflow)
    ingestor.bootstrap(base)
    ingestor.ingest(delta)
    held = ingestor._resident
    reads = []
    real = store.read_table
    monkeypatch.setattr(
        store, "read_table",
        lambda name, kind="values": reads.append(kind) or real(name, kind),
    )
    assert ingestor.resolve()
    assert "states" not in reads
    assert not store.dirty_measures()
    assert ingestor._resident.tables is held.tables
    assert_one_shot(store, prop_workflow, [base, delta])
    ingestor.ingest(more)
    assert "states" not in reads
    monkeypatch.undo()
    check_after_ingest(tmp_path, syn_schema, ingestor, [base, delta, more])


@pytest.mark.parametrize("site", ["ingest.fold", "ingest.pre-commit"])
def test_failed_ingest_drops_patched_tables(
    tmp_path, syn_schema, prop_workflow, site
):
    rng = random.Random(11)
    base = records_in(rng, 300, 32)
    first, failing, clean = (records_in(rng, 30, 64) for __ in range(3))
    store = MeasureStore(str(tmp_path / "store"))
    ingestor = Ingestor(store, prop_workflow)
    ingestor.bootstrap(base)
    ingestor.ingest(first)
    with failpoint(site, "raise"), pytest.raises(FailPointError):
        ingestor.ingest(failing)
    # The fold patched them for a delta that never landed.
    assert ingestor._resident is None
    ingestor.ingest(clean)
    check_after_ingest(tmp_path, syn_schema, ingestor, [base, first, clean])


# -- the delta capture -------------------------------------------------------


class _StateCapture(Sink):
    """Raw basic-node states of a sort/scan run."""

    wants_states = True

    def __init__(self) -> None:
        self.states: dict[str, dict] = {}

    def emit(self, name, key, value) -> None:
        pass

    def open_states(self, name, granularity) -> None:
        self.states.setdefault(name, {})

    def emit_state(self, name, key, state) -> None:
        self.states[name][key] = state


def same_state(a, b) -> bool:
    """Exact, except that float sums may differ in fold order."""
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
    if isinstance(a, list):  # a median's values: a multiset
        return sorted(a) == sorted(b)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same_state, a, b))
    return a == b


@pytest.mark.parametrize("batch_size", [0, 4096])
def test_single_scan_fill_matches_sort_scan_capture(
    syn_schema, batch_size
):
    wf = AggregationWorkflow(syn_schema, name="capture-test")
    grain = {"d0": "d0.L0", "d1": "d1.L1"}
    aggs = ("count", "sum", "avg", "var", "min", "max", "median",
            "count_distinct", "approx_distinct")
    for agg in aggs:
        wf.basic(agg, grain, agg=agg if agg == "count" else (agg, "v"))
    wf.basic("filtered", {"d1": "d1.L0"}, agg=("sum", "v"),
             where=Field("d0") >= 10)
    graph = compile_workflow(wf)
    records = records_in(random.Random(12), 400, 48) * 2
    dataset = InMemoryDataset(syn_schema, records)
    capture = _StateCapture()
    SortScanEngine().evaluate(dataset, graph, sink=capture)
    pairs = [(node, {}) for node in graph.basic_nodes]
    assert fill_basic_tables(dataset, pairs, batch_size) == len(records)
    for node, states in pairs:
        captured = capture.states[node.name]
        assert states.keys() == captured.keys(), node.name
        for key, state in states.items():
            assert same_state(state, captured[key]), (node.name, key)
