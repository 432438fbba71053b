"""Delta-proportional ingest commits: resident states and segment splices.

An ingest re-encodes only the rows its delta changed and copies every
other row of the previous segment as bytes.  These tests hold that path
to the full rewrite it replaces: after every ingest each segment and
index file must be byte-identical to a full write of the same rows, the
tables must equal a one-shot evaluation over all facts, and a failed
ingest must leave nothing behind.
"""

from __future__ import annotations

import contextlib
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.predicates import Field
from repro.cube.granularity import Granularity
from repro.engine.sort_scan import SortScanEngine
from repro.service import MeasureService, store as store_module
from repro.service.ingest import Ingestor
from repro.service.store import MeasureStore, _encode, _splice
from repro.storage.table import InMemoryDataset
from repro.testkit.failpoints import FailPointError, failpoint
from repro.workflow.workflow import AggregationWorkflow

from tests.service.conftest import make_records

#: Every fail point an ingest passes, in the order it passes them.
INGEST_SITES = (
    "ingest.delta-eval",
    "ingest.fold",
    "store.segment-write",
    "store.segment-fsync",
    "store.facts-append",
    "ingest.pre-commit",
    "store.manifest-write",
    "store.manifest-swap",
    "store.replaced-gc",
    "ingest.post-commit",
)


@pytest.fixture()
def splice_workflow(syn_schema):
    """One basic node per mergeable aggregate, a filtered output whose
    keys leave as counts grow, and a roll-up composite."""
    wf = AggregationWorkflow(syn_schema, name="splice-test")
    grain = {"d0": "d0.L0", "d1": "d1.L1"}
    wf.basic("Count", grain, agg="count")
    for agg in ("sum", "avg", "var", "min", "max"):
        wf.basic(agg.capitalize(), grain, agg=(agg, "v"))
    wf.basic("Approx", {"d0": "d0.L1"}, agg=("approx_distinct", "v"))
    wf.filter("Few", source="Count", where=Field("M") <= 2)
    wf.rollup("sCount", {"d0": "d0.L1"}, source="Count", agg="sum")
    return wf


def records_in(rng: random.Random, count: int, d0_limit: int) -> list:
    return [
        (
            rng.randrange(d0_limit),
            rng.randrange(64),
            rng.randrange(64),
            round(rng.random(), 6),
        )
        for __ in range(count)
    ]


def delta_sequence(seed: int, base: list, length: int) -> list[list]:
    """Deltas mixing repeated keys (resampled base records), new keys
    (``d0`` past the bootstrap's range) and empty batches."""
    rng = random.Random(seed)
    deltas = []
    for __ in range(length):
        shape = rng.choice(("repeat", "new", "mixed", "empty"))
        if shape == "empty":
            deltas.append([])
        elif shape == "repeat":
            deltas.append(rng.sample(base, rng.randrange(1, 40)))
        elif shape == "new":
            deltas.append(records_in(rng, rng.randrange(1, 30), 64))
        else:
            deltas.append(
                rng.sample(base, 10) + records_in(rng, 10, 64)
            )
    return deltas


def full_rewrite(tmp_path, schema, kind: str, levels, rows) -> tuple:
    """Segment and index bytes of ``rows`` written in full."""
    scratch = MeasureStore(str(tmp_path / f"full-{kind}"))
    commit = scratch.begin()
    granularity = Granularity(schema, tuple(levels))
    if kind == "values":
        commit.put_values("t", granularity, rows)
    else:
        commit.put_states("t", granularity, rows)
    commit.commit()
    info = scratch.table_info("t", kind)
    return segment_bytes(scratch, info)


def segment_bytes(store: MeasureStore, info: dict) -> tuple[bytes, bytes]:
    out = []
    for name in (info["file"], info["index"]):
        with open(os.path.join(store.path, "segments", name), "rb") as fh:
            out.append(fh.read())
    return tuple(out)


def assert_byte_identical(tmp_path, schema, store: MeasureStore) -> None:
    for kind in ("values", "states"):
        for name, info in store.manifest[kind].items():
            rows = store.read_table(name, kind)
            wanted = full_rewrite(tmp_path, schema, kind, info["levels"], rows)
            assert segment_bytes(store, info) == wanted, (kind, name)


def assert_exact(store, workflow, batches) -> None:
    records = [record for batch in batches for record in batch]
    reference = SortScanEngine().evaluate(
        InMemoryDataset(workflow.schema, records), workflow
    )
    for name in workflow.outputs():
        expected = reference[name]
        got = store.measure_table(name, expected.granularity)
        assert got.equal_rows(expected), f"{name}: {expected.diff(got)}"


def assert_no_strays(store: MeasureStore) -> None:
    """The directory holds exactly what the manifest references."""
    present = set(os.listdir(os.path.join(store.path, "segments")))
    assert present == store._referenced_files()
    assert not os.path.exists(os.path.join(store.path, "MANIFEST.json.tmp"))
    assert MeasureStore(store.path).manifest == store.manifest


@pytest.fixture()
def count_splices(monkeypatch):
    calls = []
    real = store_module._splice

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(store_module, "_splice", spy)
    return calls


# -- the splice itself -----------------------------------------------------


def splice(base: dict, rows: dict, changed):
    """Splice ``changed`` from ``rows`` into a full encoding of ``base``."""
    segment = _encode(base)
    return _splice(
        segment.keys, segment.offsets, b"".join(segment.chunks), rows,
        changed,
    )


def flat(segment) -> tuple:
    return segment.keys, segment.offsets, b"".join(segment.chunks)


_keys = st.tuples(st.integers(0, 40), st.integers(0, 3))
_values = st.one_of(
    st.integers(-5, 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.tuples(st.integers(0, 9), st.floats(-1e6, 1e6)),
)


@settings(max_examples=150, deadline=None)
@given(
    base=st.dictionaries(_keys, _values, max_size=200),
    updates=st.dictionaries(_keys, _values, max_size=40),
    removals=st.sets(_keys, max_size=20),
)
def test_splice_equals_full_encode(base, updates, removals):
    rows = dict(base)
    rows.update(updates)
    for key in removals:
        rows.pop(key, None)
    changed = set(updates) | removals
    assert flat(splice(base, rows, changed)) == flat(_encode(rows))


def test_empty_change_set_copies_base():
    base = {(i, 0): i * 1.5 for i in range(300)}
    assert flat(splice(base, base, set())) == flat(_encode(base))


# -- ingest sequences ------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_ingest_is_byte_identical_and_exact(
    tmp_path, syn_schema, splice_workflow, count_splices, seed
):
    rng = random.Random(seed)
    base = records_in(rng, 600, 32)
    deltas = delta_sequence(seed, base, 8)
    store = MeasureStore(str(tmp_path / "store"))
    ingestor = Ingestor(store, splice_workflow)
    ingestor.bootstrap(base)
    batches = [base]
    for delta in deltas:
        ingestor.ingest(delta)
        batches.append(delta)
        assert_byte_identical(tmp_path, syn_schema, store)
        assert_exact(store, splice_workflow, batches)
        assert_no_strays(store)
    # The first non-empty ingest writes in full; later ones splice.
    assert count_splices


def test_filtered_output_drops_keys_that_leave(
    tmp_path, syn_schema, splice_workflow
):
    base = make_records(400, seed=5)
    store = MeasureStore(str(tmp_path / "store"))
    ingestor = Ingestor(store, splice_workflow)
    ingestor.bootstrap(base)
    ingestor.ingest(base[:50])
    before = set(store.read_table("Few"))
    ingestor.ingest(base[:50])  # every touched count grows past 2
    after = set(store.read_table("Few"))
    assert before - after
    assert_byte_identical(tmp_path, syn_schema, store)
    assert_exact(store, splice_workflow, [base, base[:50], base[:50]])


def test_empty_delta_restages_no_table(tmp_path, splice_workflow):
    store = MeasureStore(str(tmp_path / "store"))
    ingestor = Ingestor(store, splice_workflow)
    ingestor.bootstrap(make_records(300, seed=6))
    ingestor.ingest(make_records(20, seed=7))
    states = dict(store.manifest["states"])
    values = dict(store.manifest["values"])
    ingestor.ingest([])
    assert store.manifest["states"] == states
    # Basic and composite outputs keep their segments.
    assert store.manifest["values"] == values


def test_resident_states_skip_the_state_read(
    tmp_path, splice_workflow, monkeypatch
):
    store = MeasureStore(str(tmp_path / "store"))
    ingestor = Ingestor(store, splice_workflow)
    ingestor.bootstrap(make_records(300, seed=8))
    ingestor.ingest(make_records(20, seed=9))
    reads = []
    real = store.read_table
    monkeypatch.setattr(
        store, "read_table",
        lambda name, kind="values": reads.append(kind) or real(name, kind),
    )
    ingestor.ingest(make_records(20, seed=10))
    assert "states" not in reads


def test_another_writer_makes_resident_states_stale(
    tmp_path, syn_schema, splice_workflow
):
    base = make_records(300, seed=11)
    deltas = [make_records(25, seed=12 + i) for i in range(3)]
    store = MeasureStore(str(tmp_path / "store"))
    first = Ingestor(store, splice_workflow)
    first.bootstrap(base)
    first.ingest(deltas[0])
    # A second ingestor on the same store object commits in between.
    Ingestor(store, splice_workflow).ingest(deltas[1])
    first.ingest(deltas[2])
    assert_byte_identical(tmp_path, syn_schema, store)
    assert_exact(store, splice_workflow, [base, *deltas])


def test_reopened_store_continues_exactly(
    tmp_path, syn_schema, splice_workflow, count_splices
):
    rng = random.Random(13)
    base = records_in(rng, 500, 32)
    deltas = delta_sequence(13, base, 6)
    path = str(tmp_path / "store")
    ingestor = Ingestor(MeasureStore(path), splice_workflow)
    ingestor.bootstrap(base)
    batches = [base]
    for i, delta in enumerate(deltas):
        if i % 2:
            ingestor = Ingestor(MeasureStore(path), splice_workflow)
        ingestor.ingest(delta)
        batches.append(delta)
        assert_byte_identical(tmp_path, syn_schema, ingestor.store)
        assert_exact(ingestor.store, splice_workflow, batches)


# -- failed ingests ----------------------------------------------------------


@pytest.mark.parametrize("site", INGEST_SITES)
def test_failed_ingest_leaves_nothing_behind(
    tmp_path, syn_schema, splice_workflow, count_splices, site
):
    base = make_records(500, seed=20)
    first, failing, clean = (make_records(40, seed=s) for s in (21, 22, 23))
    store = MeasureStore(str(tmp_path / "store"))
    ingestor = Ingestor(store, splice_workflow)
    ingestor.bootstrap(base)
    ingestor.ingest(first)  # leaves resident states and splice bases
    generation = store.generation
    with failpoint(site, "raise"), pytest.raises(FailPointError):
        ingestor.ingest(failing)
    if site not in ("ingest.delta-eval", "ingest.post-commit"):
        # The fold may have mutated them: the next ingest reads disk.
        assert ingestor._resident is None
    assert_no_strays(store)
    landed = store.generation > generation
    assert landed == (
        site in ("store.manifest-swap", "store.replaced-gc",
                 "ingest.post-commit")
    )
    batches = [base, first] + ([failing] if landed else [])
    splices = len(count_splices)
    ingestor.ingest(clean)
    assert len(count_splices) > splices
    assert_byte_identical(tmp_path, syn_schema, store)
    assert_exact(store, splice_workflow, batches + [clean])
    assert_no_strays(store)


def test_ingest_failing_after_the_swap_drops_service_caches(
    tmp_path, splice_workflow
):
    base = make_records(300, seed=24)
    service = MeasureService(
        MeasureStore(str(tmp_path / "store")), splice_workflow
    )
    service.bootstrap(base)
    key = base[0][0], base[0][1] // 4, 0
    before = service.point("Count", key)
    with failpoint("store.replaced-gc", "raise"), pytest.raises(
        FailPointError
    ):
        service.ingest(base)
    assert service.point("Count", key) == 2 * before


# -- the sparse-index cache --------------------------------------------------


def test_index_cache_holds_only_live_tables(tmp_path, splice_workflow):
    store = MeasureStore(str(tmp_path / "store"))
    ingestor = Ingestor(store, splice_workflow)
    base = make_records(400, seed=30)
    ingestor.bootstrap(base)
    rng = random.Random(31)
    for i in range(50):
        ingestor.ingest(make_records(15, seed=100 + i))
        for name in store.measures():
            key = rng.choice(base)
            with contextlib.suppress(KeyError):
                store.point(name, (key[0], key[1] // 4, 0))
            store.scan_prefix(name, (key[0],))
        live = sum(
            len(store.manifest[kind]) for kind in ("values", "states")
        )
        assert len(store._index_cache) <= live
    for index in store._index_cache.values():
        assert all(isinstance(key, tuple) for key in index.keys)
