"""Workload definitions and seeded input generators.

Everything the program is fed is made here from the ``--seed`` argument:
fact records, bootstrap records, ingest deltas and request lists.  The
program never sees the seed.  Every stream draws from its own
``random.Random`` keyed by ``(seed, label)``, so a stream's content does
not depend on how much of another stream a run happened to consume.
"""

from __future__ import annotations

import json
import random
import urllib.parse
from dataclasses import dataclass

from repro.queries.q1_child_parent import q1_workflow
from repro.schema.dataset_schema import synthetic_schema
from repro.workflow.workflow import AggregationWorkflow


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


# -- batch path --------------------------------------------------------

#: Section 7.1's synthetic schema: four dimensions, three non-ALL
#: levels of fan-out 10 (1000 base values each), one measure.
BATCH_DIMS = 4
BATCH_CARDINALITY = 1000


def batch_schema():
    return synthetic_schema(num_dimensions=BATCH_DIMS, levels=3, fanout=10)


def lattice_workflow(schema) -> AggregationWorkflow:
    """Figure 6(c)-shaped distributive lattice: five coarse basics and
    one roll-up — thousands of facts fold into each region."""
    wf = AggregationWorkflow(schema, name="perf-lattice")
    wf.basic("sum_d0", {"d0": "d0.L2"}, agg=("sum", "v"))
    wf.basic("sum_d0d1", {"d0": "d0.L2", "d1": "d1.L2"}, agg=("sum", "v"))
    wf.basic("min_d1", {"d1": "d1.L2"}, agg=("min", "v"))
    wf.basic("max_d2", {"d2": "d2.L2"}, agg=("max", "v"))
    wf.basic("cnt_d2d3", {"d2": "d2.L2", "d3": "d3.L2"}, agg="count")
    wf.rollup("sum_total", {}, source="sum_d0", agg=("sum", "M"))
    return wf


@dataclass(frozen=True)
class BatchSpec:
    """One batch workload: facts on disk → measure tables on disk."""

    name: str
    facts: int
    workflow: object  # schema -> AggregationWorkflow
    #: ``SortScanEngine(run_size=...)``; None keeps the engine default.
    run_size: int | None = None

    def smoke(self) -> "BatchSpec":
        facts = 4_000
        run_size = None if self.run_size is None else facts // 4
        return BatchSpec(self.name, facts, self.workflow, run_size)


def batch_facts(seed: int, count: int):
    """``count`` uniform facts ``(d0, d1, d2, d3, v)``."""
    rng = _rng(seed, "facts")
    randrange, rand = rng.randrange, rng.random
    for _ in range(count):
        yield (
            randrange(BATCH_CARDINALITY),
            randrange(BATCH_CARDINALITY),
            randrange(BATCH_CARDINALITY),
            randrange(BATCH_CARDINALITY),
            rand(),
        )


# -- serve path --------------------------------------------------------

#: Three dimensions, three non-ALL levels of fan-out 16.
SERVE_CARDINALITY = 4096
SERVE_FANOUT = 16

#: Deltas re-touch keys whose d0 lies in the top quarter — the keys the
#: last shard owns — so state tables keep their size and every fold
#: costs the same.
HOT_TAIL_LO = 3072


def serve_schema():
    return synthetic_schema(
        num_dimensions=3, levels=3, fanout=SERVE_FANOUT
    )


def serve_workflow(schema) -> AggregationWorkflow:
    """Mergeable-only workflow, so every ingest is fully incremental.
    ``Count`` is keyed at the base level of two dimensions: its table is
    the size of the fact key set — what a full-table read decodes and
    what a fold rewrites."""
    wf = AggregationWorkflow(schema, name="perf-serve")
    wf.basic("Count", {"d0": "d0.L0", "d1": "d1.L0"}, agg="count")
    wf.basic("Total", {"d0": "d0.L0"}, agg=("sum", "v"))
    wf.rollup("sCount", {"d0": "d0.L1"}, source="Count", agg="sum")
    return wf


@dataclass(frozen=True)
class ServeSpec:
    """One traffic mix against the 2-shard local cluster."""

    name: str
    #: Closed-loop reader connections and what they send.
    readers: int
    mix: str  # "scan" | "point" | "" (no reads)
    #: Seconds between open-loop ingests; 0 = no writer.
    ingest_every: float
    #: Which operation the end-to-end latency metrics describe.
    primary: str  # "read" | "ingest"
    bootstrap: int = 24_000
    delta: int = 400
    hot_keys: int = 128
    shards: int = 2
    #: Seconds of traffic before the window opens (caches fill).
    warmup: float = 1.0

    def smoke(self) -> "ServeSpec":
        return ServeSpec(
            self.name, self.readers, self.mix,
            0.2 if self.ingest_every else 0.0, self.primary,
            bootstrap=2_000, delta=50, hot_keys=32, shards=self.shards,
            warmup=0.2,
        )


def serve_records(seed: int, count: int) -> list[tuple]:
    """Bootstrap facts ``(d0, d1, d2, v)``, uniform."""
    rng = _rng(seed, "bootstrap")
    randrange, rand = rng.randrange, rng.random
    return [
        (
            randrange(SERVE_CARDINALITY),
            randrange(SERVE_CARDINALITY),
            randrange(SERVE_CARDINALITY),
            rand(),
        )
        for _ in range(count)
    ]


def delta_stream(seed: int, records: list[tuple], size: int, label: str):
    """Endless hot-tail deltas: ``size`` facts resampled from the
    bootstrap records whose d0 is in the hot tail."""
    rng = _rng(seed, f"delta:{label}")
    pool = [rec for rec in records if rec[0] >= HOT_TAIL_LO]
    while True:
        yield rng.choices(pool, k=size)


ROLLUP_SPEC = {"d0": "d0.L1"}
_ROLLUP_QUERY = urllib.parse.quote(json.dumps(ROLLUP_SPEC))


def target_of(request: tuple) -> str:
    """The HTTP request target of one read request."""
    op, key = request
    if op == "point":
        return f"/point?measure=Count&key={key[0]},{key[1]},0"
    if op == "range":
        return f"/range?measure=Count&prefix={key[0]}"
    if op == "rollup":
        return f"/rollup?measure=Count&agg=sum&spec={_ROLLUP_QUERY}"
    return "/table?measure=Count"


def scan_stream(seed: int, label: str):
    """Full-table reads: 70 % roll-up of Count to d0.L1, 30 % table.

    The share is exact in every block of ten (the seed only shuffles the
    order): a table read costs about twice a roll-up, so with some
    seventy reads in a window a drawn mix would move every metric by
    several percent from run to run."""
    rng = _rng(seed, f"scan:{label}")
    block = [("rollup", ())] * 7 + [("table", ())] * 3
    while True:
        rng.shuffle(block)
        yield from block


def point_stream(
    seed: int, records: list[tuple], hot_keys: int, label: str
):
    """Small reads: 90 % point, 10 % range on a d0 prefix; half the keys
    from a hot set that fits the per-measure LRU, half uniform over
    every bootstrap key, which does not."""
    rng = _rng(seed, f"point:{label}")
    hot = _rng(seed, "hot-set").sample(records, hot_keys)
    while True:
        pool = hot if rng.random() < 0.5 else records
        rec = pool[rng.randrange(len(pool))]
        op = "point" if rng.random() < 0.9 else "range"
        yield (op, (rec[0], rec[1]))


def read_stream(spec: ServeSpec, seed: int, records, label: str):
    if spec.mix == "scan":
        return scan_stream(seed, label)
    return point_stream(seed, records, spec.hot_keys, label)


# -- the workloads -----------------------------------------------------

WORKLOADS: dict[str, BatchSpec | ServeSpec] = {
    spec.name: spec
    for spec in (
        BatchSpec("batch_coarse", 160_000, lattice_workflow),
        BatchSpec("batch_base", 160_000, q1_workflow),
        BatchSpec("batch_spill", 400_000, lattice_workflow, run_size=100_000),
        ServeSpec("serve_scan", 2, "scan", 0.0, "read"),
        ServeSpec("serve_mixed", 1, "point", 0.5, "read"),
        ServeSpec("serve_ingest", 0, "", 0.5, "ingest"),
    )
}
