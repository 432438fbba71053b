"""The sharded-service benchmark behind ``BENCH_service.json``.

Measures what the cluster layer is *for*: sustained read throughput
while ingest is running.  A single-store service serializes every
read behind the ingest fold (one lock, one state table to rewrite);
with N range-partitioned shards a time-ordered delta lands on the one
hot shard, so its fold touches ~1/N of the state *and* reads against
the other shards never wait on it.

The scenario is the paper's running network-log example as a live
feed: bootstrap over the full key range, then continuous tail-append
deltas (new time values — monotonically increasing partition keys)
while reader threads hammer point and range queries across the whole
range.  Reported per shard count:

- ``read_qps`` — completed reads / wall-clock, while ingest runs;
- ``p50_ms`` / ``p99_ms`` — read latency percentiles (the p99 is the
  convoy detector: reads stuck behind a fold);
- ``ingests`` / ``ingest_seconds_avg`` — folds completed and their
  mean cost.

The sheet metric is ``read_scaling_4x`` = read_qps(4 shards) /
read_qps(1 shard), target ≥ 2.5 on a single box (the win is lock and
work decomposition, not extra cores).  ``repro bench --figure service
--json BENCH_service.json`` writes the artifact CI uploads.
"""

from __future__ import annotations

import random
import tempfile
import threading
import time

from repro.bench.harness import BenchRow
from repro.schema.dataset_schema import synthetic_schema
from repro.schema.domain import ALL_VALUE
from repro.service.cluster import bootstrap_cluster
from repro.workflow.workflow import AggregationWorkflow

#: Version of the BENCH_service.json payload layout.
SCHEMA_VERSION = 1

#: The sheet's headline target: read throughput at 4 shards over 1,
#: measured under concurrent ingest.
TARGET_READ_SCALING = 2.5

#: Shard counts of the sweep; 1 is the baseline.
SHARD_COUNTS = (1, 2, 4)

#: Benchmark shape at scale=1.0.
BASE_BOOTSTRAP = 24_000
BASE_DELTA = 400
READERS = 4
MEASURE_SECONDS = 8.0

#: Offered ingest load: one delta fold per this many seconds, the same
#: arrival rate for every shard count.  A feed that instead folds
#: back-to-back would do *more* folds on a faster cluster and burn the
#: freed CPU itself, hiding exactly the effect the sheet measures.
INGEST_INTERVAL = 0.25

#: Base cardinality of every dimension (fanout 16, 3 levels).
BASE_T = 4_096

#: Deltas update keys in the top quarter of the time range — the keys
#: the last shard owns.  Sampling them from the bootstrap pool keeps
#: the state tables a fixed size (pure updates, no growth), so the
#: fold cost stays ∝ the owning shard's table throughout the window.
HOT_LO = 3_072

METRIC_DEFINITIONS = {
    "read_qps": (
        "completed point+range reads per second across all reader "
        "threads, measured while a background thread folds "
        "tail-append deltas continuously"
    ),
    "p99_ms": (
        "99th-percentile read latency in milliseconds over the same "
        "window; the convoy detector — reads queued behind an ingest "
        "fold land here"
    ),
    "read_scaling_4x": (
        "read_qps at 4 shards / read_qps at 1 shard, same box, same "
        "workload; the target is lock/work decomposition, not core "
        "count, so it holds on a single CPU"
    ),
    "ingest_seconds_avg": (
        "mean wall-clock of one two-phase cluster ingest (journal "
        "write through manifest swap) during the window"
    ),
}


def _bench_workflow(schema) -> AggregationWorkflow:
    """Mergeable-only workflow: every ingest is fully incremental.

    d0 is the time-like partition dimension.  ``Count`` is keyed at the
    base level of two 4096-value dimensions, so its state table is the
    size of the fact key-set — the table each fold has to rewrite, and
    the thing sharding divides.
    """
    wf = AggregationWorkflow(schema, name="service-bench")
    wf.basic("Count", {"d0": "d0.L0", "d1": "d1.L0"}, agg="count")
    wf.basic("Total", {"d0": "d0.L0"}, agg=("sum", "v"))
    wf.rollup("sCount", {"d0": "d0.L1"}, source="Count", agg="sum")
    return wf


def _records(rng: random.Random, count: int, t_lo: int, t_hi: int):
    """Records with d0 (time) drawn from [t_lo, t_hi)."""
    return [
        (
            rng.randrange(t_lo, t_hi),
            rng.randrange(BASE_T),
            rng.randrange(BASE_T),
            round(rng.random(), 6),
        )
        for __ in range(count)
    ]


class _IngestFeed(threading.Thread):
    """Folds hot-tail update deltas into the cluster until stopped."""

    def __init__(
        self,
        cluster,
        rng: random.Random,
        pool: list,
        delta: int,
    ) -> None:
        super().__init__(daemon=True, name="bench-ingest")
        self.cluster = cluster
        self.rng = rng
        # Resample bootstrap records whose time lands in the hot tail:
        # every delta re-touches keys the last shard already owns, so
        # state size (and with it the fold cost) stays flat.
        self.pool = [rec for rec in pool if rec[0] >= HOT_LO]
        self.delta = delta
        self.stop = threading.Event()
        self.count = 0
        self.seconds = 0.0
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            deadline = time.perf_counter()
            while not self.stop.is_set():
                batch = self.rng.choices(self.pool, k=self.delta)
                started = time.perf_counter()
                self.cluster.ingest(batch)
                done = time.perf_counter()
                self.seconds += done - started
                self.count += 1
                # Hold the offered rate constant: next fold starts one
                # INGEST_INTERVAL after the previous one *should* have,
                # with no catch-up burst when a fold overruns.
                deadline = max(deadline + INGEST_INTERVAL, done)
                self.stop.wait(max(0.0, deadline - done))
        except BaseException as exc:  # pragma: no cover - surfaced below
            self.error = exc


class _Reader(threading.Thread):
    """One reader: random point/range queries, latencies recorded.

    Keys come from the bootstrap pool (they exist), uniformly over the
    whole time range — so with N shards only ~1/N of reads land on the
    shard the feed is folding into.
    """

    def __init__(
        self, cluster, seed: int, pool: list, stop: threading.Event
    ) -> None:
        super().__init__(daemon=True, name=f"bench-reader-{seed}")
        self.cluster = cluster
        self.rng = random.Random(seed)
        self.pool = pool
        self.stop = stop
        self.latencies: list[float] = []
        self.error: BaseException | None = None

    def run(self) -> None:
        rng = self.rng
        pool = self.pool
        try:
            while not self.stop.is_set():
                rec = pool[rng.randrange(len(pool))]
                started = time.perf_counter()
                if rng.random() < 0.8:
                    # Region keys are full-width: d2 is aggregated.
                    self.cluster.point(
                        "Count", (rec[0], rec[1], ALL_VALUE), default=0
                    )
                else:
                    self.cluster.range("Total", (rec[0],))
                self.latencies.append(time.perf_counter() - started)
        except BaseException as exc:  # pragma: no cover - surfaced below
            self.error = exc


def _percentile(sorted_values: list[float], q: float) -> float | None:
    if not sorted_values:
        return None
    index = min(
        len(sorted_values) - 1, int(q * (len(sorted_values) - 1))
    )
    return sorted_values[index]


def _measure_config(
    num_shards: int,
    seed: int,
    bootstrap_size: int,
    delta_size: int,
    seconds: float,
    readers: int,
) -> dict:
    rng = random.Random(seed)
    schema = synthetic_schema(num_dimensions=3, levels=3, fanout=16)
    workflow = _bench_workflow(schema)
    base = _records(rng, bootstrap_size, 0, BASE_T)
    with tempfile.TemporaryDirectory(prefix="repro-bench-svc-") as root:
        cluster = bootstrap_cluster(
            f"{root}/cluster", workflow, base, num_shards=num_shards
        )
        try:
            stop = threading.Event()
            feed = _IngestFeed(
                cluster, random.Random(seed + 1), base, delta_size
            )
            pool = [
                _Reader(cluster, seed + 10 + i, base, stop)
                for i in range(readers)
            ]
            feed.start()
            started = time.perf_counter()
            for reader in pool:
                reader.start()
            time.sleep(seconds)
            stop.set()
            for reader in pool:
                reader.join()
            elapsed = time.perf_counter() - started
            feed.stop.set()
            feed.join()
            for worker in (feed, *pool):
                if worker.error is not None:
                    raise worker.error
        finally:
            cluster.close()
    latencies = sorted(
        latency
        for reader in pool
        for latency in reader.latencies
    )
    return {
        "shards": num_shards,
        "reads": len(latencies),
        "read_qps": len(latencies) / elapsed if elapsed else None,
        "p50_ms": (_percentile(latencies, 0.50) or 0) * 1e3 or None,
        "p99_ms": (_percentile(latencies, 0.99) or 0) * 1e3 or None,
        "max_ms": latencies[-1] * 1e3 if latencies else None,
        "ingests": feed.count,
        "ingest_seconds_avg": (
            feed.seconds / feed.count if feed.count else None
        ),
        "window_seconds": elapsed,
    }


def service_bench(
    scale: float = 1.0,
    seed: int = 0,
    shard_counts: tuple[int, ...] = SHARD_COUNTS,
    readers: int = READERS,
) -> tuple[list[BenchRow], dict]:
    """Run the sweep and build the JSON payload.

    Returns ``(rows, payload)``: rows feed ``format_table`` (one row
    per shard count), payload is the ``BENCH_service.json`` document.
    """
    bootstrap_size = max(2_000, int(BASE_BOOTSTRAP * scale))
    delta_size = max(50, int(BASE_DELTA * scale))
    seconds = max(2.0, MEASURE_SECONDS * min(1.0, scale * 2))

    points = []
    rows: list[BenchRow] = []
    for num_shards in shard_counts:
        point = _measure_config(
            num_shards,
            seed,
            bootstrap_size,
            delta_size,
            seconds,
            readers,
        )
        points.append(point)
        rows.append(
            BenchRow(
                "service",
                f"{num_shards}-shard",
                "cluster[local]",
                point["window_seconds"],
                note=(
                    f"{point['read_qps']:.0f} q/s, "
                    f"p99={point['p99_ms']:.1f}ms, "
                    f"{point['ingests']} ingests"
                ),
            )
        )

    by_shards = {point["shards"]: point for point in points}
    base_qps = (by_shards.get(1) or {}).get("read_qps")
    four_qps = (by_shards.get(4) or {}).get("read_qps")
    scaling = (
        four_qps / base_qps if base_qps and four_qps else None
    )
    payload = {
        "bench": "service",
        "schema_version": SCHEMA_VERSION,
        "scale": scale,
        "bootstrap_records": bootstrap_size,
        "delta_records": delta_size,
        "reader_threads": readers,
        "window_seconds": seconds,
        "metrics": {
            "read_scaling_4x": scaling,
            "target_read_scaling_4x": TARGET_READ_SCALING,
            "baseline_read_qps": base_qps,
            "four_shard_read_qps": four_qps,
            "p99_improvement_4x": (
                by_shards[1]["p99_ms"] / by_shards[4]["p99_ms"]
                if by_shards.get(1, {}).get("p99_ms")
                and by_shards.get(4, {}).get("p99_ms")
                else None
            ),
        },
        "definitions": METRIC_DEFINITIONS,
        "points": points,
    }
    return rows, payload


def service_rows(scale: float = 1.0, seed: int = 0) -> list[BenchRow]:
    """The ``ALL_FIGURES``-shaped driver (rows only)."""
    rows, __ = service_bench(scale=scale, seed=seed)
    return rows
