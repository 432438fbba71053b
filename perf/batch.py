"""The batch path: fact file on disk → compile/plan → sort → scan/flush
→ ``DirectorySink`` closed.

One *job* is everything a user waits for after the facts are on disk.
The untraced run times whole jobs; the traced run times the same job
with a timing sink and the engine's own sort/scan split, then drains
each layer standalone (flat-file decode, external sort) and runs the
paper's comparison routes (single scan, relational) on the same input.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from statistics import median
from typing import NamedTuple

from repro.engine import (
    RelationalEngine,
    SingleScanEngine,
    SortScanEngine,
    build_streaming_plan,
    compile_workflow,
)
from repro.engine.sort_scan import default_sort_key
from repro.storage.external_sort import DEFAULT_RUN_SIZE, external_sort
from repro.storage.flatfile import FlatFileDataset, write_flatfile
from repro.storage.sink import DirectorySink, Sink

from perf.inputs import BatchSpec, batch_facts, batch_schema
from perf.report import (
    SETUP_REPEATS,
    Result,
    close_enough,
    peak_rss_mb,
    tree_bytes,
)
from perf.stats import percentile

#: A window always times at least this many jobs.
MIN_JOBS = 3


class TimingSink(Sink):
    """Times every call into the wrapped sink and counts rows."""

    def __init__(self, inner: Sink) -> None:
        self.inner = inner
        self.wants_states = inner.wants_states
        self.emit_s = 0.0
        self.other_s = 0.0
        self.rows = 0

    def open_measure(self, name, granularity) -> None:
        started = time.perf_counter()
        self.inner.open_measure(name, granularity)
        self.other_s += time.perf_counter() - started

    def emit(self, name, key, value) -> None:
        started = time.perf_counter()
        self.inner.emit(name, key, value)
        self.emit_s += time.perf_counter() - started
        self.rows += 1

    def close(self) -> None:
        started = time.perf_counter()
        self.inner.close()
        self.other_s += time.perf_counter() - started

    def result(self):
        return self.inner.result()


class Job(NamedTuple):
    """What one job took."""

    seconds: float
    plan_s: float
    stats: object  # EvalStats
    sink: TimingSink | None


def run_job(
    spec: BatchSpec, path, schema, workflow, out_dir, timing=False
) -> Job:
    started = time.perf_counter()
    dataset = FlatFileDataset(path, schema)
    graph = compile_workflow(workflow)
    sort_key = default_sort_key(graph)
    build_streaming_plan(graph, sort_key, len(dataset))
    planned = time.perf_counter()
    engine = SortScanEngine(
        sort_key=sort_key, run_size=spec.run_size or DEFAULT_RUN_SIZE
    )
    sink: Sink = DirectorySink(out_dir)
    timer = TimingSink(sink) if timing else None
    result = engine.evaluate(dataset, graph, sink=timer or sink)
    done = time.perf_counter()
    return Job(done - started, planned - started, result.stats, timer)


def read_tables(directory: str) -> dict[str, dict]:
    """Parse a ``DirectorySink`` directory back into ``{name: rows}``."""
    tables: dict[str, dict] = {}
    for filename in sorted(os.listdir(directory)):
        rows: dict = {}
        with open(os.path.join(directory, filename)) as fh:
            for line in fh:
                *key, value = line.rstrip("\n").split("\t")
                rows[tuple(int(part) for part in key)] = (
                    None if value == "None" else float(value)
                )
        tables[filename[: -len(".tsv")]] = rows
    return tables


def tables_differ(got: dict[str, dict], oracle: dict[str, dict]) -> str:
    """Empty when ``got`` matches ``oracle``, else the first difference."""
    if set(got) != set(oracle):
        return f"measures {sorted(got)} != {sorted(oracle)}"
    for name, expected in oracle.items():
        rows = got[name]
        if set(rows) != set(expected):
            return f"{name}: {len(rows)} keys, oracle has {len(expected)}"
        for key, want in expected.items():
            have = rows[key]
            if want is None or have is None:
                if want is not have:
                    return f"{name}{key}: {have} != {want}"
            elif not close_enough(have, want):
                return f"{name}{key}: {have} != {want}"
    return ""


def _set_up(spec: BatchSpec, seed: int, work: str, repeats: int):
    """Generate the facts and write the fact file, ``repeats`` times."""
    schema = batch_schema()
    path = os.path.join(work, "facts.bin")
    seconds = []
    for _ in range(repeats):
        started = time.perf_counter()
        write_flatfile(path, schema, batch_facts(seed, spec.facts))
        seconds.append(time.perf_counter() - started)
    return schema, path, seconds


def _standalone_sort(spec: BatchSpec, dataset, sort_key, work: str):
    """Drain ``external_sort`` alone; returns (seconds, runs, bytes)."""
    tmp_dir = tempfile.mkdtemp(prefix="sort-", dir=work)
    rows = external_sort(
        dataset.scan(),
        sort_key.record_mapper(),
        run_size=spec.run_size or DEFAULT_RUN_SIZE,
        tmp_dir=tmp_dir,
    )
    try:
        started = time.perf_counter()
        next(rows, None)
        # Every run is on disk once the merge yields its first row.
        spilled = [
            os.path.getsize(os.path.join(tmp_dir, name))
            for name in os.listdir(tmp_dir)
        ]
        for _ in rows:
            pass
        return time.perf_counter() - started, len(spilled), sum(spilled)
    finally:
        rows.close()
        shutil.rmtree(tmp_dir, ignore_errors=True)


def run(
    spec: BatchSpec, seed: int, seconds: float, trace: bool, work: str,
    result: Result,
) -> None:
    schema, path, setups = _set_up(
        spec, seed, work, 1 if trace else SETUP_REPEATS
    )
    workflow = spec.workflow(schema)
    out_dir = os.path.join(work, "out")
    outputs: list[tuple[str, dict]] = []

    def job(label: str, timing: bool = False):
        shutil.rmtree(out_dir, ignore_errors=True)
        timed = run_job(spec, path, schema, workflow, out_dir, timing)
        outputs.append((label, read_tables(out_dir)))
        return timed

    job("warm-up")
    plain: list[float] = []
    traced: list[Job] = []
    started = time.perf_counter()
    if trace:
        # Untraced and traced jobs alternate so both see the same box.
        while not traced or time.perf_counter() - started < seconds * 0.4:
            plain.append(job(f"job {len(plain)}").seconds)
            traced.append(job(f"traced job {len(traced)}", timing=True))
    else:
        while (
            len(plain) < MIN_JOBS
            or time.perf_counter() - started < seconds
        ):
            plain.append(job(f"job {len(plain)}").seconds)
        result.put("setup_s", median(setups), len(setups))
        result.put("op_p50_ms", median(plain) * 1e3, len(plain))
        result.put("op_p90_ms", percentile(plain, 0.9) * 1e3, len(plain))
        result.put("ops_per_s", len(plain) / sum(plain), len(plain))
        # Before the oracle runs: its tables are not the engine's footprint.
        result.put("peak_rss_mb", peak_rss_mb())
        result.put("disk_mb", tree_bytes(work) / 1e6)

    dataset = FlatFileDataset(path, schema)
    if trace:
        _trace_layers(spec, dataset, workflow, work, plain, traced, result)
        started = time.perf_counter()
        compiled = compile_workflow(workflow)
        shutil.rmtree(out_dir, ignore_errors=True)
        stats = SingleScanEngine().evaluate(
            dataset, compiled, sink=DirectorySink(out_dir)
        ).stats
        result.put("single_scan.job_s", time.perf_counter() - started)
        result.put("single_scan.peak_entries", stats.peak_entries)
        outputs.append(("single-scan job", read_tables(out_dir)))

    started = time.perf_counter()
    oracle = {
        name: dict(table.rows)
        for name, table in RelationalEngine()
        .evaluate(dataset, workflow)
        .tables.items()
    }
    if trace:
        result.put("relational.job_s", time.perf_counter() - started)
    for label, tables in outputs:
        result.judge(label, tables_differ(tables, oracle))


def _trace_layers(
    spec, dataset, workflow, work, plain, traced, result: Result
) -> None:
    """The per-layer split of the traced jobs plus standalone drains."""
    n = len(traced)
    jobs = [job.seconds for job in traced]
    plans = [job.plan_s for job in traced]
    sorts = [job.stats.sort_seconds for job in traced]
    # The sink is called from inside the scan: its share is taken out so
    # the layers add up to the job.
    scans = [job.stats.scan_seconds - job.sink.emit_s for job in traced]
    sinks = [job.sink.emit_s + job.sink.other_s for job in traced]
    last_stats, last_sink = traced[-1].stats, traced[-1].sink

    result.put("compile.plan_ms", median(plans) * 1e3, n)
    result.put("sort_scan.sort_s", median(sorts), n)
    result.put("sort_scan.scan_s", median(scans), n)
    result.put("sort_scan.rows_scanned", last_stats.rows_scanned)
    result.put("sort_scan.flushed_entries", last_stats.flushed_entries)
    result.put(
        "sort_scan.peak_entries",
        median([job.stats.peak_entries for job in traced]), n,
    )
    result.put("sink.write_s", median(sinks), n)
    result.put("sink.rows_out", last_sink.rows)
    result.put("sink.bytes_out", tree_bytes(os.path.join(work, "out")))
    result.put(
        "job.unattributed_share",
        median(
            [
                (job - plan - sort - scan - sink) / job
                for job, plan, sort, scan, sink in zip(
                    jobs, plans, sorts, scans, sinks
                )
            ]
        ),
        n,
    )
    result.put("job.traced_s", median(jobs), n)
    result.put(
        "trace.overhead_share",
        (median(jobs) - median(plain)) / median(plain), n,
    )

    decodes = []
    for _ in range(3):
        started = time.perf_counter()
        for _batch in dataset.scan_batches():
            pass
        decodes.append(time.perf_counter() - started)
    result.put("flatfile.decode_s", median(decodes), len(decodes))
    result.put("flatfile.bytes_read", os.path.getsize(dataset.path))

    sort_key = default_sort_key(compile_workflow(workflow))
    sort_s, runs, spill_bytes = _standalone_sort(
        spec, dataset, sort_key, work
    )
    result.put("external_sort.sort_s", sort_s)
    result.put("external_sort.runs", runs)
    result.put("external_sort.spill_bytes", spill_bytes)
