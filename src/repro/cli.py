"""Command-line interface: ``python -m repro <command>``.

The paper's goal is "a standalone, lightweight yet highly scalable
analysis system" a domain specialist can point at a flat file — this
module is that front door:

- ``generate`` — produce a dataset (synthetic / netlog / honeynet) as a
  binary flat file or CSV;
- ``run`` — evaluate one of the paper's queries over a flat file with a
  chosen engine, printing results and run statistics;
- ``explain`` — show a query's AW-RA algebra, its equivalent SQL
  (Tables 2-4), the compiled evaluation graph, the streaming plan, or
  GraphViz DOT;
- ``sql`` — compile a query to *executable* SQL and run it on a real
  relational engine (stdlib sqlite3, or duckdb when importable),
  decoding results back into measure tables;
- ``bench`` — regenerate one of the paper's figures at a chosen scale;
- ``ingest`` — bootstrap a persistent measure store from a flat file,
  or fold a delta batch into it incrementally;
- ``query`` — read a stored measure (table, point, or prefix range)
  without re-evaluating anything;
- ``serve`` — expose a store over a JSON/HTTP endpoint (including a
  Prometheus ``/metrics`` route);
- ``trace`` — run a query with span recording on and write a Chrome
  trace-event JSON (open it in ``chrome://tracing`` or Perfetto);
- ``profile`` — per-workflow-node timing/footprint table for a
  sort/scan run.

Results (measure tables, stats lines, bench tables) go to stdout;
operational chatter goes through the ``repro.*`` loggers to stderr,
tunable with ``-v``/``-q``.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from collections.abc import Sequence

from repro.bench.figures import ALL_FIGURES
from repro.bench.harness import format_table
from repro.data.honeynet import HoneynetGenerator
from repro.data.netlog import NetworkLogGenerator
from repro.data.synthetic import SyntheticGenerator
from repro.engine.multi_pass import MultiPassEngine
from repro.engine.naive import RelationalEngine
from repro.engine.partitioned import PartitionedEngine
from repro.engine.single_scan import SingleScanEngine
from repro.engine.sort_scan import SortScanEngine
from repro.errors import ReproError
from repro.obs import (
    get_registry,
    get_tracer,
    set_tracing,
    telemetry_forced,
)
from repro.queries.registry import QUERY_FAMILIES, SCHEMA_FAMILIES
from repro.schema.dataset_schema import synthetic_schema
from repro.storage.flatfile import (
    FlatFileDataset,
    write_csv,
    write_flatfile,
)

logger = logging.getLogger("repro.cli")


class _CurrentStderrHandler(logging.StreamHandler):
    """Writes to whatever ``sys.stderr`` is *at emit time*.

    The handler outlives ``main()`` on the ``repro`` logger, and other
    threads (an HTTP server's access log) may route records through it
    long after the stderr it was configured under has been swapped out
    and closed (pytest capture, notebooks).  Resolving the stream per
    record keeps those late writes off dead file objects — the same
    idiom as ``logging``'s own lastResort handler.
    """

    def __init__(self) -> None:
        logging.Handler.__init__(self)

    @property
    def stream(self):  # type: ignore[override]
        return sys.stderr


def _setup_logging(verbosity: int) -> None:
    """(Re)configure the ``repro`` logger tree for one CLI invocation.

    The stream handler is recreated on every call and resolves the
    *current* ``sys.stderr`` per record, so repeated ``main()`` calls
    in one process (tests, notebooks) write to the right stream even
    after the caller swaps ``sys.stderr`` out.
    """
    if verbosity > 0:
        level = logging.DEBUG
    elif verbosity < 0:
        level = logging.WARNING
    else:
        level = logging.INFO
    root = logging.getLogger("repro")
    for handler in list(root.handlers):
        root.removeHandler(handler)
    handler = _CurrentStderrHandler()
    handler.setFormatter(logging.Formatter("%(message)s"))
    root.addHandler(handler)
    root.setLevel(level)
    root.propagate = False


_GENERATORS = {
    "synthetic": lambda seed: SyntheticGenerator(seed=seed),
    "netlog": lambda seed: NetworkLogGenerator(seed=seed),
    "honeynet": lambda seed: (
        HoneynetGenerator(seed=seed).with_default_episodes()
    ),
}

# The named query families live in repro.queries.registry so the HTTP
# front ends resolve exactly the same declarative encoding the CLI does.
_SCHEMAS = SCHEMA_FAMILIES
_QUERIES = QUERY_FAMILIES

_ENGINES = {
    "sortscan": lambda args: SortScanEngine(
        optimize=True, batch_size=args.batch_size
    ),
    "relational": lambda args: RelationalEngine(),
    "singlescan": lambda args: SingleScanEngine(
        batch_size=args.batch_size
    ),
    "multipass": lambda args: MultiPassEngine(
        memory_budget_entries=500_000
    ),
    "partitioned": lambda args: PartitionedEngine(
        num_partitions=args.partitions, parallel=args.parallel
    ),
}


def _add_run_arguments(run: argparse.ArgumentParser) -> None:
    """Arguments shared by ``run`` and ``trace run``."""
    run.add_argument("--query", choices=sorted(_QUERIES), required=True)
    run.add_argument("--data", required=True, help="binary flat file")
    run.add_argument(
        "--engine", choices=sorted(_ENGINES), default="sortscan"
    )
    run.add_argument(
        "--parallel",
        choices=("serial", "threads", "processes"),
        default="serial",
        help="partitioned engine only: evaluate partitions serially, "
        "on a thread pool, or on one OS process per partition",
    )
    run.add_argument(
        "--partitions", type=int, default=None,
        help="partitioned engine only: partition count "
        "(default: one per CPU core)",
    )
    run.add_argument(
        "--batch-size", type=int, default=None,
        help="sort/scan and single-scan engines: rows per columnar "
        "batch (0 forces the row-at-a-time scalar path; default: "
        "auto — 4096 when numpy is available, scalar otherwise)",
    )
    run.add_argument(
        "--limit", type=int, default=10,
        help="rows to print per measure",
    )
    run.add_argument(
        "--measures", nargs="*", default=None,
        help="measure names to print (default: all outputs)",
    )
    run.add_argument(
        "--out", default=None,
        help="directory to write one TSV per output measure",
    )
    run.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record spans and write a Chrome trace-event JSON here",
    )
    run.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="dump the metrics registry as JSON ('-' for stdout)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Composite subset measures over flat files "
        "(VLDB 2006 reproduction).",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="more operational logging (repeatable)",
    )
    parser.add_argument(
        "-q", "--quiet", action="count", default=0,
        help="less operational logging (repeatable)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser(
        "generate", help="generate a dataset flat file"
    )
    generate.add_argument(
        "--kind", choices=sorted(_GENERATORS), default="honeynet"
    )
    generate.add_argument("--records", type=int, default=50_000)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True)
    generate.add_argument(
        "--format", choices=("bin", "csv"), default="bin"
    )

    run = sub.add_parser("run", help="run a paper query over a file")
    _add_run_arguments(run)

    trace = sub.add_parser(
        "trace", help="run a command with span recording on"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_run = trace_sub.add_parser(
        "run", help="run a query and write a Chrome trace-event JSON"
    )
    _add_run_arguments(trace_run)

    profile = sub.add_parser(
        "profile",
        help="per-workflow-node timing table for a sort/scan run",
    )
    profile.add_argument(
        "--query", choices=sorted(_QUERIES), required=True
    )
    profile.add_argument(
        "--data", required=True, help="binary flat file"
    )

    explain = sub.add_parser(
        "explain", help="show a query's algebra / SQL / plan"
    )
    explain.add_argument(
        "--query", choices=sorted(_QUERIES), required=True
    )
    explain.add_argument(
        "--show",
        choices=("algebra", "sql", "graph", "plan", "dot", "cost"),
        default="algebra",
    )
    explain.add_argument(
        "--rows", type=int, default=1_000_000,
        help="assumed dataset size for --show cost/plan estimates",
    )

    sql = sub.add_parser(
        "sql",
        help="compile a query to executable SQL and run it on a "
        "relational engine (sqlite3 / duckdb)",
    )
    sql.add_argument(
        "--query", choices=sorted(_QUERIES), required=True
    )
    sql.add_argument(
        "--engine", choices=("sqlite", "duckdb"), default="sqlite"
    )
    sql_mode = sql.add_mutually_exclusive_group()
    sql_mode.add_argument(
        "--explain", action="store_true",
        help="print the DDL and per-measure SQL without executing",
    )
    sql_mode.add_argument(
        "--run", action="store_true",
        help="load a dataset and execute (the default)",
    )
    sql.add_argument(
        "--data", default=None,
        help="binary flat file (default: generate a small dataset)",
    )
    sql.add_argument(
        "--records", type=int, default=5_000,
        help="generated dataset size when --data is omitted",
    )
    sql.add_argument("--seed", type=int, default=0)
    sql.add_argument(
        "--limit", type=int, default=10, help="rows to print per measure"
    )

    bench = sub.add_parser(
        "bench", help="regenerate one of the paper's figures"
    )
    bench.add_argument(
        "--figure", choices=sorted(ALL_FIGURES), required=True
    )
    bench.add_argument("--scale", type=float, default=0.1)
    bench.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the rows (with full run stats) as JSON",
    )
    bench.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="dump the metrics registry as JSON ('-' for stdout)",
    )

    ingest = sub.add_parser(
        "ingest",
        help="bootstrap a measure store or fold a delta batch into it",
    )
    ingest.add_argument("--store", required=True, help="store directory")
    ingest.add_argument("--data", required=True, help="binary flat file")
    ingest.add_argument(
        "--query", choices=sorted(_QUERIES), default=None,
        help="query the store serves (required on first ingest)",
    )
    ingest.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="treat --store as a sharded cluster directory: bootstrap "
        "it with N shards on first ingest, two-phase ingest afterwards "
        "(0 = single store)",
    )

    query = sub.add_parser(
        "query", help="read measures from a persistent store"
    )
    query.add_argument("--store", required=True, help="store directory")
    query.add_argument(
        "--measure", default=None,
        help="measure to read (omit to list the store's measures)",
    )
    query.add_argument(
        "--key", default=None,
        help="comma-separated region key for a point lookup",
    )
    query.add_argument(
        "--prefix", default=None,
        help="comma-separated key prefix for a range scan",
    )
    query.add_argument(
        "--stats", action="store_true", help="print serving statistics"
    )
    query.add_argument(
        "--limit", type=int, default=10, help="rows to print"
    )

    faults = sub.add_parser(
        "faults",
        help="fault-injection toolkit: fail points, oracles, crash sweep",
    )
    faults_sub = faults.add_subparsers(
        dest="faults_command", required=True
    )
    faults_list = faults_sub.add_parser(
        "list", help="show registered fail-point injection sites"
    )
    faults_list.add_argument(
        "--scope", default=None,
        help="only sites of one scope "
        "(store, ingest, cluster, sort, engine)",
    )
    faults_run = faults_sub.add_parser(
        "run", help="run the metamorphic oracle batch over a seed range"
    )
    faults_run.add_argument(
        "--seeds", type=int, default=50, help="number of seeds to check"
    )
    faults_run.add_argument(
        "--start", type=int, default=0, help="first seed of the range"
    )
    faults_run.add_argument(
        "--families", nargs="*", default=None,
        help="oracle families to check (default: all)",
    )
    faults_sweep = faults_sub.add_parser(
        "sweep",
        help="kill a committing subprocess at every store/ingest/"
        "cluster fail point and verify recovery",
    )
    faults_sweep.add_argument(
        "--seed", type=int, default=0, help="RandomCase seed"
    )
    faults_sweep.add_argument(
        "--action", choices=("crash", "torn-write"), default="crash",
        help="what the armed site does before the process dies",
    )
    faults_sweep.add_argument(
        "--sites", nargs="*", default=None,
        help="site names to sweep "
        "(default: every store/ingest/cluster site)",
    )

    lint = sub.add_parser(
        "lint",
        help="statically analyze workflows (CSM diagnostic codes)",
    )
    lint.add_argument(
        "queries", nargs="*", metavar="QUERY",
        help=f"built-in workflows to lint, from: "
        f"{', '.join(sorted(_QUERIES))} (default: all of them)",
    )
    lint.add_argument(
        "--generated-seeds", type=int, default=0, metavar="N",
        help="also lint N testkit-generated random workflows",
    )
    lint.add_argument(
        "--start", type=int, default=0,
        help="first seed of the generated range",
    )
    lint.add_argument(
        "--seed", type=int, action="append", default=None,
        dest="seeds", metavar="K",
        help="lint exactly the generated workflow with seed K "
        "(repeatable; reproduces a --generated-seeds failure)",
    )
    lint.add_argument(
        "--rows", type=int, default=None,
        help="assumed dataset size for footprint estimates",
    )
    lint.add_argument(
        "--workload", action="store_true",
        help="also run cross-workflow analysis over all linted "
        "workflows together (CSM4xx sharing diagnostics)",
    )
    lint.add_argument(
        "--budget", type=float, default=None, metavar="SECS",
        help="with --workload: also compress the workload to a "
        "representative subset fitting this time budget",
    )
    lint.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit one JSON report object per workflow",
    )
    lint.add_argument(
        "--sarif", default=None, metavar="PATH",
        help="additionally write all findings as a SARIF 2.1.0 log",
    )
    lint.add_argument(
        "--fail-on", choices=("error", "warning", "hint"),
        default="error", dest="fail_on",
        help="lowest severity that makes the exit code non-zero",
    )

    serve = sub.add_parser(
        "serve", help="serve a measure store over JSON/HTTP"
    )
    serve.add_argument("--store", required=True, help="store directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8651, help="0 picks a free port"
    )
    serve.add_argument(
        "--query", choices=sorted(_QUERIES), default=None,
        help="workflow override when the store has none saved",
    )
    serve.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="serve a sharded cluster directory (0 = whatever --store "
        "holds: a cluster is detected, anything else is one plain "
        "store); the cluster must exist (repro ingest --shards N)",
    )
    serve.add_argument(
        "--mode", choices=("local", "process"), default="local",
        help="cluster execution substrate: in-process shards or one "
        "OS process per shard",
    )
    serve.add_argument(
        "--tenants", action="store_true",
        help="multi-tenant root: tenants register workflows over "
        "POST /workflow and get isolated, admission-controlled "
        "namespaces",
    )
    serve.add_argument(
        "--budget", type=int, default=None, metavar="ENTRIES",
        help="per-tenant footprint budget for admission control",
    )
    serve.add_argument(
        "--allow-pickle-workflows", action="store_true", default=None,
        help="accept base64-pickle bodies on POST /workflow even on a "
        "non-loopback bind (trusted operators only: unpickling "
        "executes arbitrary client code; named 'query' families are "
        "always accepted, and loopback binds accept pickles by "
        "default)",
    )
    serve.add_argument(
        "--access-log", default=None, metavar="PATH",
        help="append one structured JSON line per HTTP request here",
    )
    serve.add_argument(
        "--slow-query-log", default=None, metavar="PATH",
        help="append slow requests (with per-stage timings and engine "
        "profiles) here as JSON lines",
    )
    serve.add_argument(
        "--slow-query-seconds", type=float, default=None,
        metavar="SECONDS",
        help="slow-query threshold (default 0.5, or the "
        "REPRO_SLOW_QUERY_SECONDS environment variable)",
    )

    obs = sub.add_parser(
        "obs",
        help="observability toolkit: request logs, traces, SLO status",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_tail = obs_sub.add_parser(
        "tail",
        help="pretty-print the last entries of a JSON-lines "
        "access/slow-query log",
    )
    obs_tail.add_argument(
        "--log", required=True, help="JSON-lines log file"
    )
    obs_tail.add_argument(
        "--limit", type=int, default=20, help="entries to print"
    )
    obs_tail.add_argument(
        "--json", action="store_true", dest="as_json",
        help="raw JSON lines instead of the formatted view",
    )
    obs_trace = obs_sub.add_parser(
        "trace",
        help="render a stored Chrome trace-event JSON as span trees",
    )
    obs_trace.add_argument(
        "--file", required=True, help="trace-event JSON file"
    )
    obs_trace.add_argument(
        "--trace-id", default=None,
        help="render only this trace (default: every trace in the file)",
    )
    obs_slo = obs_sub.add_parser(
        "slo",
        help="dump a serving front end's SLO burn-rate status "
        "(GET /statusz)",
    )
    obs_slo.add_argument(
        "--url", required=True,
        help="front-end base URL, e.g. http://127.0.0.1:8651",
    )
    obs_slo.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the raw /statusz JSON",
    )

    return parser


def _cmd_generate(args) -> int:
    generator = _GENERATORS[args.kind](args.seed)
    records = generator.records(args.records)
    if args.format == "csv":
        count = write_csv(args.out, generator.schema, records)
    else:
        count = write_flatfile(args.out, generator.schema, records)
    schema_name = (
        "synthetic" if args.kind == "synthetic" else "network"
    )
    logger.info(
        "wrote %d records to %s (%s; use --query families for "
        "schema '%s')",
        count, args.out, args.kind, schema_name,
    )
    return 0


def _write_metrics_json(path: str | None) -> None:
    """Dump the process metrics registry as JSON (``-`` = stdout)."""
    if not path:
        return
    payload = json.dumps(
        get_registry().to_dict(), indent=2, sort_keys=True
    )
    if path == "-":
        print(payload)
    else:
        with open(path, "w") as fh:
            fh.write(payload + "\n")
        logger.info("metrics JSON written to %s", path)


def _cmd_run(args) -> int:
    from repro.storage.sink import (
        DirectorySink,
        MemorySink,
        ObservedSink,
        TeeSink,
    )

    family, build = _QUERIES[args.query]
    schema = _SCHEMAS[family]()
    dataset = FlatFileDataset(args.data, schema)
    workflow = build(schema)
    engine = _ENGINES[args.engine](args)
    if args.out:
        sink = ObservedSink(
            TeeSink(MemorySink(), DirectorySink(args.out))
        )
    else:
        sink = ObservedSink(MemorySink())
    tracer = get_tracer()
    if args.trace:
        set_tracing(True)
        tracer.reset()
    try:
        result = engine.evaluate(dataset, workflow, sink=sink)
    finally:
        if args.trace:
            count = tracer.write(args.trace)
            set_tracing(telemetry_forced())
            logger.info(
                "trace written to %s (%d events)", args.trace, count
            )
    wanted = args.measures or workflow.outputs()
    for name in wanted:
        if name not in result.tables:
            logger.warning("(no measure named %r)", name)
            continue
        print(result[name].pretty(limit=args.limit))
        print()
    stats = result.stats
    print(
        f"engine={stats.engine} rows={stats.rows_scanned} "
        f"scans={stats.scans} sort={stats.sort_seconds:.3f}s "
        f"scan={stats.scan_seconds:.3f}s total={stats.total_seconds:.3f}s "
        f"peak_entries={stats.peak_entries} "
        f"batch={stats.batch_size if stats.batched else 'off'}"
    )
    if args.out:
        logger.info("measure TSVs written to %s/", args.out)
    _write_metrics_json(args.metrics_json)
    return 0


def _cmd_trace(args) -> int:
    """``repro trace run …`` — a run with tracing forced on."""
    if not args.trace:
        args.trace = "trace.json"
    return _cmd_run(args)


def _cmd_profile(args) -> int:
    from repro.obs import format_node_table
    from repro.storage.sink import NullSink

    family, build = _QUERIES[args.query]
    schema = _SCHEMAS[family]()
    dataset = FlatFileDataset(args.data, schema)
    workflow = build(schema)
    engine = SortScanEngine(optimize=True, profile=True)
    result = engine.evaluate(dataset, workflow, sink=NullSink())
    stats = result.stats
    print(
        f"engine={stats.engine} rows={stats.rows_scanned} "
        f"sort={stats.sort_seconds:.3f}s scan={stats.scan_seconds:.3f}s "
        f"total={stats.total_seconds:.3f}s"
    )
    print(format_node_table(stats.nodes))
    return 0


def _cmd_explain(args) -> int:
    family, build = _QUERIES[args.query]
    schema = _SCHEMAS[family]()
    workflow = build(schema)
    if args.show == "algebra":
        from repro.algebra.display import to_formula

        for name in workflow.outputs():
            print(f"{name} = {to_formula(workflow.to_algebra()[name])}")
        return 0
    if args.show == "sql":
        from repro.algebra.sql import to_sql

        exprs = workflow.to_algebra()
        for name in workflow.outputs():
            print(f"-- {name}")
            print(to_sql(exprs[name]))
            print()
        return 0
    if args.show == "dot":
        from repro.workflow.dot import to_dot

        print(to_dot(workflow))
        return 0
    from repro.engine.compile import compile_workflow

    graph = compile_workflow(workflow)
    if args.show == "graph":
        print(graph.describe())
        return 0
    if args.show == "cost":
        from repro.optimizer.cost_model import (
            estimate_plan_cost,
            per_measure_plan_cost,
        )
        from repro.optimizer.greedy import plan_passes

        fused = estimate_plan_cost(
            graph, plan_passes(graph), args.rows
        )
        relational = per_measure_plan_cost(graph, args.rows)
        print(f"assumed dataset size: {args.rows} rows")
        print("-- fused sort/scan plan (Section 6 work units)")
        print(fused.describe())
        print("-- per-measure relational query blocks")
        print(relational.describe())
        ratio = relational.total / max(fused.total, 1)
        print(f"-- fused plan advantage: {ratio:.1f}x")
        return 0
    from repro.engine.plan import build_streaming_plan
    from repro.engine.sort_scan import default_sort_key

    plan = build_streaming_plan(graph, default_sort_key(graph))
    print(plan.explain(graph))
    return 0


def _sql_dataset(args, family: str, schema):
    """The dataset ``repro sql`` runs over.

    An explicit ``--data`` flat file wins; otherwise a small dataset is
    generated in-process with the family's matching generator, bound to
    the *same* schema object the workflow was built from.
    """
    from repro.storage.table import InMemoryDataset

    if args.data:
        return FlatFileDataset(args.data, schema)
    kind = "honeynet" if family == "network" else "synthetic"
    generator = _GENERATORS[kind](args.seed)
    return InMemoryDataset(schema, generator.records(args.records))


def _cmd_sql(args) -> int:
    from repro.algebra.sql import EXECUTABLE_DIALECTS
    from repro.backends import compile_workflow_sql, get_backend

    family, build = _QUERIES[args.query]
    schema = _SCHEMAS[family]()
    workflow = build(schema)
    if args.explain:
        # Explaining never needs the engine itself, so duckdb SQL can
        # be inspected even where duckdb is not importable.
        compiled = compile_workflow_sql(
            workflow, dialect=EXECUTABLE_DIALECTS[args.engine]
        )
        for statement in compiled.create_statements():
            print(f"{statement};")
        for name, (fn, arity) in compiled.functions.items():
            print(f"-- UDF {name}/{arity - 1}+1: combine fn {fn!r}")
        print()
        for query in compiled.queries:
            print(f"-- measure {query.name}")
            print(query.sql)
            print()
        for name, reason in compiled.skipped.items():
            print(f"-- measure {name} SKIPPED: {reason}")
        return 0
    backend = get_backend(args.engine)
    dataset = _sql_dataset(args, family, schema)
    result = backend.evaluate(dataset, workflow)
    for name in workflow.outputs():
        if name in result.skipped:
            print(f"(measure {name!r} skipped: {result.skipped[name]})")
            continue
        print(result.tables[name].pretty(limit=args.limit))
        print()
    load = result.timings.get("load", 0.0)
    query_seconds = sum(
        seconds
        for key, seconds in result.timings.items()
        if key != "load"
    )
    print(
        f"engine={result.engine} rows={len(dataset)} "
        f"measures={len(result.tables)} skipped={len(result.skipped)} "
        f"load={load:.3f}s query={query_seconds:.3f}s"
    )
    return 0


def _cmd_bench(args) -> int:
    payload = None
    if args.figure == "columnar":
        # The columnar figure carries the perf-sheet payload
        # (metrics / definitions / speedups) alongside its rows; the
        # JSON artifact is that payload, not the raw row dump.
        from repro.bench.columnar import columnar_bench, skip_reason

        rows, payload = columnar_bench(scale=args.scale)
        if skip_reason():
            logger.warning("columnar bench skipped: %s", skip_reason())
    elif args.figure == "service":
        # Same payload-carrying pattern for the service-QPS sheet.
        from repro.bench.service import service_bench

        rows, payload = service_bench(scale=args.scale)
    elif args.figure == "sql":
        # And for the SQL engine-vs-engine sheet.
        from repro.bench.sql import sql_bench

        rows, payload = sql_bench(scale=args.scale)
    else:
        rows = ALL_FIGURES[args.figure](scale=args.scale)
    print(format_table(f"{args.figure} (scale={args.scale})", rows))
    if payload is not None and args.figure == "columnar":
        metrics = payload["metrics"]
        geomean = metrics["geometric_mean_speedup"]
        reduction = metrics["total_runtime_reduction"]
        print(
            "headline geomean speedup: "
            + (f"{geomean:.2f}x" if geomean else "n/a")
            + f" (target {metrics['target_geometric_mean_speedup']:.0f}x)"
        )
        print(
            "total runtime reduction: "
            + (f"{reduction:.1%}" if reduction is not None else "n/a")
            + f"; regressions: {metrics['zero_regression_count']}"
        )
    elif payload is not None and args.figure == "service":
        metrics = payload["metrics"]
        scaling = metrics["read_scaling_4x"]
        print(
            "read scaling 1→4 shards: "
            + (f"{scaling:.2f}x" if scaling else "n/a")
            + f" (target {metrics['target_read_scaling_4x']:.1f}x)"
        )
    elif payload is not None and args.figure == "sql":
        metrics = payload["metrics"]
        geomean = metrics["geomean_sqlite_vs_sortscan"]
        print(
            "sqlite vs SortScan geomean: "
            + (f"{geomean:.2f}x" if geomean else "n/a")
            + "; all points verified: "
            + ("yes" if metrics["all_verified"] else "NO")
        )
    if args.json:
        if payload is not None:
            with open(args.json, "w") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
        else:
            from dataclasses import asdict

            with open(args.json, "w") as fh:
                json.dump([asdict(row) for row in rows], fh, indent=2)
                fh.write("\n")
        logger.info("bench rows written to %s", args.json)
    _write_metrics_json(args.metrics_json)
    return 0


def _store_workflow(store, query_name: str | None):
    """Resolve the workflow a store serves.

    Priority: an explicit ``--query`` override, then the workflow
    pickled at bootstrap time, then the query name recorded in the
    store's metadata.
    """
    from repro.errors import ServiceError
    from repro.service.ingest import load_workflow

    if query_name is None:
        query_name = store.meta().get("query")
        workflow = load_workflow(store)
        if workflow is not None:
            return workflow
    if query_name not in _QUERIES:
        raise ServiceError(
            f"store {store.path!r} has no saved workflow; "
            f"pass --query (one of {sorted(_QUERIES)})"
        )
    family, build = _QUERIES[query_name]
    return build(_SCHEMAS[family]())


def _cluster_workflow(root: str, query_name: str | None):
    """Resolve the workflow an existing cluster serves.

    Mirrors :func:`_store_workflow`: an explicit ``--query`` override
    wins, then the workflow pickled at bootstrap (``None`` lets
    ``open_cluster`` load it), then the query name recorded in the
    cluster manifest's meta — the fallback for query families whose
    workflow is unpicklable.
    """
    import os

    from repro.errors import ServiceError
    from repro.service.cluster import ClusterManifest

    if query_name is None:
        if os.path.exists(os.path.join(root, "workflow.pkl")):
            return None
        query_name = ClusterManifest.load(
            root, cleanup=False
        ).meta.get("query")
    if query_name not in _QUERIES:
        raise ServiceError(
            f"cluster {root!r} has no saved workflow; "
            f"pass --query (one of {sorted(_QUERIES)})"
        )
    family, build = _QUERIES[query_name]
    return build(_SCHEMAS[family]())


def _cmd_ingest(args) -> int:
    from repro.errors import ServiceError
    from repro.service import Ingestor, MeasureStore
    from repro.service.cluster import ClusterManifest

    # A directory that is already a cluster stays one: delta ingests
    # route through the two-phase path without re-passing --shards.
    if args.shards or ClusterManifest.exists(args.store):
        return _cmd_ingest_cluster(args)
    store = MeasureStore(args.store)
    if store.is_empty():
        if args.query is None:
            raise ServiceError(
                "first ingest into an empty store needs --query"
            )
        family, build = _QUERIES[args.query]
        schema = _SCHEMAS[family]()
        workflow = build(schema)
        dataset = FlatFileDataset(args.data, schema)
        ingestor = Ingestor(store, workflow)
        generation = ingestor.bootstrap(
            dataset, meta={"query": args.query, "family": family}
        )
        logger.info(
            "bootstrapped %s at generation %d: %d facts, measures %s",
            args.store, generation, len(dataset),
            ", ".join(store.measures()),
        )
        return 0
    workflow = _store_workflow(store, args.query)
    dataset = FlatFileDataset(args.data, workflow.schema)
    report = Ingestor(store, workflow).ingest(dataset)
    line = (
        f"ingested {report.records} facts into {args.store} "
        f"(generation {report.generation}); "
        f"updated: {', '.join(report.updated_measures) or 'none'}"
    )
    if report.deferred_measures:
        line += (
            f"; deferred (holistic, recomputed on next read): "
            f"{', '.join(report.deferred_measures)}"
        )
    logger.info("%s", line)
    return 0


def _cmd_ingest_cluster(args) -> int:
    """``repro ingest --shards N`` — bootstrap or feed a cluster."""
    from repro.errors import ServiceError
    from repro.service.cluster import (
        ClusterManifest,
        bootstrap_cluster,
        open_cluster,
    )

    if ClusterManifest.exists(args.store):
        cluster = open_cluster(
            args.store, _cluster_workflow(args.store, args.query)
        )
        if args.shards and cluster.num_shards != args.shards:
            logger.warning(
                "cluster at %s has %d shards; --shards %d ignored "
                "(the shard map is fixed at bootstrap)",
                args.store, cluster.num_shards, args.shards,
            )
        records = list(
            FlatFileDataset(
                args.data, cluster.workflow.schema
            ).scan()
        )
        report = cluster.ingest(records)
        cluster.close()
        logger.info(
            "ingested %d facts into cluster %s (epoch %d, shards %s); "
            "updated: %s",
            report["records"], args.store, report["epoch"],
            report["shards"],
            ", ".join(report["updated_measures"]) or "none",
        )
        return 0
    if args.query is None:
        raise ServiceError(
            "first ingest into an empty cluster needs --query"
        )
    family, build = _QUERIES[args.query]
    schema = _SCHEMAS[family]()
    workflow = build(schema)
    records = list(FlatFileDataset(args.data, schema).scan())
    cluster = bootstrap_cluster(
        args.store, workflow, records, num_shards=args.shards,
        meta={"query": args.query, "family": family},
    )
    logger.info(
        "bootstrapped cluster %s: %d shards, %d facts, measures %s "
        "(map: dim=%d level=%d cuts=%s)",
        args.store, cluster.num_shards, len(records),
        ", ".join(sorted(cluster.graph.outputs)),
        cluster.shard_map.dim, cluster.shard_map.level,
        list(cluster.shard_map.cuts),
    )
    cluster.close()
    return 0


def _cmd_query(args) -> int:
    import json as _json

    from repro.service import MeasureService, MeasureStore
    from repro.service.cluster import ClusterManifest, open_cluster

    # A cluster directory serves the same read surface (point/range/
    # table/stats/measures) through the shard router.
    if ClusterManifest.exists(args.store):
        service = open_cluster(
            args.store, _cluster_workflow(args.store, None)
        )
    else:
        store = MeasureStore(args.store)
        service = MeasureService(store, _store_workflow(store, None))
    if args.stats:
        print(_json.dumps(service.stats(), indent=2, sort_keys=True))
        return 0
    if args.measure is None:
        for entry in service.measures():
            dirty = " (dirty)" if entry["dirty"] else ""
            rows = entry.get("rows", "?")
            print(
                f"{entry['measure']}: levels={entry['levels']} "
                f"rows={rows}{dirty}"
            )
        return 0
    if args.key is not None:
        key = tuple(int(part) for part in args.key.split(","))
        print(service.point(args.measure, key))
        return 0
    if args.prefix is not None:
        prefix = tuple(
            int(part) for part in args.prefix.split(",") if part
        )
        rows = service.range(args.measure, prefix)
        for key, value in rows[: args.limit]:
            print(f"{','.join(str(k) for k in key)}\t{value}")
        if len(rows) > args.limit:
            print(f"... {len(rows) - args.limit} more")
        return 0
    print(service.table(args.measure).pretty(limit=args.limit))
    return 0


def _cmd_faults(args) -> int:
    """``repro faults list|run|sweep`` — the correctness harness."""
    if args.faults_command == "list":
        from repro.testkit.failpoints import (
            is_armed,
            load_instrumented_sites,
            registered,
        )

        load_instrumented_sites()
        sites = registered(args.scope)
        if not sites:
            print(f"(no registered sites for scope {args.scope!r})")
            return 0
        for site in sites:
            armed = " [armed]" if is_armed(site.name) else ""
            print(f"{site.name:24s} {site.scope:8s} {site.doc}{armed}")
        return 0

    if args.faults_command == "run":
        from repro.testkit.oracles import FAMILIES, run_batch

        families = args.families or list(FAMILIES)
        seeds = range(args.start, args.start + args.seeds)

        def on_seed(seed, failures):
            logger.info(
                "seed %d: %s", seed,
                "ok" if not failures else f"{len(failures)} FAILURES",
            )

        failures = run_batch(
            seeds, families=families, on_seed=on_seed
        )
        for failure in failures:
            print(failure.describe())
        print(
            f"checked {args.seeds} seeds x {len(families)} families "
            f"({', '.join(families)}): "
            f"{len(failures)} failure(s)"
        )
        return 1 if failures else 0

    import tempfile

    from repro.obs import get_registry
    from repro.obs.metrics import FAILPOINT_TRIGGERS
    from repro.testkit.sweeper import sweep

    with tempfile.TemporaryDirectory(prefix="repro-sweep-") as work_dir:
        results = sweep(
            work_dir,
            seed=args.seed,
            action=args.action,
            sites=args.sites,
            on_result=lambda result: print(result.describe()),
        )
    failed = [result for result in results if not result.ok]
    triggers = get_registry().to_dict().get(FAILPOINT_TRIGGERS)
    if triggers:
        # Parent-process trigger counts; the children's counters died
        # with them (that is the point), so this reflects local drills.
        logger.info("fail-point triggers (this process): %s", triggers)
    print(
        f"swept {len(results)} sites (action={args.action}, "
        f"seed={args.seed}): "
        f"{'all recovered' if not failed else f'{len(failed)} FAILED'}"
    )
    return 1 if failed else 0


def _cmd_lint(args) -> int:
    """``repro lint`` — static analysis of workflows.

    Exit code 0 when every linted workflow is below the ``--fail-on``
    severity, 1 otherwise (2 stays reserved for operational errors).
    With ``--workload``, cross-workflow CSM4xx findings count toward
    the threshold too.
    """
    from repro.analysis import Severity, analyze

    if args.budget is not None and not args.workload:
        raise ReproError("--budget requires --workload")

    # `repro lint --seed K` alone reproduces exactly the generated
    # workflow that failed a --generated-seeds run, nothing else.
    only_generated = bool(args.seeds) and not (
        args.queries or args.generated_seeds
    )
    names = [] if only_generated else (args.queries or sorted(_QUERIES))
    # One schema instance per family, shared by every workflow built
    # from it — workload fingerprints are structural, but sharing the
    # instance keeps single-workflow behaviour identical too.
    schemas: dict[str, object] = {}
    targets = []
    for name in names:
        try:
            schema_name, builder = _QUERIES[name]
        except KeyError:
            raise ReproError(
                f"unknown query {name!r}; choose from "
                f"{', '.join(sorted(_QUERIES))}"
            ) from None
        if schema_name not in schemas:
            schemas[schema_name] = _SCHEMAS[schema_name]()
        targets.append((name, builder(schemas[schema_name])))
    gen_seeds = list(
        range(args.start, args.start + args.generated_seeds)
    )
    gen_seeds.extend(args.seeds or ())
    if gen_seeds:
        from repro.testkit.generator import RandomCase

        gen_schema = synthetic_schema(
            num_dimensions=3, levels=3, fanout=4
        )
        # Each seed gets its own independent RandomCase stream, so
        # `generated-K` is the same workflow whether it came from a
        # range or from a single `--seed K` repro run.
        for seed in gen_seeds:
            case = RandomCase(seed, gen_schema)
            targets.append((f"generated-{seed}", case.workflow))

    threshold = Severity(args.fail_on).rank
    if args.workload:
        return _lint_workload(args, targets, threshold)

    failed = 0
    all_diagnostics = []
    for label, workflow in targets:
        report = analyze(workflow, dataset_size=args.rows)
        all_diagnostics.extend(report.diagnostics)
        bad = any(
            d.severity.rank <= threshold for d in report.diagnostics
        )
        if bad:
            failed += 1
        if args.as_json:
            payload = report.to_dict()
            payload["label"] = label
            print(json.dumps(payload))
        else:
            print(report.format())
    if not args.as_json:
        print(
            f"linted {len(targets)} workflow(s): "
            f"{failed} at or above {args.fail_on}"
        )
    if args.sarif:
        _write_sarif(args.sarif, all_diagnostics)
    return 1 if failed else 0


def _lint_workload(args, targets, threshold: int) -> int:
    """The ``repro lint --workload`` arm: cross-workflow analysis."""
    from repro.analysis import analyze_workload, compress_workload
    from repro.analysis.workload import WORK_UNITS_PER_SECOND

    workflows = dict(targets)
    report = analyze_workload(workflows, dataset_size=args.rows)
    compression = None
    if args.budget is not None:
        compression = compress_workload(
            workflows,
            args.budget * WORK_UNITS_PER_SECOND,
            dataset_size=args.rows,
        )
    all_diagnostics = report.all_diagnostics()
    bad = any(d.severity.rank <= threshold for d in all_diagnostics)
    if args.as_json:
        payload = report.to_dict()
        if compression is not None:
            payload["compression"] = compression.to_dict()
        print(json.dumps(payload))
    else:
        for name in report.workflows:
            print(report.reports[name].format())
        print(report.format())
        if compression is not None:
            kept = ", ".join(compression.selected) or "(none)"
            print(
                f"compressed workload: kept {kept} "
                f"({compression.coverage:.0%} fingerprint coverage, "
                f"~{compression.selected_cost:.0f} of "
                f"~{compression.workload_cost:.0f} work units)"
            )
        print(
            f"linted workload of {len(targets)} workflow(s): "
            f"{'findings' if bad else 'nothing'} at or above "
            f"{args.fail_on}"
        )
    if args.sarif:
        _write_sarif(args.sarif, all_diagnostics)
    return 1 if bad else 0


def _write_sarif(path: str, diagnostics) -> int:
    """Write diagnostics to ``path`` as a SARIF 2.1.0 log."""
    from repro.analysis import canonical_diagnostics, diagnostics_to_sarif

    payload = diagnostics_to_sarif(canonical_diagnostics(diagnostics))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def _obs_tail(args) -> int:
    """``repro obs tail`` — the last N entries of a JSON-lines log."""
    with open(args.log, encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    for line in lines[-args.limit:]:
        entry = json.loads(line)
        if args.as_json:
            print(json.dumps(entry, separators=(",", ":")))
            continue
        parts = [
            f"{entry.get('time', 0):.3f}",
            f"{entry.get('status', '?')}",
            f"{entry.get('method', '?')} {entry.get('route', '?')}",
            f"{entry.get('duration_ms', 0):.1f}ms",
        ]
        if entry.get("tenant", "-") != "-":
            parts.append(f"tenant={entry['tenant']}")
        if entry.get("fanout"):
            parts.append(f"fanout={entry['fanout']}")
        if entry.get("queue_wait_ms"):
            parts.append(f"queue={entry['queue_wait_ms']:.1f}ms")
        if entry.get("trace_id"):
            parts.append(f"trace={entry['trace_id']}")
        if entry.get("error"):
            parts.append(f"error={entry['error']!r}")
        print("  ".join(parts))
        for stage in entry.get("stages", []):
            print(
                f"    {stage.get('stage', '?'):32s} "
                f"{stage.get('ms', 0):9.3f} ms  "
                f"pid={stage.get('pid', '?')}"
            )
    return 0


def _obs_trace(args) -> int:
    """``repro obs trace`` — span trees of a stored trace JSON."""
    from repro.obs import render_span_tree
    from repro.obs.trace import events_for_trace

    with open(args.file, encoding="utf-8") as fh:
        payload = json.load(fh)
    events = (
        payload["traceEvents"]
        if isinstance(payload, dict)
        else payload
    )
    if args.trace_id is not None:
        trace_ids = [args.trace_id]
    else:
        seen: dict[str, None] = {}
        for event in events:
            trace_id = (event.get("args") or {}).get("trace_id")
            if trace_id:
                seen.setdefault(trace_id)
        trace_ids = list(seen)
    if not trace_ids:
        print("(no trace-stamped events in file)")
        return 1
    for trace_id in trace_ids:
        subset = events_for_trace(events, trace_id)
        if not subset:
            print(f"trace {trace_id}: (no events)")
            continue
        print(f"trace {trace_id} ({len(subset)} events)")
        for line in render_span_tree(subset):
            print(f"  {line}")
    return 0


def _obs_slo(args) -> int:
    """``repro obs slo`` — a front end's burn rates, via /statusz."""
    import urllib.request

    url = args.url.rstrip("/") + "/statusz"
    with urllib.request.urlopen(url, timeout=10) as response:
        status = json.loads(response.read().decode("utf-8"))
    if args.as_json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    slo = status.get("slo", {})
    windows = slo.get("windows", [])
    print(
        f"{status.get('service', '?')} up "
        f"{status.get('uptime_seconds', 0):.0f}s  "
        f"tracing={'on' if status.get('tracing') else 'off'}"
    )
    for objective in slo.get("objectives", []):
        line = (
            f"objective {objective['name']}: kind={objective['kind']} "
            f"target={objective['target']}"
        )
        if "threshold_seconds" in objective:
            line += f" threshold={objective['threshold_seconds']}s"
        print(line)
    burn = slo.get("burn_rates", {})
    if not burn:
        print("(no traffic recorded yet)")
        return 0
    header = f"{'tenant':16s} {'objective':20s} " + " ".join(
        f"{window:>8s}" for window in windows
    )
    print(header)
    for tenant, objectives in sorted(burn.items()):
        for name, rates in sorted(objectives.items()):
            cells = " ".join(
                f"{rates.get(window, 0.0):8.3f}" for window in windows
            )
            print(f"{tenant:16s} {name:20s} {cells}")
    return 0


def _cmd_obs(args) -> int:
    if args.obs_command == "tail":
        return _obs_tail(args)
    if args.obs_command == "trace":
        return _obs_trace(args)
    return _obs_slo(args)


def _cmd_serve(args) -> int:
    """``repro serve`` — pick the backend, serve it on the frontend."""
    import asyncio

    from repro.service import MeasureService, MeasureStore
    from repro.service.cluster import (
        ClusterFrontend,
        ClusterManifest,
        TenantManager,
        open_cluster,
    )

    if args.tenants:
        backend = TenantManager(
            args.store,
            num_shards=args.shards or 1,
            mode=args.mode,
            **(
                {"default_budget": args.budget}
                if args.budget is not None
                else {}
            ),
        )
        what = f"tenant root {args.store}"
    elif args.shards or ClusterManifest.exists(args.store):
        # A directory that is already a cluster is served through the
        # shard router without re-passing --shards.
        backend = open_cluster(
            args.store,
            _cluster_workflow(args.store, args.query),
            mode=args.mode,
        )
        what = (
            f"cluster {args.store} "
            f"({backend.num_shards} shards, {args.mode} mode)"
        )
    else:
        store = MeasureStore(args.store)
        backend = MeasureService(
            store, _store_workflow(store, args.query)
        )
        what = f"store {args.store}"

    async def run() -> None:
        frontend = ClusterFrontend(
            backend,
            host=args.host,
            port=args.port,
            allow_pickle_workflows=args.allow_pickle_workflows,
            access_log_path=args.access_log,
            slow_query_path=args.slow_query_log,
            slow_query_seconds=args.slow_query_seconds,
        )
        await frontend.start()
        logger.info(
            "serving %s on http://%s:%s (routes: %s)",
            what, frontend.host, frontend.port,
            frontend.describe_routes(),
        )
        try:
            await frontend.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            logger.info("interrupt: draining and flushing")
            await frontend.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    _setup_logging(args.verbose - args.quiet)
    handlers = {
        "generate": _cmd_generate,
        "run": _cmd_run,
        "trace": _cmd_trace,
        "profile": _cmd_profile,
        "explain": _cmd_explain,
        "sql": _cmd_sql,
        "bench": _cmd_bench,
        "ingest": _cmd_ingest,
        "query": _cmd_query,
        "faults": _cmd_faults,
        "lint": _cmd_lint,
        "serve": _cmd_serve,
        "obs": _cmd_obs,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        logger.error("error: %s", exc)
        return 2
    except OSError as exc:
        logger.error("error: %s", exc)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
