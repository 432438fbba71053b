"""Run one workload of the perf ledger.

    python3 -m perf.run --workload NAME --seed S [--seconds N]
                        [--trace [0|1]] [--smoke] [--out FILE]

Standard output carries two JSON lines: first the report document (every
metric by name with unit, sample count and regression bound, the
environment and the teardown account), last the driver's result line
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones of ``BENCHMARK.json``, with
``--trace 1`` the per-layer ones (a layer the workload does not execute
reports 0).  The exit code is 0 only when no operation failed and
nothing was left behind.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import shutil
import signal
import sys
import tempfile
import threading

from perf import ROOT, load_contract


def commit_of(root: str) -> str:
    """The checked-out commit, read from ``.git`` without spawning git."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:])) as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def environment() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit_of(ROOT),
    }


def _terminate(signum, _frame):
    # Unwinds through every ``finally`` of the workload body.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perf.run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs and a one-second window (for the tests)",
    )
    parser.add_argument("--out", help="also write the report document here")
    args = parser.parse_args(argv)

    try:
        from perf import batch, serve
        from perf.inputs import WORKLOADS, BatchSpec
        from perf.report import Result

        contract = load_contract()
    except (ImportError, OSError) as exc:
        print(f"perf.run: not inside a checkout of the repository: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload; have {sorted(WORKLOADS)}")

    spec = WORKLOADS[args.workload]
    seconds = args.seconds
    if args.smoke:
        spec = spec.smoke()
        seconds = seconds or 1.0
    seconds = seconds or float(contract["run_seconds"])
    body = batch.run if isinstance(spec, BatchSpec) else serve.run

    # Everything written lands under the checkout: the workload's own
    # files in data/, the program's temporary files (spilled runs, the
    # sorted spool) in tmp/.
    work = os.path.join(ROOT, ".perf_work", f"run-{os.getpid()}")
    data, tmp = os.path.join(work, "data"), os.path.join(work, "tmp")
    os.makedirs(data)
    os.makedirs(tmp)
    previous_tempdir = tempfile.tempdir
    tempfile.tempdir = tmp
    previous_handler = signal.signal(signal.SIGTERM, _terminate)

    result = Result()
    try:
        body(spec, args.seed, seconds, bool(args.trace), data, result)
    finally:
        tmp_left = sorted(os.listdir(tmp))
        tempfile.tempdir = previous_tempdir
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is using it
        signal.signal(signal.SIGTERM, previous_handler)

    teardown = {
        "threads_at_exit": threading.active_count(),
        "children_at_exit": len(multiprocessing.active_children()),
        "tmp_left": len(tmp_left) + int(os.path.exists(work)),
    }
    if teardown["threads_at_exit"] != 1:
        names = [thread.name for thread in threading.enumerate()]
        result.fail(f"threads left running: {names}")
    if teardown["children_at_exit"]:
        result.fail("child processes left running")
    if teardown["tmp_left"]:
        result.fail(f"temporary files left behind: {tmp_left}")

    kind = "per_layer" if args.trace else "end_to_end"
    declared = {entry["name"]: entry for entry in contract[kind]}
    for name in set(result.metrics) - set(declared):
        result.fail(f"metric {name} is not declared in BENCHMARK.json")
    if not args.trace:
        for name in set(declared) - set(result.metrics):
            result.fail(f"end-to-end metric {name} was not measured")
    metrics = {}
    for name, entry in declared.items():
        metrics[name] = {
            "value": result.metrics.get(name, 0.0),
            "unit": entry["unit"],
            "samples": result.samples.get(name, 0),
        }
        if "bound" in entry:
            metrics[name]["bound"] = entry["bound"]

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "failed_share": result.failed / max(1, result.attempted),
        "errors": result.errors,
        "teardown": teardown,
        "metrics": metrics,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    print(json.dumps(report))
    print(
        json.dumps(
            {
                "correct": report["correct"],
                "attempted": max(1, result.attempted),
                "failed": result.failed,
                "metrics": {
                    name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()
                },
            }
        )
    )
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
