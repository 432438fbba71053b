"""Tests of the benchmark itself: ``pytest perf/tests -q``."""

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

from perf import ROOT, compare, load_contract
from perf.inputs import (
    WORKLOADS,
    batch_facts,
    delta_stream,
    point_stream,
    scan_stream,
    serve_records,
)
from perf.stats import (
    percentile,
    quartiles,
    self_times,
    spread,
    worsening,
)

CONTRACT = load_contract()


# -- arithmetic ----------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3, 10, 9, 8, 7, 6]
    assert percentile(values, 0.5) == 5
    assert percentile(values, 0.9) == 9
    assert percentile(values, 0.91) == 10
    assert percentile(values, 1.0) == 10
    assert percentile([7], 0.9) == 7
    assert percentile([3, 1, 2], 0.9) == 3
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_spread_is_quartile_distance_over_median():
    values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    q1, q2, q3 = quartiles(values)
    assert (q1, q2, q3) == (11.75, 14.5, 17.25)
    assert spread(values) == pytest.approx(5.5 / 14.5)
    assert spread([4.0]) == 0.0


def test_self_times_subtract_the_rung_below_and_sum_to_the_top():
    rungs = [10.0, 7.5, 4.0, 1.0]  # http, cluster, service, store
    assert self_times(rungs) == [2.5, 3.5, 3.0, 1.0]
    assert sum(self_times(rungs)) == rungs[0]


def test_worsening_follows_the_direction():
    assert worsening(100.0, 112.0, "lower") == pytest.approx(0.12)
    assert worsening(100.0, 88.0, "higher") == pytest.approx(0.12)
    assert worsening(100.0, 90.0, "lower") < 0


# -- seeded inputs -------------------------------------------------------


def _take(stream, count):
    return list(itertools.islice(stream, count))


def _inputs(seed):
    records = serve_records(seed, 500)
    return {
        "facts": list(batch_facts(seed, 300)),
        "records": records,
        "points": _take(point_stream(seed, records, 16, "r"), 200),
        "scans": _take(scan_stream(seed, "r"), 50),
        "deltas": _take(delta_stream(seed, records, 20, "w"), 3),
    }


def test_same_seed_same_inputs_other_seed_other_inputs():
    first, again, other = _inputs(7), _inputs(7), _inputs(8)
    assert first == again
    for name in first:
        assert first[name] != other[name], name


def test_streams_do_not_share_a_generator():
    records = serve_records(3, 500)
    alone = _take(point_stream(3, records, 16, "a"), 50)
    other = point_stream(3, records, 16, "b")
    mixed = point_stream(3, records, 16, "a")
    interleaved = []
    for _ in range(50):
        next(other)
        interleaved.append(next(mixed))
    assert alone == interleaved


# -- the contract file ---------------------------------------------------


def test_contract_names_the_workloads_and_setup():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in CONTRACT["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))


# -- whole runs ----------------------------------------------------------


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "-m", "perf.run", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


# Every workload untraced; one workload of each path traced (the traced
# metric set is the same whichever workload emits it).
SMOKE_RUNS = [(name, 0) for name in WORKLOADS] + [
    ("batch_spill", 1), ("serve_mixed", 1),
]


@pytest.mark.parametrize("workload,trace", SMOKE_RUNS)
def test_smoke_run_is_correct_and_leaves_nothing(workload, trace):
    done = _run(
        ["--workload", workload, "--seed", "5", "--smoke",
         "--trace", str(trace)]
    )
    assert done.returncode == 0, done.stderr
    report, result = map(json.loads, done.stdout.strip().splitlines()[-2:])

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in CONTRACT[kind]}
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == declared
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())

    assert report["workload"] == workload
    assert report["teardown"] == {
        "threads_at_exit": 1, "children_at_exit": 0, "tmp_left": 0,
    }
    assert not os.path.exists(os.path.join(ROOT, ".perf_work"))


def test_spill_workload_spills_and_the_others_do_not():
    runs = {}
    for workload in ("batch_spill", "batch_coarse"):
        done = _run(["--workload", workload, "--smoke", "--trace", "1"])
        assert done.returncode == 0, done.stderr
        metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
        runs[workload] = metrics["external_sort.runs"]["value"]
    assert runs == {"batch_spill": 4, "batch_coarse": 0}


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perf"), tmp_path / "perf",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-m", "perf.run", "--workload", "batch_coarse",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert sorted(os.listdir(tmp_path)) == ["BENCHMARK.json", "perf"]


# -- the comparison tool -------------------------------------------------


def _reports(tmp_path, label, workload, op_p50_values):
    paths = []
    for index, value in enumerate(op_p50_values):
        metrics = {
            m["name"]: {"value": 1.0, "unit": m["unit"]}
            for m in CONTRACT["end_to_end"]
        }
        metrics["op_p50_ms"]["value"] = value
        path = tmp_path / f"{label}-{index}.json"
        path.write_text(json.dumps({
            "workload": workload, "trace": 0, "failed": 0,
            "metrics": metrics,
        }))
        paths.append(str(path))
    return paths


def _verdicts(capsys, argv):
    code = compare.main(argv)
    rows = [
        line.split() for line in capsys.readouterr().out.splitlines()
        if " op_p50_ms " in line
    ]
    return code, rows


def test_compare_within_worse_unresolved(tmp_path, capsys):
    base = _reports(tmp_path, "a", "batch_base", [100, 101, 99, 100, 102])
    same = _reports(tmp_path, "b", "batch_base", [103, 104, 102, 103, 105])
    slow = _reports(tmp_path, "c", "batch_base", [120, 121, 119, 120, 122])
    wild = _reports(tmp_path, "d", "batch_base", [80, 140, 100, 60, 160])

    code, rows = _verdicts(capsys, base + ["--"] + same)
    assert code == 0 and "within" in rows[0]
    code, rows = _verdicts(capsys, base + ["--"] + slow)
    assert code == 1 and "worse" in rows[0]
    code, rows = _verdicts(capsys, base + ["--"] + wild)
    assert code == 0 and "unresolved" in rows[0]


def test_compare_one_set_reports_spread(tmp_path, capsys):
    code, rows = _verdicts(
        capsys, _reports(tmp_path, "a", "serve_scan", [100, 101, 99, 100, 102])
    )
    assert code == 0 and rows[0][-1] == "steady"
    code, rows = _verdicts(
        capsys, _reports(tmp_path, "b", "serve_scan", [80, 140, 100, 60, 160])
    )
    assert code == 1 and rows[0][-1] == "noisy"
