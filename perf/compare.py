"""Compare runs of the perf ledger against its own bounds.

    python3 -m perf.compare A1.json A2.json ...                # one set
    python3 -m perf.compare A1.json A2.json ... -- B1.json ... # base vs new

Each file is a report document written by ``perf.run --out`` (or its
captured standard output).  For every workload and end-to-end metric:

- one set: median, quartiles and the spread (quartile distance as a
  share of the median) against the bound — ``steady`` when the spread is
  under a third of the bound, ``within`` when under the bound, else
  ``noisy``;
- two sets: both medians with quartiles, the ratio new/base with its
  base, and ``within`` / ``worse`` (the new median is worse than the
  base by more than the bound) / ``unresolved`` (either side spreads
  wider than the bound, so the comparison cannot tell).

The exit code is 1 when any pair is ``worse``, any set is ``noisy`` or
any run had a failed operation.
"""

from __future__ import annotations

import json
import sys

from perf import load_contract
from perf.stats import quartiles, spread, worsening


def load_report(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    for line in text.splitlines():  # captured standard output
        if line.startswith("{") and '"workload"' in line:
            return json.loads(line)
    raise SystemExit(f"{path}: no report document found")


def collect(paths: list[str]) -> tuple[dict, int]:
    """``{workload: {metric: [values]}}`` of the untraced reports, and
    the number of failed operations across them."""
    values: dict[str, dict[str, list[float]]] = {}
    failed = 0
    for path in paths:
        report = load_report(path)
        failed += report["failed"]
        if report["trace"]:
            continue
        per_metric = values.setdefault(report["workload"], {})
        for name, metric in report["metrics"].items():
            per_metric.setdefault(name, []).append(metric["value"])
    return values, failed


def _quartile_text(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def one_set(values: dict, contract: dict) -> bool:
    ok = True
    print(f"{'workload':14} {'metric':12} {'n':>3} "
          f"{'median [Q1, Q3]':34} {'spread':>8} {'bound':>6}  verdict")
    for workload, metrics in values.items():
        for entry in contract["end_to_end"]:
            sample = metrics[entry["name"]]
            width = spread(sample)
            if width <= entry["bound"] / 3:
                verdict = "steady"
            elif width <= entry["bound"]:
                verdict = "within"
            else:
                verdict = "noisy"
                ok = False
            print(f"{workload:14} {entry['name']:12} {len(sample):3} "
                  f"{_quartile_text(sample):34} {width:8.4f} "
                  f"{entry['bound']:6.2f}  {verdict}")
    return ok


def two_sets(base: dict, new: dict, contract: dict) -> bool:
    ok = True
    print(f"{'workload':14} {'metric':12} {'base median [Q1, Q3]':34} "
          f"{'new median [Q1, Q3]':34} {'new/base':>9} {'bound':>6}  verdict")
    for workload, metrics in base.items():
        if workload not in new:
            continue
        for entry in contract["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            a, b = metrics[name], new[workload][name]
            a_mid, b_mid = quartiles(a)[1], quartiles(b)[1]
            if spread(a) > bound or spread(b) > bound:
                verdict = "unresolved"
            elif worsening(a_mid, b_mid, entry["better"]) > bound:
                verdict = "worse"
                ok = False
            else:
                verdict = "within"
            print(f"{workload:14} {name:12} {_quartile_text(a):34} "
                  f"{_quartile_text(b):34} "
                  f"{b_mid / a_mid:9.4f} {bound:6.2f}  {verdict} "
                  f"(base {a_mid:.6g} {entry['unit']})")
    return ok


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 2
    contract = load_contract()
    if "--" in argv:
        split = argv.index("--")
        base, base_failed = collect(argv[:split])
        new, new_failed = collect(argv[split + 1:])
        ok = two_sets(base, new, contract)
        failed = base_failed + new_failed
    else:
        values, failed = collect(argv)
        ok = one_set(values, contract)
    print(f"failed operations across all runs: {failed}")
    return 0 if ok and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
