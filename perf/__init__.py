"""The perf ledger: one benchmark over the batch path (fact file → sort →
scan → sink) and the serve path (HTTP → router → store).

``BENCHMARK.json`` at the repository root is the contract; ``README.md``
in this directory defines every workload and metric.  The package only
drives the program through its public functions and never edits it.
"""

import json
import os
import sys

#: The checkout this benchmark sits in; the program lives under ``src/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SRC = os.path.join(ROOT, "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def load_contract() -> dict:
    """``BENCHMARK.json``: workloads, metrics, units, bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)
