"""What one run of one workload found, and the measurements both paths
take the same way."""

from __future__ import annotations

import os
import resource
from dataclasses import dataclass, field

#: Set-up is repeated so ``setup_s`` is a median, not one sample.
SETUP_REPEATS = 3

#: Outputs must match their reference to this relative tolerance.
TOLERANCE = 1e-9


def close_enough(have: float, want: float) -> bool:
    return abs(have - want) <= TOLERANCE * max(1.0, abs(have), abs(want))


def tree_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(parent, name))
        for parent, _dirs, names in os.walk(path)
        for name in names
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Result:
    """Metrics by name, plus the failure account of the run.

    ``attempted`` counts operations (batch jobs, HTTP requests, replayed
    calls); ``failed`` counts those that raised, answered a status other
    than 200, returned a wrong value, or acknowledged a write that could
    not be read back.
    """

    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: The first few failure descriptions, for the report document.
    errors: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, samples: int = 1) -> None:
        self.metrics[name] = value
        self.samples[name] = samples

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(what)

    def judge(self, where: str, error: str) -> None:
        """One more operation: failed when ``error`` is not empty."""
        if error:
            self.fail(f"{where}: {error}")
        else:
            self.ok()
