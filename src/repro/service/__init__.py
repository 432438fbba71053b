"""Measure service: persist, incrementally maintain, and serve measures.

The paper's engines compute a workflow's measures in one batch run;
this package keeps those results alive between runs.  It has three
layers:

- :mod:`repro.service.store` — a crash-safe, atomically committed
  directory of sorted measure segments with sparse indexes (point and
  prefix reads without loading tables);
- :mod:`repro.service.ingest` — incremental delta ingestion built on
  aggregate-state *merging* for distributive/algebraic measures and
  dirty-region lazy recompute for holistic ones;
- :mod:`repro.service.server` — a thread-safe query layer with an LRU
  cache.

:mod:`repro.service.cluster` shards the same layers and holds the one
JSON/HTTP front end (stdlib asyncio), which serves a plain store too.
"""

from repro.service.store import MeasureStore, StoreCommit, StoreSink
from repro.service.ingest import IngestReport, Ingestor, load_workflow
from repro.service.server import MeasureService

__all__ = [
    "MeasureStore",
    "StoreCommit",
    "StoreSink",
    "Ingestor",
    "IngestReport",
    "load_workflow",
    "MeasureService",
]
