"""Shared fixtures for the sharded-cluster tests."""

from __future__ import annotations

import pytest

from repro.engine.sort_scan import SortScanEngine
from repro.storage.table import InMemoryDataset
from repro.workflow.workflow import AggregationWorkflow

# ``cluster_workflow`` lives one level up: the HTTP suites that run
# over every backend kind use it too.


@pytest.fixture()
def mergeable_cluster_workflow(syn_schema):
    """No holistic measures: every cluster ingest is fully incremental."""
    wf = AggregationWorkflow(syn_schema, name="cluster-mergeable")
    wf.basic("Count", {"d0": "d0.L1", "d1": "d1.L1"}, agg="count")
    wf.basic("Total", {"d0": "d0.L1"}, agg=("sum", "v"))
    wf.rollup("sCount", {"d0": "d0.L1"}, source="Count", agg="sum")
    return wf


def reference_tables(schema, workflow, records) -> dict:
    """Uninjected one-shot evaluation: the cluster must match this."""
    return SortScanEngine().evaluate(
        InMemoryDataset(schema, records), workflow
    )
