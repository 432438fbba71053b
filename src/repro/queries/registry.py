"""Named query families — the declarative workflow encoding.

The CLI and the HTTP front end resolve workflows by *name* through
this registry: a client says ``{"query": "escalation"}`` and the
trusted server-side builder constructs the workflow, instead of the
client shipping a pickled workflow object (unpickling attacker-chosen
bytes executes arbitrary code, so pickled submissions are reserved for
trusted operators — loopback binds, or an explicit opt-in flag on the
server).

Every entry maps a stable public name to ``(schema family, builder)``;
the schema family names the dataset schema the workflow aggregates
over, so callers can also resolve the matching generator or flat-file
layout.
"""

from __future__ import annotations

from repro.errors import ServiceError
from repro.queries.combined import combined_workflow
from repro.queries.escalation import escalation_workflow
from repro.queries.examples import examples_workflow
from repro.queries.multi_recon import multi_recon_workflow
from repro.queries.q1_child_parent import q1_workflow
from repro.queries.q2_sibling_chain import q2_workflow
from repro.schema.dataset_schema import (
    network_log_schema,
    synthetic_schema,
)

#: Schema family name -> dataset schema builder.
SCHEMA_FAMILIES = {
    "synthetic": synthetic_schema,
    "network": network_log_schema,
}

#: Query family name -> (schema family, workflow builder).
QUERY_FAMILIES = {
    "examples": ("network", lambda schema: examples_workflow(schema)),
    "q1": ("synthetic", lambda schema: q1_workflow(schema)),
    "q2": ("synthetic", lambda schema: q2_workflow(schema, depth=2)),
    "escalation": (
        "network", lambda schema: escalation_workflow(schema)
    ),
    "multirecon": (
        "network", lambda schema: multi_recon_workflow(schema)
    ),
    "combined": ("network", lambda schema: combined_workflow(schema)),
}


def build_query_workflow(name: str):
    """Construct the workflow of the named query family."""
    try:
        family, build = QUERY_FAMILIES[name]
    except (KeyError, TypeError):
        raise ServiceError(
            f"unknown query family {name!r}; one of "
            f"{sorted(QUERY_FAMILIES)}"
        ) from None
    return build(SCHEMA_FAMILIES[family]())
