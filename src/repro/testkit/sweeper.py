"""Crash-recovery sweeper: kill a committing process at every site.

The measure store's commit protocol claims a crash can never corrupt
it (segments first, fsynced and unreferenced; then one atomic manifest
swap).  This module *enumerates the claim*: for every registered
``store``/``ingest`` fail point — taken from the live registry in
:mod:`repro.testkit.failpoints`, never a hand-written list, so a newly
woven site is swept automatically — it

1. bootstraps a store from a seeded :class:`~repro.testkit.generator
   .RandomCase` base batch (once, then copied per site);
2. in a *subprocess* armed via ``REPRO_FAILPOINT`` with a ``crash``
   (or ``torn-write``) action at that one site, opens the store,
   ingests a warm-up delta with the site disarmed, re-arms it and
   ingests the swept delta — the warm-up leaves the process holding
   resident tables and splice images, so the kill lands inside the
   delta-proportional paths a long-lived server runs, not a fresh
   process's full writes — and requires the child to die with
   :data:`~repro.testkit.failpoints.CRASH_EXIT_CODE` — a site that does
   not fire fails the sweep, catching registry drift;
3. reopens the store in the parent (running recovery: stale-temp
   removal and orphan GC), asserts the manifest references exactly the
   files on disk, and that the surviving generation is either the
   pre-delta or the post-delta one — never a mixture (pre-delta is the
   warm-up's generation once the child reported it committed, the
   bootstrap's when the site fired while opening the store);
4. re-ingests the delta if it was lost, resolves holistic dirt, and
   asserts every output table equals an uninjected one-shot
   evaluation over the full dataset.

``repro faults sweep`` is the CLI front end.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from collections.abc import Callable, Iterable

import repro
from repro.engine.sort_scan import SortScanEngine
from repro.schema.dataset_schema import synthetic_schema
from repro.storage.table import InMemoryDataset
from repro.testkit.failpoints import (
    CRASH_EXIT_CODE,
    ENV_VAR,
    clear,
    install_from_env,
    load_instrumented_sites,
    registered,
)
from repro.testkit.generator import RandomCase

__all__ = [
    "SWEEP_SCOPES",
    "SweepResult",
    "child_main",
    "sweep",
    "sweep_sites",
]

#: Scopes whose sites guard the durability protocol and get swept.
SWEEP_SCOPES = ("store", "ingest", "cluster")

#: Environment plumbing between :func:`sweep` and :func:`child_main`.
STORE_ENV = "REPRO_SWEEP_STORE"
SEED_ENV = "REPRO_SWEEP_SEED"
CLUSTER_ENV = "REPRO_SWEEP_CLUSTER"

#: Line the child prints once its warm-up ingest has committed.
WARMED = "warm-up committed"

#: Shards of the sweep's scratch cluster — two is the smallest count
#: where a crash between shard prepares can strand a *mixture*.
CLUSTER_SHARDS = 2

#: Records held back from the bootstrap batch for each of the doomed
#: child's two ingests (warm-up, then swept delta); large enough to
#: touch every basic node.
_DELTA_SIZE = 40


@dataclass
class SweepResult:
    """Outcome of killing one commit at one injection site."""

    site: str
    action: str
    exit_code: int
    fired: bool
    committed: bool
    ok: bool
    detail: str = ""

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL"
        survived = "post-delta" if self.committed else "pre-delta"
        text = (
            f"{status:4s} {self.site:22s} action={self.action} "
            f"exit={self.exit_code} survived={survived}"
        )
        if self.detail:
            text += f" ({self.detail})"
        return text


def _default_schema():
    return synthetic_schema(num_dimensions=3, levels=3, fanout=4)


def _split(case: RandomCase):
    """``(bootstrap, warm-up delta, swept delta)`` records."""
    records = list(case.dataset.records)
    return (
        records[:-2 * _DELTA_SIZE],
        records[-2 * _DELTA_SIZE:-_DELTA_SIZE],
        records[-_DELTA_SIZE:],
    )


def _lost_deltas(case: RandomCase, warmed: bool) -> list:
    """The deltas a store recovered to its pre-delta state lacks."""
    __, warm_up, delta = _split(case)
    return [delta] if warmed else [warm_up, delta]


def _cluster_workflow(schema):
    """Fixed workflow for the cluster sweep.

    The store/ingest sweep uses :class:`RandomCase`'s random workflow,
    but a cluster must be *partitionable* (no measure may aggregate
    the partition dimension to ALL), so the cluster scope sweeps a
    fixed mix instead: distributive, algebraic-deferred (holistic
    median exercises dirty bookkeeping through recovery), and a
    derived rollup.  Records still come from the seeded case, so the
    parent and the doomed child agree by construction.
    """
    from repro.workflow.workflow import AggregationWorkflow

    wf = AggregationWorkflow(schema, name="cluster-sweep")
    wf.basic("Count", {"d0": "d0.L1", "d1": "d1.L1"}, agg="count")
    wf.basic("Total", {"d0": "d0.L1"}, agg=("sum", "v"))
    wf.basic("MedV", {"d0": "d0.L1"}, agg=("median", "v"))
    wf.rollup("sCount", {"d0": "d0.L1"}, source="Count", agg="sum")
    return wf


def sweep_sites() -> list[str]:
    """The sites a sweep covers, straight from the registry."""
    load_instrumented_sites()
    return [
        site.name
        for scope in SWEEP_SCOPES
        for site in registered(scope)
    ]


def child_main() -> None:
    """Entry point of the doomed subprocess.

    Rebuilds the seed's case (the workflow is derived from the seed,
    not unpickled, so the parent and child agree by construction),
    opens the copied store (the fail point armed from
    ``REPRO_FAILPOINT`` when :mod:`repro.testkit.failpoints` was
    imported may already kill it there), ingests the warm-up delta with
    every fail point disarmed, re-arms the environment's sites, and
    ingests the swept delta through the same ingestor, which the armed
    fail point kills somewhere along that path.

    For cluster-scope sites the child instead opens the copied
    *cluster*, runs the two two-phase ingests, and then a fan-out read
    of every measure — the read is what makes the router fan-out and
    worker dispatch sites fire, not just the commit-path ones.
    """
    from repro.service import Ingestor, MeasureStore

    store_path = os.environ[STORE_ENV]
    seed = int(os.environ[SEED_ENV])
    schema = _default_schema()
    case = RandomCase(seed, schema)
    __, warm_up, delta = _split(case)
    if os.environ.get(CLUSTER_ENV):
        from repro.service.cluster import open_cluster

        workflow = _cluster_workflow(schema)
        cluster = open_cluster(store_path, workflow)
        _warm_up(cluster.ingest, warm_up)
        cluster.ingest(delta)
        for name in workflow.outputs():
            cluster.range(name, ())
        cluster.close()
        return
    ingestor = Ingestor(MeasureStore(store_path), case.workflow)
    _warm_up(ingestor.ingest, warm_up)
    ingestor.ingest(delta)


def _warm_up(ingest, records) -> None:
    """``ingest(records)`` with every fail point disarmed; then report
    it (flushed: the crash skips buffered output) and re-arm."""
    clear()
    ingest(records)
    print(WARMED, flush=True)
    install_from_env()


def _subprocess_env(
    site: str,
    action: str,
    store_path: str,
    seed: int,
    cluster: bool = False,
):
    src_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env[ENV_VAR] = f"{site}:{action}"
    env[STORE_ENV] = store_path
    env[SEED_ENV] = str(seed)
    if cluster:
        env[CLUSTER_ENV] = "1"
    else:
        env.pop(CLUSTER_ENV, None)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root if not existing
        else src_root + os.pathsep + existing
    )
    return env


def _unreferenced_files(store) -> list[str]:
    present = set(os.listdir(store._segment_dir))
    return sorted(present - store._referenced_files())


def _check_recovery(
    site_dir: str, case: RandomCase, baseline_generation: int, reference,
    warmed: bool,
) -> tuple[bool, bool, str]:
    """Reopen, recover, converge, and compare; the sweep's step 3/4.

    ``baseline_generation`` is the bootstrap's; the pre-delta
    generation is one more when the child's warm-up committed."""
    from repro.service import Ingestor, MeasureStore

    baseline_generation += warmed
    store = MeasureStore(site_dir)  # recovery runs here
    orphans = _unreferenced_files(store)
    if orphans:
        return False, False, f"orphans survived recovery: {orphans}"
    generation = store.generation
    committed = generation > baseline_generation
    if generation not in (baseline_generation, baseline_generation + 1):
        return committed, False, (
            f"generation {generation} is neither pre ("
            f"{baseline_generation}) nor post ("
            f"{baseline_generation + 1})"
        )
    ingestor = Ingestor(store, case.workflow)
    if not committed:
        for delta in _lost_deltas(case, warmed):
            ingestor.ingest(delta)
    ingestor.resolve()
    for name in case.workflow.outputs():
        expected = reference[name]
        got = store.measure_table(name, expected.granularity)
        if not got.equal_rows(expected):
            return committed, False, (
                f"measure {name!r} diverges after recovery: "
                f"{expected.diff(got)}"
            )
    return committed, True, ""


def _check_cluster_recovery(
    site_dir: str, case: RandomCase, workflow, reference, warmed: bool
) -> tuple[bool, bool, str]:
    """Cluster analogue of :func:`_check_recovery`.

    Opening the cluster runs journal redo; afterwards the cluster
    MANIFEST must parse (never torn), the journal must be gone, the
    epoch must be exactly pre- or post-delta (the bootstrap's epoch 1
    plus the warm-up's, when it committed), and — after re-ingesting
    a lost delta and resolving — every measure table must equal the
    uninjected one-shot evaluation.
    """
    from repro.errors import ClusterError
    from repro.service.cluster import (
        ClusterManifest,
        IngestJournal,
        open_cluster,
    )

    try:
        ClusterManifest.load(site_dir)
    except ClusterError as exc:
        return False, False, f"torn cluster manifest: {exc}"
    cluster = open_cluster(site_dir, workflow)  # journal redo runs here
    try:
        if IngestJournal.load(site_dir) is not None:
            return False, False, "journal survived recovery"
        epoch, pre = cluster.epoch, 1 + warmed
        committed = epoch > pre
        if epoch not in (pre, pre + 1):
            return committed, False, (
                f"epoch {epoch} is neither pre ({pre}) nor post "
                f"({pre + 1})"
            )
        if not committed:
            for delta in _lost_deltas(case, warmed):
                cluster.ingest(delta)
        cluster.resolve()
        for name in workflow.outputs():
            expected = reference[name]
            got = cluster.table(name)
            if not got.equal_rows(expected):
                return committed, False, (
                    f"measure {name!r} diverges after recovery: "
                    f"{expected.diff(got)}"
                )
        return committed, True, ""
    finally:
        cluster.close()


def sweep(
    work_dir: str,
    seed: int = 0,
    action: str = "crash",
    sites: Iterable[str] | None = None,
    schema=None,
    on_result: Callable[[SweepResult], None] | None = None,
) -> list[SweepResult]:
    """Run the crash-recovery sweep; one result per injection site.

    Args:
        work_dir: Scratch directory (template store + one copy per
            site); the caller owns its lifetime.
        seed: :class:`RandomCase` seed shared by parent and children.
        action: ``"crash"`` or ``"torn-write"`` — both end in a hard
            ``os._exit``, the latter after tearing the file being
            written, exercising recovery against partial data.
        sites: Site names to sweep (default: every registered
            ``store``/``ingest`` site).
        on_result: Optional progress callback, called per site.
    """
    from repro.service import Ingestor, MeasureStore

    if schema is None:
        schema = _default_schema()
    case = RandomCase(seed, schema)
    base = _split(case)[0]
    reference = SortScanEngine().evaluate(case.dataset, case.workflow)

    template = os.path.join(work_dir, "template")
    store = MeasureStore(template)
    Ingestor(store, case.workflow).bootstrap(
        InMemoryDataset(schema, base)
    )
    baseline_generation = store.generation

    # The cluster template (and its reference) is built lazily: only
    # when the site list actually includes cluster-scope sites.
    cluster_template = os.path.join(work_dir, "cluster-template")
    cluster_workflow = None
    cluster_reference = None

    results: list[SweepResult] = []
    for site in sites if sites is not None else sweep_sites():
        is_cluster = site.startswith("cluster.")
        if is_cluster and cluster_workflow is None:
            from repro.service.cluster import bootstrap_cluster

            cluster_workflow = _cluster_workflow(schema)
            cluster_reference = SortScanEngine().evaluate(
                case.dataset, cluster_workflow
            )
            bootstrap_cluster(
                cluster_template,
                cluster_workflow,
                base,
                num_shards=CLUSTER_SHARDS,
            ).close()
        site_dir = os.path.join(
            work_dir, site.replace(".", "-").replace("/", "-")
        )
        shutil.copytree(
            cluster_template if is_cluster else template, site_dir
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.testkit.sweeper import child_main; "
                "child_main()",
            ],
            env=_subprocess_env(
                site, action, site_dir, seed, cluster=is_cluster
            ),
            capture_output=True,
            text=True,
            timeout=120,
        )
        fired = proc.returncode == CRASH_EXIT_CODE
        warmed = WARMED in proc.stdout
        if not fired:
            result = SweepResult(
                site=site,
                action=action,
                exit_code=proc.returncode,
                fired=False,
                committed=False,
                ok=False,
                detail=(
                    "site never fired during the scripted commit"
                    if proc.returncode == 0
                    else f"child failed unexpectedly: "
                    f"{(proc.stderr or '').strip()[-300:]}"
                ),
            )
        else:
            if is_cluster:
                committed, ok, detail = _check_cluster_recovery(
                    site_dir, case, cluster_workflow, cluster_reference,
                    warmed,
                )
            else:
                committed, ok, detail = _check_recovery(
                    site_dir, case, baseline_generation, reference,
                    warmed,
                )
            result = SweepResult(
                site=site,
                action=action,
                exit_code=proc.returncode,
                fired=True,
                committed=committed,
                ok=ok,
                detail=detail,
            )
        results.append(result)
        if on_result is not None:
            on_result(result)
        shutil.rmtree(site_dir, ignore_errors=True)
    return results
