"""Tests for the crash-recovery sweeper.

The full crash sweep (every registered store/ingest site, one doomed
subprocess each) runs for real — it is the tentpole guarantee that the
store's commit protocol survives a kill at any instrumented point.
"""

import pytest

from repro.service import Ingestor, MeasureStore
from repro.service import store as store_module
from repro.storage.table import InMemoryDataset
from repro.testkit.failpoints import (
    CRASH_EXIT_CODE,
    ENV_VAR,
    FailPointError,
    clear,
)
from repro.testkit.generator import RandomCase
from repro.testkit.sweeper import (
    SEED_ENV,
    STORE_ENV,
    SWEEP_SCOPES,
    WARMED,
    SweepResult,
    _default_schema,
    _split,
    child_main,
    sweep,
    sweep_sites,
)


class TestSiteEnumeration:
    def test_sites_come_from_the_registry(self):
        sites = sweep_sites()
        assert "store.manifest-swap" in sites
        assert "store.segment-write" in sites
        assert "ingest.pre-commit" in sites
        assert "ingest.post-commit" in sites
        assert "cluster.journal-write" in sites
        assert "cluster.shard-prepare" in sites
        assert "cluster.manifest-swap" in sites
        assert "cluster.post-swap" in sites
        # Only durability-protocol scopes are swept.
        assert all(
            site.split(".")[0] in SWEEP_SCOPES for site in sites
        )
        assert len(sites) >= 11


class TestCrashSweep:
    def test_every_site_fires_and_recovers(self, tmp_path):
        progress = []
        results = sweep(
            str(tmp_path), seed=0, on_result=progress.append
        )
        assert len(results) == len(sweep_sites())
        assert progress == results
        failed = [r.describe() for r in results if not r.ok]
        assert not failed, "\n".join(failed)
        assert all(r.fired for r in results)
        assert all(r.exit_code == CRASH_EXIT_CODE for r in results)
        by_site = {r.site: r for r in results}
        # Crashing before the manifest swap must lose the delta;
        # crashing after it (post-commit) must keep it.
        assert not by_site["store.segment-write"].committed
        assert not by_site["ingest.pre-commit"].committed
        assert by_site["ingest.post-commit"].committed

    def test_torn_write_during_segment_write_recovers(self, tmp_path):
        results = sweep(
            str(tmp_path),
            seed=3,
            action="torn-write",
            sites=["store.segment-write", "store.manifest-write"],
        )
        assert [r.site for r in results] == [
            "store.segment-write",
            "store.manifest-write",
        ]
        for result in results:
            assert result.fired, result.describe()
            assert result.ok, result.describe()
            assert not result.committed

    def test_unfired_site_fails_the_sweep(self, tmp_path):
        # A site name nothing fires (armed via the env's force path):
        # the child commits normally and exits 0, which the sweep must
        # flag — this is the registry-drift detector.
        results = sweep(
            str(tmp_path), seed=0, sites=["store.not-woven"]
        )
        assert len(results) == 1
        result = results[0]
        assert not result.fired
        assert not result.ok
        assert "never fired" in result.detail


class TestDoomedChild:
    def test_armed_ingest_splices_after_the_warm_up(
        self, tmp_path, monkeypatch, capsys
    ):
        # The child's code path, run in-process with a raising site: the
        # warm-up commits unarmed, then the armed ingest reaches a
        # segment splice before the site fires.
        schema = _default_schema()
        case = RandomCase(0, schema)
        path = str(tmp_path / "store")
        Ingestor(MeasureStore(path), case.workflow).bootstrap(
            InMemoryDataset(schema, _split(case)[0])
        )
        splices = []
        real = store_module._splice
        monkeypatch.setattr(
            store_module, "_splice",
            lambda *args: splices.append(args) or real(*args),
        )
        monkeypatch.setenv(STORE_ENV, path)
        monkeypatch.setenv(SEED_ENV, "0")
        monkeypatch.setenv(ENV_VAR, "store.segment-write:raise")
        try:
            with pytest.raises(FailPointError):
                child_main()
        finally:
            clear()
        assert WARMED in capsys.readouterr().out
        assert splices
        assert MeasureStore(path).generation == 2


class TestSweepResult:
    def test_describe_mentions_outcome_and_site(self):
        ok_line = SweepResult(
            site="store.manifest-swap",
            action="crash",
            exit_code=77,
            fired=True,
            committed=True,
            ok=True,
        ).describe()
        assert ok_line.startswith("ok")
        assert "store.manifest-swap" in ok_line
        assert "post-delta" in ok_line
        fail_line = SweepResult(
            site="ingest.fold",
            action="crash",
            exit_code=0,
            fired=False,
            committed=False,
            ok=False,
            detail="site never fired",
        ).describe()
        assert fail_line.startswith("FAIL")
        assert "pre-delta" in fail_line
        assert "site never fired" in fail_line
