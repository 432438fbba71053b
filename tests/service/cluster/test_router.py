"""Router equivalence: a sharded cluster answers like one service.

Every read the router serves (point, range, table, rollup) must be
indistinguishable from an unsharded one-shot evaluation over the same
records — including holistic measures resolved lazily and rollups
merged from per-shard partials.
"""

import pytest

from repro.errors import ClusterError, GranularityError
from repro.schema.domain import ALL_VALUE
from repro.service.cluster import (
    MeasureCluster,
    bootstrap_cluster,
    open_cluster,
)

from tests.service.cluster.conftest import reference_tables
from tests.service.conftest import make_records

BASE = 520
DELTA = 80


@pytest.fixture()
def records():
    return make_records(BASE + DELTA, seed=11)


@pytest.fixture()
def cluster(tmp_path, cluster_workflow, records):
    cluster = bootstrap_cluster(
        str(tmp_path / "cluster"),
        cluster_workflow,
        records[:BASE],
        num_shards=3,
    )
    yield cluster
    cluster.close()


class TestBootstrapEquivalence:
    def test_tables_match_one_shot_evaluation(
        self, cluster, syn_schema, cluster_workflow, records
    ):
        cluster.resolve()
        reference = reference_tables(
            syn_schema, cluster_workflow, records[:BASE]
        )
        for name in cluster_workflow.outputs():
            assert cluster.table(name).equal_rows(reference[name]), name

    def test_points_route_to_the_owning_shard(
        self, cluster, syn_schema, cluster_workflow, records
    ):
        cluster.resolve()
        reference = reference_tables(
            syn_schema, cluster_workflow, records[:BASE]
        )
        for key, value in list(reference["Count"].items())[:25]:
            assert cluster.point("Count", key) == value

    def test_point_on_a_missing_key_returns_the_default(self, cluster):
        cluster.resolve()
        # 999 is far past every cut: routed (open outer edge) to the
        # last shard, which has no such region.
        missing = (999, ALL_VALUE, ALL_VALUE)
        assert cluster.point("MedV", missing, default=-1) == -1

    def test_wrong_width_key_is_rejected_not_absent(self, cluster):
        with pytest.raises(GranularityError, match="1 components"):
            cluster.point("MedV", (999,), default=-1)

    def test_range_merges_disjoint_shard_rows_in_key_order(
        self, cluster, syn_schema, cluster_workflow, records
    ):
        cluster.resolve()
        reference = reference_tables(
            syn_schema, cluster_workflow, records[:BASE]
        )
        rows = cluster.range("Total", ())
        assert [key for key, __ in rows] == sorted(
            key for key, __ in rows
        )
        assert dict(rows) == dict(reference["Total"].items())
        # A prefix pinning the partition dimension goes to one owner.
        some_key = rows[0][0]
        sub = cluster.range("Total", some_key[:1])
        assert dict(sub) == {
            key: value
            for key, value in reference["Total"].items()
            if key[:1] == some_key[:1]
        }

    def test_unknown_measure_is_a_cluster_error(self, cluster):
        with pytest.raises(ClusterError, match="unknown measure"):
            cluster.point("Nope", (0, 0))
        with pytest.raises(ClusterError, match="unknown measure"):
            cluster.table("Nope")


class TestIngestEquivalence:
    def test_tables_match_after_a_two_phase_ingest(
        self, cluster, syn_schema, cluster_workflow, records
    ):
        report = cluster.ingest(records[BASE:])
        assert report["epoch"] == 2
        assert report["records"] == DELTA
        cluster.resolve()
        reference = reference_tables(
            syn_schema, cluster_workflow, records
        )
        for name in cluster_workflow.outputs():
            assert cluster.table(name).equal_rows(reference[name]), name

    def test_epoch_and_stats_advance(self, cluster, records):
        before = cluster.stats()
        cluster.ingest(records[BASE:])
        after = cluster.stats()
        assert after["epoch"] == before["epoch"] + 1
        assert after["facts"] == before["facts"] + DELTA
        assert after["mode"] == "local"
        assert len(after["shards"]) == 3

    def test_reopen_serves_the_committed_state(
        self, tmp_path, cluster, syn_schema, cluster_workflow, records
    ):
        cluster.ingest(records[BASE:])
        cluster.resolve()
        cluster.close()
        reopened = open_cluster(str(tmp_path / "cluster"))
        try:
            assert reopened.epoch == 2
            reference = reference_tables(
                syn_schema, cluster_workflow, records
            )
            assert reopened.table("Count").equal_rows(
                reference["Count"]
            )
        finally:
            reopened.close()


class TestRollup:
    @staticmethod
    def _central(table, spec_levels, agg):
        """Reference rollup computed in one place, no sharding."""
        from repro.aggregates.base import get_aggregate
        from repro.cube.granularity import Granularity

        source = table.granularity
        target = Granularity(source.schema, tuple(spec_levels))
        function = get_aggregate(agg)
        grouped = {}
        for key, value in table.items():
            out = target.generalize_key(key, source)
            state = grouped.get(out)
            if state is None and out not in grouped:
                state = function.create()
            grouped[out] = function.update(state, value)
        return {
            key: function.finalize(state)
            for key, state in grouped.items()
        }

    @pytest.mark.parametrize("agg", ["sum", "count", "min", "max", "avg"])
    def test_rollup_matches_central_reference(
        self, cluster, syn_schema, cluster_workflow, records, agg
    ):
        cluster.resolve()
        reference = reference_tables(
            syn_schema, cluster_workflow, records[:BASE]
        )
        rolled = cluster.rollup("Count", {"d0": "d0.L2"}, agg=agg)
        expected = self._central(
            reference["Count"], rolled.granularity.levels, agg
        )
        assert dict(rolled.items()) == pytest.approx(expected)

    def test_rollup_to_finer_granularity_is_rejected(self, cluster):
        with pytest.raises(ClusterError, match="not coarser"):
            cluster.rollup("Total", {"d0": "d0.L0", "d1": "d1.L0"})


class TestConstruction:
    def test_bootstrap_refuses_an_existing_cluster(
        self, tmp_path, cluster, cluster_workflow, records
    ):
        with pytest.raises(ClusterError, match="already holds"):
            bootstrap_cluster(
                str(tmp_path / "cluster"),
                cluster_workflow,
                records[:10],
                num_shards=2,
            )

    def test_single_shard_cluster_works(
        self, tmp_path, syn_schema, cluster_workflow, records
    ):
        cluster = bootstrap_cluster(
            str(tmp_path / "one"),
            cluster_workflow,
            records[:BASE],
            num_shards=1,
        )
        try:
            cluster.resolve()
            reference = reference_tables(
                syn_schema, cluster_workflow, records[:BASE]
            )
            assert cluster.table("Total").equal_rows(reference["Total"])
        finally:
            cluster.close()

    def test_unknown_mode_is_rejected(
        self, tmp_path, cluster_workflow, records
    ):
        cluster = bootstrap_cluster(
            str(tmp_path / "m"), cluster_workflow, records[:50],
            num_shards=2,
        )
        cluster.close()
        with pytest.raises(ClusterError, match="unknown cluster mode"):
            MeasureCluster(
                str(tmp_path / "m"),
                cluster.manifest,
                cluster_workflow,
                mode="threads",
            )
