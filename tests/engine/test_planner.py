"""Planner unit tests: shard size and count, store, object client and
rule maintenance resolve deterministically, with the decisions recorded
on the plan; the inert ``n_workers`` changes nothing.
"""

import pytest

from repro.discovery import DiscoveryConfig
from repro.engine import DEFAULT_SHARD_ROWS, plan_run
from repro.errors import DiscoveryError


def config(shard_rows=0, n_workers=0):
    return DiscoveryConfig(shard_rows=shard_rows, n_workers=n_workers)


class TestShardSize:
    """A plan reads the cut made at load: the dataset's own shard size,
    else ``config.shard_rows``, else the engine default."""

    @pytest.mark.parametrize("kind", ["discovery", "detection"])
    def test_default_is_the_engine_default(self, kind):
        plan = plan_run(kind, 10_000, config())
        assert plan.shard_rows == DEFAULT_SHARD_ROWS
        assert plan.n_shards == 3  # ceil(10000 / 4096)
        assert plan.decisions == [
            f"the dataset was cut once at load into shards of {DEFAULT_SHARD_ROWS} "
            "rows on the memory store"
        ]

    @pytest.mark.parametrize("kind", ["discovery", "detection"])
    def test_config_shard_rows_sizes_the_cut(self, kind):
        plan = plan_run(kind, 100, config(shard_rows=30))
        assert plan.shard_rows == 30
        assert plan.n_shards == 4  # ceil(100 / 30)

    @pytest.mark.parametrize("kind", ["discovery", "detection"])
    def test_the_datasets_cut_beats_the_config(self, kind):
        # the cut is made once at load; a run never re-cuts
        plan = plan_run(kind, 100, config(shard_rows=40), shard_rows=25)
        assert plan.shard_rows == 25
        assert plan.n_shards == 4
        assert any("shards of 25 rows" in d for d in plan.decisions)

    def test_upload_keyword_arguments_are_gone(self):
        for keyword in ("sharded_upload", "upload_shard_rows"):
            with pytest.raises(TypeError, match=keyword):
                plan_run("discovery", 10, config(), **{keyword: 1})

    def test_plan_fields_are_one_engines(self):
        # no backend to choose and nothing to materialize: a plan holds
        # the cut, the store, the object client and rule maintenance
        import dataclasses

        from repro.engine import ExecutionPlan

        assert [f.name for f in dataclasses.fields(ExecutionPlan)] == [
            "kind",
            "config",
            "shard_rows",
            "n_shards",
            "n_rows",
            "store",
            "object_client",
            "rule_maintenance",
            "decisions",
        ]
        assert "backend" not in plan_run("detection", 100, config()).describe()

    def test_strategy_argument_is_gone(self):
        with pytest.raises(TypeError, match="strategy"):
            plan_run("detection", 10, config(), strategy="scan")
        assert not hasattr(plan_run("detection", 10, config()), "strategy")


class TestInertWorkers:
    """``n_workers`` is accepted and validated, then ignored: it neither
    changes a plan nor appears on it."""

    @pytest.mark.parametrize("shard_rows,cut", [(0, 0), (10, 0), (0, 25), (10, 25)])
    def test_plans_equal_with_and_without_workers(self, shard_rows, cut):
        for kind in ("discovery", "detection"):
            without = plan_run(
                kind, 3 * DEFAULT_SHARD_ROWS, config(shard_rows, 0), shard_rows=cut
            )
            with_workers = plan_run(
                kind, 3 * DEFAULT_SHARD_ROWS, config(shard_rows, 2), shard_rows=cut
            )
            assert with_workers.shard_rows == without.shard_rows
            assert with_workers.n_shards == without.n_shards
            assert with_workers.decisions == without.decisions
            assert with_workers.describe() == without.describe()

    def test_workers_leave_no_decision(self):
        plan = plan_run("detection", 100, config(n_workers=4))
        assert not any("worker" in d.lower() for d in plan.decisions)

    def test_negative_workers_still_rejected(self):
        with pytest.raises(DiscoveryError, match="n_workers"):
            config(n_workers=-1)


class TestValidationAndShape:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown plan kind"):
            plan_run("profile", 10, config())

    def test_executor_override_is_gone(self):
        with pytest.raises(TypeError, match="executor"):
            plan_run("discovery", 10, config(), executor="serial")

    def test_zero_row_table_plans_one_shard(self):
        plan = plan_run("discovery", 0, config(shard_rows=10))
        assert plan.n_shards == 1

    def test_describe_mentions_shards_store_and_decisions(self):
        plan = plan_run("detection", 100, config(shard_rows=30))
        text = plan.describe()
        assert text.startswith(
            "execution plan (detection): shards=4x30 store=memory rows=100"
        )
        assert all(decision in text for decision in plan.decisions)


class TestRuleMaintenanceResolution:
    """A re-check plan resolves the plan's ``rule_maintenance`` from the
    seeded baseline alone; ordinary discovery plans stay at ``"none"``.
    Nothing is requested, so nothing warns."""

    def test_non_recheck_plans_record_none(self):
        assert plan_run("discovery", 100, config()).rule_maintenance == "none"
        assert (
            plan_run("discovery", 100, config(shard_rows=10)).rule_maintenance == "none"
        )
        assert plan_run("detection", 100, config()).rule_maintenance == "none"

    def test_seeded_sharded_recheck_is_incremental(self):
        plan = plan_run(
            "discovery", 100, config(shard_rows=10), recheck=True, maintainable=True
        )
        assert plan.rule_maintenance == "incremental"
        assert any("maintains the rule set" in d for d in plan.decisions)
        assert "rule_maintenance=incremental" in plan.describe()

    def test_unseeded_recheck_falls_back_quietly(self):
        plan = plan_run(
            "discovery", 100, config(shard_rows=10), recheck=True, maintainable=False
        )
        assert plan.rule_maintenance == "full"
        assert any("no maintainable rule baseline" in d for d in plan.decisions)

    def test_default_config_recheck_is_incremental(self):
        # no shard_rows set: a Table load is still cut, so it maintains
        plan = plan_run("discovery", 100, config(), recheck=True, maintainable=True)
        assert plan.rule_maintenance == "incremental"
        assert not any("backend" in d for d in plan.decisions)

    def test_describe_omits_none(self):
        assert "rule_maintenance" not in plan_run("discovery", 100, config()).describe()


class TestRemovedKnobs:
    """``rule_maintenance`` and ``prefetch_depth`` are no longer
    settable: the config rejects them, and the plan has no prefetch
    depth and no worker count."""

    @pytest.mark.parametrize(
        "field,value", [("rule_maintenance", "full"), ("prefetch_depth", 2)]
    )
    def test_config_rejects_removed_field(self, field, value):
        with pytest.raises(TypeError, match=field):
            DiscoveryConfig(**{field: value})
        with pytest.raises(TypeError, match=field):
            DiscoveryConfig().with_overrides(**{field: value})

    def test_plan_has_no_n_workers(self):
        plan = plan_run("detection", 100, config(shard_rows=10, n_workers=2))
        assert not hasattr(plan, "n_workers")
        assert "workers" not in plan.describe()

    def test_plan_warning_is_gone(self):
        import repro.engine

        assert not hasattr(repro.engine, "PlanWarning")
        assert not hasattr(repro.engine, "WorkerPool")

    def test_plan_has_no_prefetch_depth(self):
        cfg = DiscoveryConfig(shard_rows=10, store="object")
        plan = plan_run("detection", 100, cfg)
        assert not hasattr(plan, "prefetch_depth")
        assert "prefetch" not in plan.describe()


class TestObjectClientRouting:
    """plan.object_client: which client serves an object-store run."""

    def test_http_url_routes_the_http_client(self):
        cfg = DiscoveryConfig(
            shard_rows=10, store="object", object_url="http://127.0.0.1:8080"
        )
        plan = plan_run("discovery", 100, cfg)
        assert plan.object_client == "http"
        assert "store=object[http]" in plan.describe()
        assert any("remote HTTP client" in d for d in plan.decisions)

    def test_object_store_without_url_routes_the_local_client(self):
        cfg = DiscoveryConfig(shard_rows=10, store="object")
        plan = plan_run("discovery", 100, cfg)
        assert plan.object_client == "local"
        assert "store=object[local]" in plan.describe()
        assert any("local filesystem client" in d for d in plan.decisions)

    def test_other_stores_have_no_object_client(self):
        for store in ("memory", "spill"):
            plan = plan_run("discovery", 100, DiscoveryConfig(shard_rows=10, store=store))
            assert plan.object_client == "none"
            assert "[" not in plan.describe().split("store=")[1].split()[0]

    def test_default_shard_size_still_routes_the_object_client(self):
        # every dataset is sharded, so the url is consulted without
        # shard_rows too
        cfg = DiscoveryConfig(store="object", object_url="http://127.0.0.1:8080")
        plan = plan_run("discovery", 100, cfg)
        assert plan.object_client == "http"
        assert "shards=1x4096 store=object[http]" in plan.describe()

    def test_config_validates_the_url(self):
        with pytest.raises(DiscoveryError, match="object_url"):
            DiscoveryConfig(store="object", object_url="ftp://host/x")
