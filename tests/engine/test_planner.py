"""Planner unit tests: the full routing matrix.

Every combination of (shard_rows, n_workers, upload kind) must resolve
to a deterministic backend, with the decisions recorded on the plan.
"""

import warnings

import pytest

from repro.discovery import DiscoveryConfig
from repro.engine import (
    DEFAULT_SHARD_ROWS,
    ExecutionBackend,
    PlanWarning,
    plan_detection,
    plan_discovery,
    plan_run,
)
from repro.errors import DiscoveryError


def config(shard_rows=0, n_workers=0):
    return DiscoveryConfig(shard_rows=shard_rows, n_workers=n_workers)


class TestAutoRouting:
    """The planner routes on config and upload kind."""

    @pytest.mark.parametrize("kind", ["discovery", "detection"])
    def test_default_is_serial(self, kind):
        plan = plan_run(kind, 100, config())
        assert plan.backend == ExecutionBackend.SERIAL
        assert plan.shard_rows == 0
        assert plan.n_shards == 0
        assert plan.decisions == []

    @pytest.mark.parametrize("kind", ["discovery", "detection"])
    def test_n_workers_routes_sharded(self, kind):
        plan = plan_run(kind, 100, config(n_workers=4))
        assert plan.backend == ExecutionBackend.SHARDED
        assert plan.n_workers == 4
        assert plan.shard_rows == DEFAULT_SHARD_ROWS
        assert plan.n_shards == 1
        assert any("config.n_workers=4" in d for d in plan.decisions)

    def test_one_worker_stays_serial(self):
        plan = plan_run("discovery", 100, config(n_workers=1))
        assert plan.backend == ExecutionBackend.SERIAL
        assert plan.n_workers == 0

    @pytest.mark.parametrize("kind", ["discovery", "detection"])
    def test_shard_rows_routes_sharded(self, kind):
        plan = plan_run(kind, 100, config(shard_rows=30))
        assert plan.backend == ExecutionBackend.SHARDED
        assert plan.shard_rows == 30
        assert plan.n_shards == 4  # ceil(100 / 30)

    @pytest.mark.parametrize("kind", ["discovery", "detection"])
    def test_sharded_upload_routes_sharded(self, kind):
        plan = plan_run(kind, 100, config(), sharded_upload=True, upload_shard_rows=25)
        assert plan.backend == ExecutionBackend.SHARDED
        assert plan.shard_rows == 25  # keeps the upload's partition

    def test_shard_rows_beats_n_workers_and_keeps_fanout(self):
        # both knobs: sharded backend, workers fan out the extraction
        plan = plan_run("discovery", 100, config(shard_rows=10, n_workers=3))
        assert plan.backend == ExecutionBackend.SHARDED
        assert plan.n_workers == 3

    def test_config_shard_rows_beats_upload_partition(self):
        plan = plan_run(
            "discovery", 100, config(shard_rows=40), sharded_upload=True,
            upload_shard_rows=25,
        )
        assert plan.shard_rows == 40


class TestShardedUploadsStaySharded:
    """A sharded upload has one route: the sharded backend, end to end
    on its shard store — no plan for it ever materializes the table."""

    @pytest.mark.parametrize("kind", ["discovery", "detection"])
    @pytest.mark.parametrize("cfg", [config(), config(shard_rows=10), config(n_workers=2)])
    def test_sharded_upload_never_plans_eager(self, kind, cfg):
        with warnings.catch_warnings():
            warnings.simplefilter("error", PlanWarning)
            plan = plan_run(kind, 100, cfg, sharded_upload=True, upload_shard_rows=25)
        assert plan.backend == ExecutionBackend.SHARDED
        assert plan.materialization == "never"
        assert not any("eager" in d for d in plan.decisions)
        assert "eager" not in plan.describe()

    def test_sharded_recheck_never_plans_eager(self):
        plan = plan_discovery(
            100, config(), sharded_upload=True, upload_shard_rows=25,
            recheck=True, maintainable=False,
        )
        assert plan.backend == ExecutionBackend.SHARDED
        assert plan.materialization == "never"

    def test_monolithic_table_plans_eager(self):
        assert plan_detection(100, config()).materialization == "eager"
        assert plan_detection(100, config(shard_rows=10)).materialization == "eager"

    def test_strategy_argument_is_gone(self):
        with pytest.raises(TypeError, match="strategy"):
            plan_run("detection", 10, config(), strategy="scan")
        with pytest.raises(TypeError, match="strategy"):
            plan_detection(10, config(), strategy="scan")
        assert not hasattr(plan_detection(10, config()), "strategy")


class TestWorkerFanOut:
    """``n_workers > 1`` fans out per shard on the sharded backend."""

    def test_monolithic_table_is_cut_at_the_default_shard_size(self):
        plan = plan_run("discovery", 3 * DEFAULT_SHARD_ROWS, config(n_workers=2))
        assert plan.backend == ExecutionBackend.SHARDED
        assert plan.shard_rows == DEFAULT_SHARD_ROWS
        assert plan.n_shards == 3
        assert any("cut into shards" in d for d in plan.decisions)

    def test_workers_keep_the_upload_partition(self):
        plan = plan_run(
            "discovery", 100, config(n_workers=2),
            sharded_upload=True, upload_shard_rows=25,
        )
        assert plan.shard_rows == 25
        assert not any("cut into shards" in d for d in plan.decisions)

    def test_workers_record_the_worker_pool(self):
        plan = plan_run("detection", 100, config(shard_rows=10, n_workers=3))
        assert any("WorkerPool of 3 processes" in d for d in plan.decisions)
        assert "workers=3" in plan.describe()

    def test_no_pool_decision_without_workers(self):
        plan = plan_run("detection", 100, config(shard_rows=10))
        assert not any("WorkerPool" in d for d in plan.decisions)

    def test_discovery_maps_nothing_over_the_pool(self):
        # discovery mines merged column encodings in-process; only
        # detection plans record the pool fan-out
        plan = plan_run("discovery", 100, config(shard_rows=10, n_workers=3))
        assert plan.backend == ExecutionBackend.SHARDED
        assert not any("WorkerPool" in d for d in plan.decisions)


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

    def test_describe_mentions_backend_and_decisions(self):
        plan = plan_detection(100, config(shard_rows=30))
        text = plan.describe()
        assert "backend=sharded" in text
        assert "shards=4x30" in text
        assert "execution plan (detection)" in text
        assert all(decision in text for decision in plan.decisions)

    def test_describe_monolithic_names_only_the_backend(self):
        text = plan_detection(100, config()).describe()
        assert text.startswith(
            "execution plan (detection): backend=serial workers=0 rows=100"
        )
        assert "shards=" not in text


class TestRuleMaintenanceResolution:
    """A re-check plan resolves the plan's ``rule_maintenance`` from the
    backend and the seeded baseline alone; ordinary discovery plans stay
    at ``"none"``.  Nothing is requested, so nothing warns."""

    def test_non_recheck_plans_record_none(self):
        assert plan_discovery(100, config()).rule_maintenance == "none"
        assert (
            plan_discovery(100, config(shard_rows=10)).rule_maintenance == "none"
        )
        assert plan_detection(100, config()).rule_maintenance == "none"

    def test_seeded_sharded_recheck_is_incremental(self):
        plan = plan_discovery(
            100, config(shard_rows=10), recheck=True, maintainable=True
        )
        assert plan.rule_maintenance == "incremental"
        assert any("maintains the rule set" in d for d in plan.decisions)
        assert "rule_maintenance=incremental" in plan.describe()

    def test_unseeded_recheck_falls_back_quietly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", PlanWarning)
            plan = plan_discovery(
                100, config(shard_rows=10), recheck=True, maintainable=False
            )
        assert plan.rule_maintenance == "full"
        assert any("no maintainable rule baseline" in d for d in plan.decisions)

    def test_monolithic_recheck_falls_back_quietly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", PlanWarning)
            plan = plan_discovery(100, config(), recheck=True, maintainable=True)
        assert plan.rule_maintenance == "full"
        assert any("needs the sharded backend" in d for d in plan.decisions)

    def test_describe_omits_none(self):
        assert "rule_maintenance" not in plan_discovery(100, config()).describe()


class TestRemovedKnobs:
    """``rule_maintenance`` and ``prefetch_depth`` are no longer
    settable: the config rejects them and the plan has no prefetch."""

    @pytest.mark.parametrize(
        "field,value", [("rule_maintenance", "full"), ("prefetch_depth", 2)]
    )
    def test_config_rejects_removed_field(self, field, value):
        with pytest.raises(TypeError, match=field):
            DiscoveryConfig(**{field: value})
        with pytest.raises(TypeError, match=field):
            DiscoveryConfig().with_overrides(**{field: value})

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

    def test_monolithic_backend_has_no_object_client(self):
        # the url is only consulted when shards actually exist
        cfg = DiscoveryConfig(store="object", object_url="http://127.0.0.1:8080")
        plan = plan_run("discovery", 100, cfg)
        assert plan.backend == ExecutionBackend.SERIAL
        assert plan.object_client == "none"

    def test_config_validates_the_url(self):
        with pytest.raises(DiscoveryError, match="object_url"):
            DiscoveryConfig(store="object", object_url="ftp://host/x")
