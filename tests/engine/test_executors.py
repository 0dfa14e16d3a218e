"""Differential tests: executor choice must not change results.

The PR-4 generator matrix runs through the engine API under every
route — serial and sharded (in-memory *and* spill-to-disk shard store),
with and without the inert ``n_workers`` — and each must produce the
identical rule set and canonically equal violations.  This is the
engine's contract: the planner may route a run anywhere without changing
its meaning.
"""

from __future__ import annotations

import pytest

from repro.datagen import build_dataset
from repro.datagen.corruption import CorruptionSpec, ErrorInjector
from repro.detection import DetectionStrategy
from repro.discovery import DiscoveryConfig
from repro.engine import (
    DataSource,
    ExecutionBackend,
    SpillToDiskShardStore,
    build_executor,
    plan_detection,
    plan_discovery,
)
from repro.sharding import ShardedTable

#: the PR-4 differential matrix (generator, rows, extra corruption)
GENERATORS = [
    ("zip_city_state", 90, [CorruptionSpec("city", 0.05, kind="swap")]),
    ("phone_state", 80, [CorruptionSpec("state", 0.06, kind="case")]),
    ("fullname_gender", 80, [CorruptionSpec("gender", 0.08, kind="swap")]),
    ("employee_ids", 70, [CorruptionSpec("employee_id", 0.05, kind="typo")]),
]

SEEDS = [3, 58]

BASE = dict(min_coverage=0.4, allowed_violation_ratio=0.2)

#: route label → config that routes there (``n_workers`` is accepted
#: and ignored, so the "workers" configs must route like their peers)
EXECUTOR_CONFIGS = {
    "serial": DiscoveryConfig(**BASE),
    "workers": DiscoveryConfig(**BASE, n_workers=2),  # monolithic + workers
    "sharded": DiscoveryConfig(**BASE, shard_rows=13),
    "sharded-workers": DiscoveryConfig(**BASE, shard_rows=13, n_workers=2),
}


def dirty_table(name, n_rows, specs, seed):
    dataset = build_dataset(name, n_rows=n_rows, seed=seed)
    dirty, _cells = ErrorInjector(seed=seed + 1).corrupt(dataset.table, specs)
    return dirty


def run_engine(table, config, source=None):
    """One full discover→detect round through the engine API."""
    source = source or DataSource(table)
    d_plan = plan_discovery(
        table.n_rows, config,
        sharded_upload=source.is_sharded_upload,
        upload_shard_rows=source.upload_shard_rows,
    )
    discovery = build_executor(d_plan).run_discovery(d_plan, source)
    v_plan = plan_detection(
        table.n_rows, config,
        sharded_upload=source.is_sharded_upload,
        upload_shard_rows=source.upload_shard_rows,
    )
    report = build_executor(v_plan).run_detection(v_plan, source, discovery.pfds)
    rules = [pfd.describe() for pfd in discovery.pfds]
    return d_plan, v_plan, rules, report.canonical_violations()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name,n_rows,specs", GENERATORS, ids=lambda v: str(v))
class TestExecutorInvariance:
    def test_all_backends_agree(self, name, n_rows, specs, seed):
        table = dirty_table(name, n_rows, specs, seed)
        results = {
            label: run_engine(table, config)
            for label, config in EXECUTOR_CONFIGS.items()
        }
        _, _, rules, violations = results["serial"]
        assert results["serial"][0].backend == ExecutionBackend.SERIAL
        # n_workers is inert: a monolithic table stays serial
        assert results["workers"][0].backend == ExecutionBackend.SERIAL
        assert results["sharded"][0].backend == ExecutionBackend.SHARDED
        for label, (d_plan, _v_plan, got_rules, got_violations) in results.items():
            assert got_rules == rules, f"rule set diverged under {label}"
            assert got_violations == violations, f"violations diverged under {label}"

    def test_spill_to_disk_store_agrees(self, name, n_rows, specs, seed, tmp_path):
        table = dirty_table(name, n_rows, specs, seed)
        _, _, rules, violations = run_engine(table, EXECUTOR_CONFIGS["serial"])
        store = SpillToDiskShardStore(tmp_path / "spill")
        sharded = ShardedTable.from_table(table, 13, store=store)
        source = DataSource.from_sharded(sharded)
        d_plan, v_plan, got_rules, got_violations = run_engine(
            table, DiscoveryConfig(**BASE), source=source
        )
        assert d_plan.backend == ExecutionBackend.SHARDED
        assert v_plan.backend == ExecutionBackend.SHARDED
        assert got_rules == rules
        assert got_violations == violations

    def test_upload_kinds_agree(self, name, n_rows, specs, seed):
        """A monolithic load and a never-materialized sharded upload,
        with and without workers, give the same rules and violations."""
        table = dirty_table(name, n_rows, specs, seed)
        base = DiscoveryConfig(**BASE)
        _, _, rules, violations = run_engine(table, base)
        for config in (base, base.with_overrides(n_workers=2)):
            source = DataSource.from_sharded(ShardedTable.from_table(table, 13))
            d_plan, _v, got_rules, got_violations = run_engine(
                table, config, source=source
            )
            assert d_plan.backend == ExecutionBackend.SHARDED
            assert d_plan.materialization == "never"
            assert got_rules == rules, f"rule set diverged at {config.n_workers} workers"
            assert got_violations == violations, (
                f"violations diverged at {config.n_workers} workers"
            )


class TestDetectionRoutes:
    """Detection has one route per upload; the ``ErrorDetector``
    strategies stay as the baselines every route must agree with."""

    @pytest.mark.parametrize(
        "strategy",
        [DetectionStrategy.SCAN, DetectionStrategy.INDEX, DetectionStrategy.BRUTEFORCE],
    )
    def test_both_backends_agree_with_every_strategy_baseline(self, strategy):
        from repro.detection import ErrorDetector
        from repro.discovery import PfdDiscoverer

        table = dirty_table("zip_city_state", 90, [], 7)
        pfds = PfdDiscoverer(DiscoveryConfig(**BASE)).discover(table)
        assert pfds
        baseline = ErrorDetector(table).detect_all(pfds, strategy=strategy)
        for config in (DiscoveryConfig(**BASE), DiscoveryConfig(**BASE, n_workers=2)):
            plan = plan_detection(table.n_rows, config)
            report = build_executor(plan).run_detection(plan, DataSource(table), pfds)
            assert report.canonical_violations() == baseline.canonical_violations()
            assert report.n_rows == baseline.n_rows
            assert report.strategy == (
                "auto" if plan.backend == ExecutionBackend.SERIAL else "sharded"
            )


class TestDataSource:
    def test_sharded_view_reused_until_edit(self):
        table = dirty_table("zip_city_state", 60, [], 3)
        source = DataSource(table)
        first = source.sharded_view(10)
        assert source.sharded_view(10) is first
        table.set_cell(0, table.column_names()[0], "X")
        rebuilt = source.sharded_view(10)
        assert rebuilt is not first
        assert rebuilt.to_table().cell(0, table.column_names()[0]) == "X"

    def test_forced_sharded_run_does_not_flip_upload_kind(self):
        # regression: building a sharded view for a one-off forced run
        # must not make later auto-planned runs believe the upload was
        # sharded
        table = dirty_table("zip_city_state", 60, [], 3)
        source = DataSource(table)
        assert not source.is_sharded_upload
        source.sharded_view(10)  # e.g. one run with shard_rows set
        assert not source.is_sharded_upload
        assert source.upload_shard_rows == 0
        plan = plan_detection(
            table.n_rows, DiscoveryConfig(**BASE),
            sharded_upload=source.is_sharded_upload,
            upload_shard_rows=source.upload_shard_rows,
        )
        assert plan.backend == ExecutionBackend.SERIAL

    def test_view_recut_when_requested_size_differs(self):
        # regression: config.shard_rows must win over the upload
        # partition, so the executed shards match the plan
        table = dirty_table("zip_city_state", 60, [], 3)
        upload = ShardedTable.from_table(table, 25)
        source = DataSource.from_sharded(upload)
        view = source.sharded_view(10)
        assert view is not upload
        assert max(view.shard_row_counts()) == 10
        # and asking for the upload's own size reuses it (cache kept)
        assert source.sharded_view(25) is upload

    def test_upload_partition_kept_without_knob(self):
        table = dirty_table("zip_city_state", 60, [], 3)
        sharded = ShardedTable.from_table(table, 25)
        source = DataSource.from_sharded(sharded)
        assert source.is_sharded_upload
        assert source.upload_shard_rows == 25
        # an edit seals a patched view; without a knob the upload's size sticks
        source.view.set_cell(0, table.column_names()[0], "X")
        rebuilt = source.sharded_view(0)
        assert rebuilt is not sharded
        assert max(rebuilt.shard_row_counts()) == 25
