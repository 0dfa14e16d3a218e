"""Differential gate for incremental rule maintenance.

The contract of :class:`repro.discovery.maintenance.RuleMaintainer` is
absolute: after any cell-edit batch, the maintained rule set — names,
tableaux, and per-candidate accept/coverage decisions — must be
*identical* to a full monolithic re-discovery over the edited table
through the scalar reference route (:class:`ReferenceMajority`).  The
gate runs randomized edit sequences over every PR-4 generator, on every
shard-store backend, with the session mining through the kernels
(``on``) and through the scalar loop body (``off``) (4 generators x
3 stores x 2 routes x 3 seeds x 3 batches = 216 maintained re-checks).
Each case is fully determined by its test id, so a failure replays with
``pytest -k <test id>``.  A direct
:class:`RuleMaintainer` sequence with the reference decision keeps the
scalar fallback inside maintenance covered too.
"""

from __future__ import annotations

import random
import warnings

import pytest
from reference_decision import ReferenceMajority, route_everything_scalar

from repro.anmat.session import AnmatSession, SessionState
from repro.datagen import build_dataset
from repro.datagen.corruption import CorruptionSpec, ErrorInjector
from repro.discovery import DiscoveryConfig, PfdDiscoverer
from repro.discovery.maintenance import RuleMaintainer
from repro.engine import PlanWarning
from repro.sharding import ShardedDiscoverer, ShardedTable, ShardOverlay, make_shard_store

#: the PR-4 generator sweep (same shapes as tests/sharding/test_differential.py)
GENERATORS = [
    ("zip_city_state", 90, [CorruptionSpec("city", 0.05, kind="swap")]),
    ("phone_state", 80, [CorruptionSpec("state", 0.06, kind="case")]),
    ("fullname_gender", 80, [CorruptionSpec("gender", 0.08, kind="swap")]),
    ("employee_ids", 70, [CorruptionSpec("employee_id", 0.05, kind="typo")]),
]

SEEDS = [3, 11, 58]
STORES = ["memory", "spill", "object"]
KERNEL_MODES = ["on", "off"]
SHARD_ROWS = 16
BATCHES_PER_SEED = 3
EDITS_PER_BATCH = 6


def dirty_table(name, n_rows, specs, seed):
    dataset = build_dataset(name, n_rows=n_rows, seed=seed)
    dirty, _cells = ErrorInjector(seed=seed + 1).corrupt(dataset.table, specs)
    return dirty


def make_config(store):
    return DiscoveryConfig(
        min_coverage=0.4,
        allowed_violation_ratio=0.2,
        shard_rows=SHARD_ROWS,
        store=store,
    )


def make_session(name, n_rows, specs, seed, store):
    table = dirty_table(name, n_rows, specs, seed)
    sharded = ShardedTable.from_table(
        table, SHARD_ROWS, store=make_shard_store(store)
    )
    session = AnmatSession(dataset_name=name, config=make_config(store))
    session.load_table(sharded)
    return session


def apply_random_batch(overlay, rng):
    """A realistic interactive batch: mostly value swaps between rows,
    plus one revert-style write (same value back) to exercise the
    edited-columns superset."""
    names = overlay.column_names()
    for _ in range(EDITS_PER_BATCH):
        row = rng.randrange(overlay.n_rows)
        column = rng.choice(names)
        donor = rng.randrange(overlay.n_rows)
        overlay.set_cell(row, column, overlay.cell(donor, column))
    # the no-op write: edit-count bumps, contents do not change
    row = rng.randrange(overlay.n_rows)
    column = rng.choice(names)
    overlay.set_cell(row, column, overlay.cell(row, column))


def rules_of(result):
    return [pfd.describe() for pfd in result.pfds]


def decisions_of(result):
    return [(r.lhs, r.rhs, r.accepted, r.coverage) for r in result.reports]


def reference_rediscovery(config, table, relation=None):
    """Full re-discovery through the scalar reference route."""
    return PfdDiscoverer(config, ReferenceMajority()).discover_with_report(
        table, relation=relation
    )


@pytest.mark.parametrize("kernels", KERNEL_MODES)
@pytest.mark.parametrize("store", STORES)
@pytest.mark.parametrize("name,n_rows,specs", GENERATORS, ids=lambda v: str(v))
class TestMaintenanceDifferential:
    def test_maintained_rules_identical_to_full_rediscovery(
        self, name, n_rows, specs, store, kernels, monkeypatch
    ):
        if kernels == "off":
            route_everything_scalar(monkeypatch)
        for seed in SEEDS:
            session = make_session(name, n_rows, specs, seed, store)
            try:
                session.run_discovery()
                assert session.last_plan.backend == "sharded"
                rng = random.Random(seed * 1000 + 7)
                for _batch in range(BATCHES_PER_SEED):
                    apply_random_batch(session.table, rng)
                    result = session.recheck()
                    assert session.last_plan.rule_maintenance == "incremental"
                    full = reference_rediscovery(
                        session.config, session.table.materialize(), relation=name
                    )
                    assert rules_of(result) == rules_of(full), (
                        f"maintained rules diverged (seed={seed})"
                    )
                    assert decisions_of(result) == decisions_of(full), (
                        f"maintained mining decisions diverged (seed={seed})"
                    )
            finally:
                session.close()


@pytest.mark.parametrize("name,n_rows,specs", GENERATORS, ids=lambda v: str(v))
def test_reference_maintainer_sequence(name, n_rows, specs):
    """A maintainer whose decision function the kernels do not
    reproduce re-mines every stale candidate through the scalar loop
    body, and still matches full re-discovery on both routes."""
    config = make_config("memory")
    table = dirty_table(name, n_rows, specs, 11)
    view = ShardedTable.from_table(table, SHARD_ROWS)
    maintainer = RuleMaintainer(config, ReferenceMajority())
    maintainer.seed(
        view, ShardedDiscoverer(config, ReferenceMajority()).discover_with_report(view)
    )
    overlay = ShardOverlay(view)
    rng = random.Random(11)
    for _batch in range(BATCHES_PER_SEED):
        apply_random_batch(overlay, rng)
        result = maintainer.maintain(overlay.as_sharded())
        assert result is not None, "a cell-edit batch must be maintainable"
        edited = overlay.materialize()
        for full in (
            reference_rediscovery(config, edited),
            PfdDiscoverer(config).discover_with_report(edited),
        ):
            assert rules_of(result) == rules_of(full)
            assert decisions_of(result) == decisions_of(full)


@pytest.mark.parametrize(
    "name,n_rows,specs", GENERATORS[:1], ids=lambda v: str(v)
)
class TestMaintenanceFallbacks:
    """Structural changes and unsharded runs fall back to full
    re-discovery — with the fallback recorded on the plan."""

    def test_append_falls_back_to_full(self, name, n_rows, specs):
        session = make_session(name, n_rows, specs, 3, "memory")
        try:
            session.run_discovery()
            template = session.table.row(0)
            session.table.append_row(template)
            with warnings.catch_warnings():
                warnings.simplefilter("error", PlanWarning)
                with pytest.raises(PlanWarning):
                    session.recheck()
            # warnings are advisory: the fallback itself succeeds
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PlanWarning)
                session.table.append_row(template)
                result = session.recheck()
            assert session.last_plan.rule_maintenance == "full"
            full = PfdDiscoverer(session.config).discover_with_report(
                session.table.materialize(), relation=name
            )
            assert rules_of(result) == rules_of(full)
            # the fallback re-seeded: the next cell-edit batch maintains
            session.table.set_cell(1, session.table.column_names()[0], "X1")
            with warnings.catch_warnings():
                warnings.simplefilter("error", PlanWarning)
                result = session.recheck()
            assert session.last_plan.rule_maintenance == "incremental"
            full = PfdDiscoverer(session.config).discover_with_report(
                session.table.materialize(), relation=name
            )
            assert rules_of(result) == rules_of(full)
        finally:
            session.close()

    def test_delete_falls_back_to_full(self, name, n_rows, specs):
        session = make_session(name, n_rows, specs, 3, "memory")
        try:
            session.run_discovery()
            session.table.delete_row(5)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PlanWarning)
                result = session.recheck()
            assert session.last_plan.rule_maintenance == "full"
            full = PfdDiscoverer(session.config).discover_with_report(
                session.table.materialize(), relation=name
            )
            assert rules_of(result) == rules_of(full)
        finally:
            session.close()

    def test_monolithic_session_rechecks_full(self, name, n_rows, specs):
        """An eager (unsharded) session has no shard versions to diff:
        the plan records the full fallback without warning under
        ``auto``, and warns when ``incremental`` was requested."""
        table = dirty_table(name, n_rows, specs, 3)
        session = AnmatSession(
            dataset_name=name,
            config=DiscoveryConfig(min_coverage=0.4, allowed_violation_ratio=0.2),
        )
        session.load_table(table)
        session.run_discovery()
        assert session._maintainer is None
        session.table.set_cell(0, table.column_names()[0], "X0")
        with warnings.catch_warnings():
            warnings.simplefilter("error", PlanWarning)
            result = session.recheck()
        assert session.last_plan.rule_maintenance == "full"
        full = PfdDiscoverer(session.config).discover_with_report(
            session.table, relation=name
        )
        assert rules_of(result) == rules_of(full)

        session.config = session.config.with_overrides(
            rule_maintenance="incremental"
        )
        session.table.set_cell(1, table.column_names()[0], "X1")
        with pytest.warns(PlanWarning):
            session.recheck()
        assert session.last_plan.rule_maintenance == "full"

    def test_rule_maintenance_full_requested(self, name, n_rows, specs):
        """``rule_maintenance='full'`` re-discovers even with a seeded
        sharded baseline."""
        session = make_session(name, n_rows, specs, 3, "memory")
        session.config = session.config.with_overrides(rule_maintenance="full")
        try:
            session.run_discovery()
            session.table.set_cell(0, session.table.column_names()[0], "X0")
            result = session.recheck()
            assert session.last_plan.rule_maintenance == "full"
            full = PfdDiscoverer(session.config).discover_with_report(
                session.table.materialize(), relation=name
            )
            assert rules_of(result) == rules_of(full)
        finally:
            session.close()

    def test_recheck_without_discovery_raises(self, name, n_rows, specs):
        from repro.errors import ProjectError

        session = make_session(name, n_rows, specs, 3, "memory")
        try:
            with pytest.raises(ProjectError):
                session.recheck()
        finally:
            session.close()


class TestMaintainedDetection:
    """The full interactive loop: discover → confirm → detect → edit →
    recheck.  Confirmations survive by content, the re-detection runs
    over pair groups the maintainer carried shard-wise, and the
    violations equal a from-scratch detection over the edited table."""

    def test_recheck_after_edit_loop_redetects_identically(self):
        from repro.detection import ErrorDetector

        session = make_session(*GENERATORS[0], 3, "memory")
        try:
            session.run_discovery()
            session.confirm_all()
            session.run_detection()
            rng = random.Random(99)
            overlay = session.table
            for _ in range(8):
                row = rng.randrange(overlay.n_rows)
                column = rng.choice(overlay.column_names())
                donor = rng.randrange(overlay.n_rows)
                session.edit_cell(row, column, overlay.cell(donor, column))
            assert session.state is SessionState.EDITING
            result = session.recheck()
            assert session.last_plan.rule_maintenance == "incremental"
            assert session.state is SessionState.DETECTED
            # confirmations survived by content and re-detection matches
            # a from-scratch monolithic run over the confirmed survivors
            confirmed = session.confirmed_pfds()
            assert confirmed, "every unchanged rule should stay confirmed"
            expected = (
                ErrorDetector(session.table.materialize())
                .detect_all(confirmed)
                .canonical_violations()
            )
            assert session.violations.canonical_violations() == expected
        finally:
            session.close()

    def test_unconfirmed_recheck_returns_to_discovered(self):
        session = make_session(*GENERATORS[0], 3, "memory")
        try:
            session.run_discovery()
            session.table.set_cell(0, session.table.column_names()[0], "X0")
            session.recheck()
            assert session.state is SessionState.DISCOVERED
            assert session.violations is None
        finally:
            session.close()
