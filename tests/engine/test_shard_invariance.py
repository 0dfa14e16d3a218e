"""Shard-size invariance: one engine, any cut, the same answers.

Every session dataset is cut into shards once, at load.  The cut must
not change what the session computes: over the generator matrix of the
sharding differential suite, a ``Table`` load and a CSV upload of the
same data, at shard sizes from one row up to the engine default, give
the rule set and canonical violations of the monolithic library engines
(``PfdDiscoverer`` + ``ErrorDetector``) — before and after an edit
batch, whose re-check maintains the rules incrementally.  The
``ErrorDetector`` stays the baseline every cut must agree with.
"""

from __future__ import annotations

import random

import pytest

from repro.anmat.session import AnmatSession
from repro.datagen import build_dataset
from repro.datagen.corruption import CorruptionSpec, ErrorInjector
from repro.dataset.csvio import write_csv
from repro.detection import ErrorDetector
from repro.discovery import DiscoveryConfig, PfdDiscoverer
from repro.engine import DEFAULT_SHARD_ROWS, SpillToDiskShardStore
from repro.sharding import ShardedTable, ShardOverlay

#: the sharding differential matrix (generator, rows, extra corruption)
GENERATORS = [
    ("zip_city_state", 90, [CorruptionSpec("city", 0.05, kind="swap")]),
    ("phone_state", 80, [CorruptionSpec("state", 0.06, kind="case")]),
    ("fullname_gender", 80, [CorruptionSpec("gender", 0.08, kind="swap")]),
    ("employee_ids", 70, [CorruptionSpec("employee_id", 0.05, kind="typo")]),
]

SEEDS = [3, 58]

SHARD_SIZES = [1, 7, DEFAULT_SHARD_ROWS]

BASE = dict(min_coverage=0.4, allowed_violation_ratio=0.2)

EDITS_PER_BATCH = 6


def dirty_table(name, n_rows, specs, seed):
    dataset = build_dataset(name, n_rows=n_rows, seed=seed)
    dirty, _cells = ErrorInjector(seed=seed + 1).corrupt(dataset.table, specs)
    return dirty


def reference(table, config, relation):
    """Rules and canonical violations of the monolithic library engines."""
    discovery = PfdDiscoverer(config).discover_with_report(table, relation=relation)
    report = ErrorDetector(table).detect_all(discovery.pfds)
    return rules_of(discovery.pfds), report.canonical_violations()


def rules_of(pfds):
    return [pfd.describe() for pfd in pfds]


def edit_batch(seed, n_rows, names):
    """A deterministic batch of (row, column, donor row) value swaps."""
    rng = random.Random(seed * 1000 + 7)
    return [
        (rng.randrange(n_rows), rng.choice(names), rng.randrange(n_rows))
        for _ in range(EDITS_PER_BATCH)
    ]


def run_session(session, batch):
    """Discover, confirm, detect, apply ``batch`` through the edit loop,
    re-check; returns (rules, violations) before and after the batch."""
    with session:
        assert isinstance(session.table, ShardOverlay)
        session.run_discovery()
        session.confirm_all()
        before = (
            rules_of(session.discovery.pfds),
            session.run_detection().canonical_violations(),
        )
        for row, column, donor in batch:
            session.edit_cell(row, column, session.table.cell(donor, column))
        edited = session.table.materialize()
        session.recheck()
        assert session.last_plan.rule_maintenance == "incremental"
        # the re-checked violations are those of the surviving confirmations
        # (none survive when the batch changed every confirmed tableau)
        violations = None
        if session.confirmed_names:
            violations = session.violations.canonical_violations()
            expected = ErrorDetector(edited).detect_all(session.confirmed_pfds())
            assert violations == expected.canonical_violations()
        else:
            assert session.violations is None
        after = (rules_of(session.discovery.pfds), violations)
    return before, after, edited


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name,n_rows,specs", GENERATORS, ids=lambda v: str(v))
class TestShardSizeInvariance:
    @pytest.mark.parametrize("shard_rows", SHARD_SIZES)
    def test_table_load_and_csv_upload_agree(
        self, name, n_rows, specs, seed, shard_rows, tmp_path
    ):
        table = dirty_table(name, n_rows, specs, seed)
        config = DiscoveryConfig(**BASE, shard_rows=shard_rows)
        batch = edit_batch(seed, table.n_rows, table.column_names())
        path = tmp_path / f"{name}.csv"
        write_csv(table, path)

        loaded = AnmatSession(dataset_name=name, config=config).load_table(table)
        assert loaded.plan_discovery().shard_rows == min(shard_rows, table.n_rows)
        uploaded = AnmatSession(dataset_name=name, config=config).upload_csv(path)
        by_load = run_session(loaded, batch)
        by_upload = run_session(uploaded, batch)

        assert by_load[0] == reference(table, config, name)
        assert by_load[:2] == by_upload[:2]
        edited = by_load[2]
        assert list(edited.iter_rows()) == list(by_upload[2].iter_rows())
        full = PfdDiscoverer(config).discover_with_report(edited, relation=name)
        assert by_load[1][0] == rules_of(full.pfds)

    def test_spill_store_agrees(self, name, n_rows, specs, seed, tmp_path):
        table = dirty_table(name, n_rows, specs, seed)
        config = DiscoveryConfig(**BASE, shard_rows=13, store="spill")
        session = AnmatSession(dataset_name=name, config=config).load_table(table)
        assert isinstance(session.table.base.store, SpillToDiskShardStore)
        before, _after, _edited = run_session(session, [])
        assert before == reference(table, config, name)

    def test_sharded_upload_agrees_with_workers_inert(self, name, n_rows, specs, seed):
        table = dirty_table(name, n_rows, specs, seed)
        expected = reference(table, DiscoveryConfig(**BASE), name)
        for config in (DiscoveryConfig(**BASE), DiscoveryConfig(**BASE, n_workers=2)):
            session = AnmatSession(dataset_name=name, config=config)
            session.load_table(ShardedTable.from_table(table, 13))
            assert session.plan_discovery().shard_rows == 13
            before, _after, _edited = run_session(session, [])
            assert before == expected, f"diverged at {config.n_workers} workers"


def test_every_cut_agrees_with_the_detector_baseline():
    table = dirty_table("zip_city_state", 90, [], 7)
    pfds = PfdDiscoverer(DiscoveryConfig(**BASE)).discover(table)
    assert pfds
    baseline = ErrorDetector(table).detect_all(pfds)
    for shard_rows in SHARD_SIZES:
        with AnmatSession(
            dataset_name="baseline", config=DiscoveryConfig(**BASE, shard_rows=shard_rows)
        ) as session:
            report = session.load_table(table).run_detection(pfds)
        assert report.canonical_violations() == baseline.canonical_violations()
        assert report.n_rows == baseline.n_rows
        assert report.strategy == "sharded"
