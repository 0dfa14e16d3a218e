"""Differential gate for incremental rule maintenance.

The contract of :class:`repro.discovery.maintenance.RuleMaintainer` is
absolute: after any cell-edit batch, the maintained rule set — names and
tableaux — and every field of every per-candidate report (each constant
tuple's pattern, RHS, support, agreement, source token and position,
values, covered and violating rows; each variable candidate's
statistics; accept and coverage) must be *identical* to a full
re-discovery over the edited table through the literal Figure 2 loop
(``tests/figure2_reference.py``), so the patched mining state cannot
drift unseen.  The gate runs
randomized edit sequences over every generator of the sharding
differential suite, on every shard-store backend (4 generators x
3 stores x 6 seeds x 3 batches = 216 maintained re-checks).  Each case is fully determined by its test
id, so a failure replays with ``pytest -k <test id>``.  A direct
:class:`RuleMaintainer` sequence, outside the session, is checked
against the reference and the kernel re-discovery too.
"""

from __future__ import annotations

import random
from collections import Counter

import detection_reference
import figure2_reference
import pytest
from fresh_seed import assert_report_equals_a_fresh_seed
from sharded_values import column_of

from repro.anmat.session import AnmatSession, SessionState
from repro.datagen import build_dataset
from repro.datagen.corruption import CorruptionSpec, ErrorInjector
from repro.discovery import DiscoveryConfig, PfdDiscoverer
from repro.discovery.maintenance import RuleMaintainer
from repro.errors import DiscoveryError
from repro.sharding import ShardedTable, ShardOverlay, make_shard_store

#: the PR-4 generator sweep (same shapes as tests/sharding/test_differential.py)
GENERATORS = [
    ("zip_city_state", 90, [CorruptionSpec("city", 0.05, kind="swap")]),
    ("phone_state", 80, [CorruptionSpec("state", 0.06, kind="case")]),
    ("fullname_gender", 80, [CorruptionSpec("gender", 0.08, kind="swap")]),
    ("employee_ids", 70, [CorruptionSpec("employee_id", 0.05, kind="typo")]),
]

SEEDS = [3, 11, 58, 5, 23, 91]
STORES = ["memory", "spill", "object"]
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


def apply_random_batch(overlay, rng, write=None):
    """A realistic interactive batch: mostly value swaps between rows,
    plus one revert-style write (same value back) to exercise the
    edited-columns superset.  ``write`` (default: the overlay's own
    ``set_cell``) makes each write, e.g. a session's ``edit_cell``."""
    write = overlay.set_cell if write is None else write
    names = overlay.column_names()
    for _ in range(EDITS_PER_BATCH):
        row = rng.randrange(overlay.n_rows)
        column = rng.choice(names)
        donor = rng.randrange(overlay.n_rows)
        write(row, column, overlay.cell(donor, column))
    # the same-value write: the overlay records it as an edit, the
    # contents do not change
    row = rng.randrange(overlay.n_rows)
    column = rng.choice(names)
    write(row, column, overlay.cell(row, column))


def rules_of(result):
    return [pfd.describe() for pfd in result.pfds]


def decisions_of(result):
    return [(r.lhs, r.rhs, r.accepted, r.coverage) for r in result.reports]


def report_fields(result, table):
    """Every report field: each constant tuple's pattern, RHS, support,
    agreement, source token and position, values and covered and
    violating rows, every variable candidate's statistics."""
    return figure2_reference.report_fields(result, table)


def reference_rediscovery(config, table, relation=None):
    """Full re-discovery through the literal Figure 2 loop."""
    return figure2_reference.discover(table, config, relation=relation)


@pytest.mark.parametrize("store", STORES)
@pytest.mark.parametrize("name,n_rows,specs", GENERATORS, ids=lambda v: str(v))
class TestMaintenanceDifferential:
    def test_maintained_rules_identical_to_full_rediscovery(
        self, name, n_rows, specs, store
    ):
        for seed in SEEDS:
            session = make_session(name, n_rows, specs, seed, store)
            try:
                session.run_discovery()
                assert session.last_plan.shard_rows == SHARD_ROWS
                # the edit loop runs too: each re-check hands its
                # detector over
                if session.confirm_all():
                    session.run_detection()
                rng = random.Random(seed * 1000 + 7)
                for _batch in range(BATCHES_PER_SEED):
                    detected = session.state is not SessionState.DISCOVERED
                    write = session.edit_cell if detected else None
                    apply_random_batch(session.table, rng, write)
                    result = session.recheck()
                    assert session.last_plan.rule_maintenance == "incremental"
                    assert_report_equals_a_fresh_seed(session)
                    edited = session.table.materialize()
                    full = reference_rediscovery(session.config, edited, relation=name)
                    assert rules_of(result) == rules_of(full), (
                        f"maintained rules diverged (seed={seed})"
                    )
                    assert report_fields(result, edited) == report_fields(full, edited), (
                        f"maintained mining reports diverged (seed={seed})"
                    )
            finally:
                session.close()


@pytest.mark.parametrize("name,n_rows,specs", GENERATORS, ids=lambda v: str(v))
def test_reference_maintainer_sequence(name, n_rows, specs):
    """A maintainer driven directly, outside the session, matches full
    re-discovery through the reference and through the kernels after
    every batch."""
    config = make_config("memory")
    table = dirty_table(name, n_rows, specs, 11)
    view = ShardedTable.from_table(table, SHARD_ROWS)
    maintainer = RuleMaintainer(config)
    maintainer.seed(view, PfdDiscoverer(config).discover_with_report(view))
    overlay = ShardOverlay(view)
    rng = random.Random(11)
    for _batch in range(BATCHES_PER_SEED):
        apply_random_batch(overlay, rng)
        result = maintainer.maintain(overlay.as_sharded())
        edited = overlay.materialize()
        for full in (
            reference_rediscovery(config, edited),
            PfdDiscoverer(config).discover_with_report(edited),
        ):
            assert rules_of(result) == rules_of(full)
            assert report_fields(result, edited) == report_fields(full, edited)


@pytest.mark.parametrize("name,n_rows,specs", GENERATORS, ids=lambda v: str(v))
def test_maintain_declines_an_unseeded_baseline_and_another_base(name, n_rows, specs):
    """``maintain`` raises ``DiscoveryError`` before a seed and for a view
    of another base — even one holding the same rows — and leaves the
    baseline as it was: its own seal still maintains."""
    config = make_config("memory")
    table = dirty_table(name, n_rows, specs, 11)
    view = ShardedTable.from_table(table, SHARD_ROWS)
    overlay = ShardOverlay(view)
    column = table.column_names()[1]
    overlay.set_cell(0, column, overlay.cell(1, column))
    maintainer = RuleMaintainer(config)
    with pytest.raises(DiscoveryError, match="no baseline"):
        maintainer.maintain(overlay.as_sharded())
    maintainer.seed(view, PfdDiscoverer(config).discover_with_report(view))
    other = ShardOverlay(ShardedTable.from_table(table, SHARD_ROWS))
    other.set_cell(0, column, overlay.cell(1, column))
    for foreign in (other.as_sharded(), other.base):
        with pytest.raises(DiscoveryError, match="not a seal"):
            maintainer.maintain(foreign)
    result = maintainer.maintain(overlay.as_sharded())
    full = reference_rediscovery(config, overlay.materialize())
    assert rules_of(result) == rules_of(full)


def fail_one_recheck(session, monkeypatch):
    """Make one re-check raise inside the rule maintainer: the session
    keeps its rules and drops the maintainer, so the next re-check
    re-discovers in full."""

    def failing(self, view, relation=None):
        raise RuntimeError("injected maintenance failure")

    with monkeypatch.context() as patch:
        patch.setattr(RuleMaintainer, "maintain", failing)
        with pytest.raises(RuntimeError, match="injected"):
            session.recheck()
    assert session.plan_recheck().rule_maintenance == "full"


@pytest.mark.parametrize(
    "name,n_rows,specs", GENERATORS[:1], ids=lambda v: str(v)
)
class TestMaintenanceFallbacks:
    """A session re-checks in full when it has no maintainer — after a
    failed re-check dropped it; the fallback is recorded on the plan,
    not warned: the user requested nothing the fallback could
    override."""

    def test_a_failed_recheck_falls_back_to_full(self, name, n_rows, specs, monkeypatch):
        session = make_session(name, n_rows, specs, 3, "memory")
        try:
            session.run_discovery()
            session.table.set_cell(4, session.table.column_names()[1], "X4")
            fail_one_recheck(session, monkeypatch)
            result = session.recheck()
            assert session.last_plan.rule_maintenance == "full"
            assert any(
                "no maintainable rule baseline" in d
                for d in session.last_plan.decisions
            )
            full = PfdDiscoverer(session.config).discover_with_report(
                session.table.materialize(), relation=name
            )
            assert rules_of(result) == rules_of(full)
            # the fallback re-seeded: the next cell-edit batch maintains
            session.table.set_cell(1, session.table.column_names()[0], "X1")
            result = session.recheck()
            assert session.last_plan.rule_maintenance == "incremental"
            full = PfdDiscoverer(session.config).discover_with_report(
                session.table.materialize(), relation=name
            )
            assert rules_of(result) == rules_of(full)
        finally:
            session.close()

    @pytest.mark.parametrize("store", ["memory", "spill"])
    def test_edits_after_a_full_fallback_maintain(
        self, name, n_rows, specs, store, monkeypatch
    ):
        """After a failed re-check, the full re-discovery re-seeds the
        baseline on a seal that already holds edits: later cell edits,
        in shards with and without earlier edits, then maintain
        incrementally, each cell at its base row."""
        session = make_session(name, n_rows, specs, 3, store)

        def assert_matches_full_run():
            edited = session.table.materialize()
            full = PfdDiscoverer(session.config).discover_with_report(
                edited, relation=name
            )
            assert rules_of(session.discovery) == rules_of(full)
            assert decisions_of(session.discovery) == decisions_of(full)
            assert session.state is SessionState.DETECTED
            expected = detection_reference.detect(edited, session.confirmed_pfds())
            assert (
                session.violations.canonical_violations()
                == expected.canonical_violations()
            )
            assert_report_equals_a_fresh_seed(session)

        try:
            session.run_discovery()
            session.confirm_all()
            session.run_detection()
            overlay = session.table
            last = overlay.n_rows - 1
            rng = random.Random(17)

            def edit(cells):
                for row, column in cells:
                    donor = rng.randrange(overlay.n_rows)
                    session.edit_cell(row, column, overlay.cell(donor, column))

            edit([(5, "city"), (40, "state"), (last, "zip")])  # shards 0, 2 and the last
            fail_one_recheck(session, monkeypatch)
            session.recheck()
            assert session.last_plan.rule_maintenance == "full"
            assert_matches_full_run()

            # rows 3 and 6 share shard 0 with an earlier edit, 41 shard 2,
            # 20 is in a shard no edit touched yet
            edit([
                (3, "city"), (6, "state"), (41, "city"), (41, "state"),
                (last, "state"), (20, "city"), (5, "zip"),
            ])
            session.edit_cell(6, "city", "Nowhere")
            session.recheck()
            assert session.last_plan.rule_maintenance == "incremental"
            assert_matches_full_run()
        finally:
            session.close()

    def test_table_load_rechecks_incrementally(self, name, n_rows, specs):
        """A Table load is cut into shards at load like any upload, so
        its re-check patches the encodings and maintains the rules."""
        table = dirty_table(name, n_rows, specs, 3)
        session = AnmatSession(
            dataset_name=name,
            config=DiscoveryConfig(min_coverage=0.4, allowed_violation_ratio=0.2),
        )
        session.load_table(table)
        session.run_discovery()
        assert session._maintainer.seeded
        session.table.set_cell(0, table.column_names()[0], "X0")
        result = session.recheck()
        assert session.last_plan.rule_maintenance == "incremental"
        full = reference_rediscovery(
            session.config, session.table.materialize(), relation=name
        )
        assert rules_of(result) == rules_of(full)
        assert decisions_of(result) == decisions_of(full)
        session.close()

    def test_default_session_maintains_then_falls_back(
        self, name, n_rows, specs, monkeypatch
    ):
        """With no config set at all, a sharded upload's re-check
        maintains incrementally after a cell edit and falls back to full
        re-discovery after a failed re-check."""
        table = dirty_table(name, n_rows, specs, 3)
        with AnmatSession(dataset_name=name) as session:
            session.load_table(ShardedTable.from_table(table, SHARD_ROWS))
            session.run_discovery()
            session.table.set_cell(0, table.column_names()[1], "X0")
            result = session.recheck()
            assert session.last_plan.rule_maintenance == "incremental"
            full = PfdDiscoverer(session.config).discover_with_report(
                session.table.materialize(), relation=name
            )
            assert rules_of(result) == rules_of(full)
            session.table.set_cell(2, table.column_names()[0], "X2")
            fail_one_recheck(session, monkeypatch)
            result = session.recheck()
            assert session.last_plan.rule_maintenance == "full"
            full = PfdDiscoverer(session.config).discover_with_report(
                session.table.materialize(), relation=name
            )
            assert rules_of(result) == rules_of(full)

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
                detection_reference.detect(session.table.materialize(), confirmed)
                .canonical_violations()
            )
            assert session.violations.canonical_violations() == expected
            assert_report_equals_a_fresh_seed(session)
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


@pytest.mark.parametrize("store", ["memory", "spill"])
def test_recheck_carries_clean_encodings_and_pair_groups(store):
    """A re-check hands the new view the old view's encodings of clean
    columns and the pair groups over them (the same objects, so nothing
    clean is re-encoded or regrouped) and leaves no pair groups on the
    old view.  It hands the detector over, so it groups no pair touching
    the edited column: the next detection groups those from the new
    encodings."""
    session = make_session(*GENERATORS[0], 3, store)
    try:
        session.run_discovery()
        session.confirm_all()
        session.run_detection()
        old_view = session._maintainer._view
        pairs = {(p.lhs_attribute, p.rhs_attribute) for p in session.confirmed_pfds()}
        edited = "city"
        clean = {name for pair in pairs for name in pair} - {edited}
        assert clean and any(edited in pair for pair in pairs)
        old_encodings = {
            name: old_view.encodings.get(name)
            for name in clean
        }
        old_groups = {
            pair: old_view.pair_groups.get(pair)
            for pair in pairs
        }
        rng = random.Random(5)
        for _ in range(6):
            row = rng.randrange(session.table.n_rows)
            donor = rng.randrange(session.table.n_rows)
            session.edit_cell(row, edited, session.table.cell(donor, edited))
        session.recheck()
        assert session.last_plan.rule_maintenance == "incremental"
        view = session._maintainer._view
        assert view is not old_view
        for name, encoding in old_encodings.items():
            assert encoding is not None
            assert view.encodings.get(name) is encoding
        rechecked = {(p.lhs_attribute, p.rhs_attribute) for p in session.confirmed_pfds()}
        assert any(edited in pair for pair in rechecked)
        for lhs, rhs in rechecked:
            merged = view.pair_groups.get((lhs, rhs))
            if edited in (lhs, rhs):
                assert merged is None, (lhs, rhs)
            else:
                assert merged is old_groups[(lhs, rhs)]
        assert old_view.pair_groups == {}
        assert_report_equals_a_fresh_seed(session)
        session.run_detection()
        assert_pair_groups_match_a_fresh_build(view, rechecked)
    finally:
        session.close()


def assert_pair_groups_match_a_fresh_build(view, pairs):
    """Each pair's merged pair groups on ``view`` equal the scalar
    ``extract_pair_groups`` over the view's flat columns: same keys, outer
    and inner key order, and ascending row lists."""
    from repro.sharding import extract_pair_groups

    for lhs, rhs in pairs:
        merged = view.pair_groups.get((lhs, rhs))
        assert merged is not None, (lhs, rhs)
        fresh = extract_pair_groups(
            column_of(view, lhs), column_of(view, rhs), 0
        )
        assert merged.groups == fresh
        assert list(merged.groups) == list(fresh)
        for value, by_rhs in fresh.items():
            assert list(merged.groups[value]) == list(by_rhs)
            for rows in merged.groups[value].values():
                assert list(rows) == sorted(rows)
        assert merged.sorted_values == sorted(fresh)


def rule_pairs(session):
    return {(p.lhs_attribute, p.rhs_attribute) for p in session.confirmed_pfds()}


def recheck_and_compare(session, edited):
    """Re-check, which groups only the pairs of the rules it seeds (those
    whose name shifted) and leaves the kept report equal to a fresh
    seed's; then detect, and hold the new view's pair groups against a
    fresh build and the session's violations against a monolithic
    detection over the edited table."""
    old_view = session._maintainer._view
    held = {(pfd.name, pfd.content_key()) for pfd in session._incremental.pfds}
    session.recheck()
    assert session.last_plan.rule_maintenance == "incremental"
    pairs = rule_pairs(session)
    view = session._maintainer._view
    changed = {
        name for name in edited if column_of(view, name) != column_of(old_view, name)
    }
    assert any(changed & set(pair) for pair in pairs), "no pair was regrouped"
    seeded = {
        (pfd.lhs_attribute, pfd.rhs_attribute)
        for pfd in session.confirmed_pfds()
        if (pfd.name, pfd.content_key()) not in held
    }
    for pair in pairs:
        grouped = pair in seeded or not changed & set(pair)
        assert (pair in view.pair_groups) is grouped, pair
    assert_report_equals_a_fresh_seed(session)
    session.run_detection()
    assert_pair_groups_match_a_fresh_build(view, pairs)
    expected = (
        detection_reference.detect(session.table.materialize(), session.confirmed_pfds())
        .canonical_violations()
    )
    assert session.violations.canonical_violations() == expected
    return view


def detected_session(store, seed=3):
    session = make_session(*GENERATORS[0], seed, store)
    session.run_discovery()
    session.confirm_all()
    session.run_detection()
    return session


@pytest.mark.parametrize("seed", SEEDS)
def test_recheck_regroups_edits_in_random_shard_order(seed):
    """Two batches of edits to two columns, written in a random row
    order that hops between shards: each re-check's pair groups equal a
    fresh build over the edited view."""
    session = detected_session("memory", seed)
    try:
        rng = random.Random(seed)
        overlay = session.table
        for _batch in range(2):
            rows = rng.sample(range(overlay.n_rows), 10)
            for row in rows:
                column = rng.choice(["city", "state"])
                donor = rng.randrange(overlay.n_rows)
                session.edit_cell(row, column, overlay.cell(donor, column))
            recheck_and_compare(session, {"city", "state"})
    finally:
        session.close()


@pytest.mark.parametrize("store", ["memory", "spill"])
def test_recheck_after_an_edit_removes_a_distinct_value(store):
    """Rewriting every row of one city to another city removes that
    value from the regrouped pairs, as an outer key (city -> state) and
    as an inner key (zip -> city)."""
    session = detected_session(store)
    try:
        table = session.table.materialize()
        cities = table.column("city")
        counts = Counter(cities)
        gone, kept = sorted(counts, key=lambda value: (counts[value], value))[:2]
        for row, value in enumerate(cities):
            if value == gone:
                session.edit_cell(row, "city", kept)
        view = recheck_and_compare(session, {"city"})
        assert gone not in column_of(view, "city")
        for lhs, rhs in rule_pairs(session):
            groups = view.pair_groups[(lhs, rhs)].groups
            if lhs == "city":
                assert gone not in groups
            if rhs == "city":
                assert all(gone not in by_rhs for by_rhs in groups.values())
    finally:
        session.close()


@pytest.mark.parametrize("store", ["memory", "spill"])
def test_recheck_after_an_edit_replaces_every_rhs_of_a_group(store):
    """Giving every row of the largest city one state that none of them
    held leaves that city's (city -> state) group with the new state as
    its only inner key, holding all the city's rows in order."""
    session = detected_session(store)
    try:
        table = session.table.materialize()
        rows_of = {}
        for row, city in enumerate(table.column("city")):
            rows_of.setdefault(city, []).append(row)
        target = max(rows_of, key=lambda city: (len(rows_of[city]), city))
        members = rows_of[target]
        assert len(members) > 1
        held = {table.cell(row, "state") for row in members}
        state = min(set(table.column("state")) - held)
        for row in members:
            session.edit_cell(row, "state", state)
        view = recheck_and_compare(session, {"state"})
        groups = view.pair_groups[("city", "state")].groups
        assert list(groups[target]) == [state]
        assert list(groups[target][state]) == members
    finally:
        session.close()


def test_rhs_only_batch_reverifies_nothing(monkeypatch):
    """A batch that swaps ``state`` values between rows — no value
    appears or vanishes, no first appearance moves — patches the pair
    counts of every candidate over ``state`` and re-tokenizes,
    re-verifies and re-generalizes nothing: ``zip -> state`` keeps its
    clean LHS entries' verdicts and variable pattern.  The plan records
    the work."""
    import repro.kernels.mine as mine

    session = make_session(*GENERATORS[0], 3, "memory")
    try:
        session.run_discovery()
        states = session.table.materialize().column("state")
        first = {}
        for row, value in enumerate(states):
            first.setdefault(value, row)
        later = [row for row in range(len(states)) if first[states[row]] != row]
        one = later[0]
        other = next(row for row in later if states[row] != states[one])
        calls = []
        for name in ("batch_tokenize", "generalize", "contains_token_pattern",
                     "token_constraint_pattern"):
            original = getattr(mine, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(mine, name, counted)
        session.table.set_cell(one, "state", states[other])
        session.table.set_cell(other, "state", states[one])
        result = session.recheck()
        assert session.last_plan.rule_maintenance == "incremental"
        assert calls == []
        touching = [c for c in session.discovery.reports if "state" in (c.lhs, c.rhs)]
        assert any(c.lhs == "zip" and c.rhs == "state" for c in touching)
        assert (
            f"mining state: {len(touching)} candidates patched, 0 built fresh, "
            f"{len(result.reports) - len(touching)} unchanged; "
            "0 inverted-list entries re-verified"
        ) in session.last_plan.decisions
        edited = session.table.materialize()
        full = reference_rediscovery(session.config, edited, relation=GENERATORS[0][0])
        assert report_fields(result, edited) == report_fields(full, edited)
    finally:
        session.close()
