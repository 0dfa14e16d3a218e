"""Tests for incremental violation maintenance under table updates.

The correctness anchor is randomized equivalence: any sequence of cell
edits applied through an :class:`IncrementalDetector` must yield a
report whose canonical violations are identical to a from-scratch run
of the literal Section 3 loop (``detection_reference.detect``) on the
final table.  The detector maintains a :class:`ShardOverlay`; the
sequences run on overlays cut into shards of a few rows, so edits land
across shards.  A property test adds small tables with big blocks and
few RHS values, mixes in batches of edits made on the overlay directly
(which the detector catches up on by re-seeding), and checks the
report's order too.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.constrained import constrained_prefix
from repro.datagen import (
    generate_fullname_gender,
    generate_phone_state,
    generate_zip_city_state,
)
from repro.dataset.table import Table
from repro.detection import IncrementalDetector
from repro.detection.violation import ViolationReport
from repro.discovery import PfdDiscoverer
from repro.patterns import parse_pattern
from repro.pfd.pfd import PFD
from repro.pfd.tableau import WILDCARD

import detection_reference
from detection_reference import assert_matches_pairwise, violating_pairs
from repro.errors import TableError
from repro.sharding import ShardedTable, ShardOverlay


GENERATORS = {
    "zip_city_state": generate_zip_city_state,
    "phone_state": generate_phone_state,
    "fullname_gender": generate_fullname_gender,
}


@pytest.fixture(scope="module")
def rulesets():
    """dataset name → (pristine table, discovered PFDs) for 3 datasets."""
    out = {}
    for name, generate in GENERATORS.items():
        table = generate(n_rows=120, seed=5).table
        out[name] = (table, PfdDiscoverer().discover(table))
    return out


def overlay_of(table: Table, shard_rows: int = 32) -> ShardOverlay:
    """A fresh overlay over ``table`` cut into ``shard_rows``-row shards."""
    return ShardOverlay(ShardedTable.from_table(table, shard_rows))


@pytest.fixture
def make_rng():
    """Seeded RNG factory so every randomized sequence is reproducible."""
    return lambda seed: random.Random(seed)


def random_mutation(rng, incremental: IncrementalDetector, step: int) -> None:
    """Apply one random edit through the detector: one cell, or a whole
    row rewritten cell by cell with another row's values."""
    table = incremental.table
    columns = table.column_names()
    if rng.random() < 0.75:
        column = rng.choice(columns)
        # usually merge into an existing value (exercises block merges),
        # sometimes introduce a never-seen one (block splits / new
        # blocks), occasionally an empty string (the adversarial value
        # for RHS grouping and describe())
        roll = rng.random()
        if roll < 0.65:
            value = rng.choice(table.column_ref(column))
        elif roll < 0.9:
            value = f"novel-{step}"
        else:
            value = ""
        incremental.set_cell(rng.randrange(table.n_rows), column, value)
    else:
        row, donor = rng.randrange(table.n_rows), rng.randrange(table.n_rows)
        for column in columns:
            incremental.set_cell(row, column, table.cell(donor, column))


def assert_equivalent(incremental: IncrementalDetector, pfds, context: str) -> None:
    full = detection_reference.detect(incremental.table.materialize(), pfds)
    got = incremental.report()
    assert got.n_rows == full.n_rows, context
    assert got.canonical_violations() == full.canonical_violations(), context


class TestRandomizedEquivalence:
    """Property-style: 70 random mutation sequences × 3 datasets (210
    sequences), each checked against full re-detection at the end."""

    @pytest.mark.parametrize("dataset", sorted(GENERATORS))
    @pytest.mark.parametrize("seed", range(70))
    def test_mutation_sequence_matches_full_redetection(
        self, rulesets, make_rng, dataset, seed
    ):
        pristine, pfds = rulesets[dataset]
        table = overlay_of(pristine)
        rng = make_rng(seed)
        incremental = IncrementalDetector(table, pfds)
        for step in range(8):
            random_mutation(rng, incremental, step)
        assert_equivalent(incremental, pfds, f"{dataset} seed={seed}")

    @pytest.mark.parametrize("dataset", sorted(GENERATORS))
    def test_equivalence_after_every_single_mutation(
        self, rulesets, make_rng, dataset
    ):
        pristine, pfds = rulesets[dataset]
        table = overlay_of(pristine)
        rng = make_rng(99)
        incremental = IncrementalDetector(table, pfds)
        for step in range(25):
            random_mutation(rng, incremental, step)
            assert_equivalent(incremental, pfds, f"{dataset} step={step}")

    @pytest.mark.parametrize("shard_rows", [1, 3, None], ids=["1", "3", "n"])
    @pytest.mark.parametrize("dataset", sorted(GENERATORS))
    @pytest.mark.parametrize("seed", range(10))
    def test_mutation_sequence_matches_every_shard_size(
        self, rulesets, make_rng, dataset, seed, shard_rows
    ):
        # one-row shards, three-row shards and one shard of every row:
        # the same sequence's edits land in one shard or spread over many
        pristine, pfds = rulesets[dataset]
        table = overlay_of(pristine, shard_rows or pristine.n_rows)
        rng = make_rng(1000 + seed)
        incremental = IncrementalDetector(table, pfds)
        for step in range(8):
            random_mutation(rng, incremental, step)
        assert_equivalent(
            incremental, pfds, f"{dataset} seed={seed} shard_rows={shard_rows}"
        )


class TestMutationAPI:
    @pytest.fixture
    def zip_setup(self, rulesets):
        pristine, pfds = rulesets["zip_city_state"]
        table = overlay_of(pristine)
        return table, pfds, IncrementalDetector(table, pfds)

    @pytest.fixture
    def rebuilds(self, monkeypatch):
        """The detectors re-seeded after the fixture was set up."""
        calls = []
        real = IncrementalDetector._rebuild

        def counting(self):
            calls.append(self)
            real(self)

        monkeypatch.setattr(IncrementalDetector, "_rebuild", counting)
        return calls

    def test_initial_report_matches_batch_detector(self, zip_setup):
        table, pfds, incremental = zip_setup
        full = detection_reference.detect(table.materialize(), pfds)
        assert incremental.report().canonical_violations() == full.canonical_violations()

    def test_set_cell_through_detector(self, zip_setup):
        table, pfds, incremental = zip_setup
        incremental.set_cell(0, "city", "Nowhereville")
        assert table.cell(0, "city") == "Nowhereville"
        assert_equivalent(incremental, pfds, "set_cell")

    def test_repairing_a_suspect_cell_shrinks_the_report(self, zip_setup):
        table, pfds, incremental = zip_setup
        from repro.detection.repair import suggest_repairs

        before = incremental.report()
        suggestion = suggest_repairs(before)[0]
        incremental.set_cell(
            suggestion.row, suggestion.attribute, suggestion.suggested_value
        )
        after = incremental.report()
        assert len(after) < len(before)
        assert_equivalent(incremental, pfds, "repair")

    def test_refresh_catches_up_on_direct_mutations(self, zip_setup):
        table, pfds, incremental = zip_setup
        table.set_cell(3, "city", "Elsewhere")
        table.set_cell(2, "zip", table.cell(0, "zip"))
        table.set_cell(2, "state", "")
        incremental.refresh()
        assert_equivalent(incremental, pfds, "direct mutations")

    def test_direct_mutations_reseed_once_at_the_next_report(self, zip_setup, rebuilds):
        table, pfds, incremental = zip_setup
        assert rebuilds == []
        table.set_cell(3, "city", "Elsewhere")
        table.set_cell(2, "zip", table.cell(0, "zip"))
        table.set_cell(2, "state", "")
        # a detector behind the overlay leaves its state for the re-seed
        incremental.set_cell(5, "city", "Elsewhere")
        assert rebuilds == []
        report = incremental.report()
        assert len(rebuilds) == 1
        full = detection_reference.detect(table.materialize(), pfds)
        assert report.canonical_violations() == full.canonical_violations()
        # back in sync: the next edit updates the state in place
        incremental.set_cell(1, "city", table.cell(0, "city"))
        assert_equivalent(incremental, pfds, "after the re-seed")
        assert len(rebuilds) == 1

    def test_mutations_through_the_detector_never_reseed(self, zip_setup, rebuilds):
        table, pfds, incremental = zip_setup
        assert rebuilds == []
        version = table.version
        incremental.set_cell(3, "city", "Elsewhere")
        incremental.set_cell(3, "city", "Elsewhere")  # the value it holds
        assert table.version == version + 2
        incremental.set_cell(table.n_rows - 1, "state", "ZZ")
        incremental.set_cell(2, "zip", table.cell(0, "zip"))
        incremental.set_cell(7, "zip", "00000")
        assert_equivalent(incremental, pfds, "through the detector")
        assert rebuilds == []

    def test_out_of_range_set_cell_raises_and_changes_nothing(self, zip_setup, rebuilds):
        table, pfds, incremental = zip_setup
        before = incremental.report().violations
        version = table.version
        for row in (-1, table.n_rows):
            with pytest.raises(TableError, match="out of range"):
                incremental.set_cell(row, "city", "Nowhereville")
        assert table.version == version
        assert incremental.report().violations == before
        assert rebuilds == []
        assert_equivalent(incremental, pfds, "rejected edits")

    def test_strategy_argument_is_gone(self, zip_setup):
        table, pfds, _ = zip_setup
        with pytest.raises(TypeError, match="strategy"):
            IncrementalDetector(table, pfds, strategy="scan")

    def test_maintained_report_matches_the_literal_pairwise_check(self, zip_setup):
        # the maintained variable violations agree with the paper's naive
        # pair enumeration, before and after an edit
        table, pfds, incremental = zip_setup
        variable = [pfd for pfd in pfds if pfd.is_variable]
        assert variable
        for edit in (None, (0, "city", "Bruteville")):
            if edit is not None:
                incremental.set_cell(*edit)
            report = incremental.report()
            snapshot = table.materialize()
            for pfd in variable:
                violations = [v for v in report if v.pfd_name == pfd.name]
                assert_matches_pairwise(violations, violating_pairs(snapshot, pfd))
        assert_equivalent(incremental, pfds, "edit")

    def test_report_n_rows_and_seed_comparisons(self, zip_setup):
        table, pfds, incremental = zip_setup
        report = incremental.report()
        assert report.n_rows == table.n_rows
        # counted once, at seed time, the same at any cut
        seeded = report.comparisons
        one_row_shards = ShardOverlay(ShardedTable.from_table(table.materialize(), 1))
        assert IncrementalDetector(one_row_shards, pfds).report().comparisons == seeded
        assert seeded > 0
        incremental.set_cell(0, "city", "Nowhereville")
        assert incremental.report().comparisons == seeded


class TestHandOver:
    """``retained(pfds)``: the rules a detector holds under the same
    content and name keep their evaluators, the others are seeded, and
    the new detector's report is a fresh seed's, as a list."""

    @pytest.fixture
    def seeded(self, monkeypatch):
        """The names of the rules seeded one by one."""
        names = []
        real = IncrementalDetector._seeded

        def counting(self, view, pfd):
            names.append(pfd.name)
            return real(self, view, pfd)

        monkeypatch.setattr(IncrementalDetector, "_seeded", counting)
        return names

    @pytest.fixture
    def zip_rules(self, rulesets):
        pristine, pfds = rulesets["zip_city_state"]
        assert len(pfds) >= 4
        return overlay_of(pristine), pfds

    @staticmethod
    def assert_fresh(detector):
        fresh = IncrementalDetector(detector.table, detector.pfds).report()
        assert detector.report().violations == fresh.violations

    def test_held_rules_are_taken_over_and_the_rest_seeded(self, zip_rules, seeded):
        table, pfds = zip_rules
        old = IncrementalDetector(table, pfds[:3])
        held = {(ev.pfd_name, ev.rule_index): ev for ev in old._rules}
        seeded.clear()
        new = old.retained([pfds[3], pfds[1], pfds[2]])
        assert seeded == [pfds[3].name]
        # evaluator order follows the new rule list
        assert [ev.pfd_name for ev in new._rules] == [
            pfd.name for pfd in (pfds[3], pfds[1], pfds[2]) for _ in pfd.tableau
        ]
        for evaluator in new._rules:
            if evaluator.pfd_name != pfds[3].name:
                assert held[(evaluator.pfd_name, evaluator.rule_index)] is evaluator
        # the dropped rule's columns go unless a kept rule reads them
        kept = {n for pfd in pfds[1:4] for n in (pfd.lhs_attribute, pfd.rhs_attribute)}
        assert set(new._columns) == set(new._readers) == kept
        self.assert_fresh(new)

    def test_the_old_detector_is_left_as_it_was(self, zip_rules):
        table, pfds = zip_rules
        old = IncrementalDetector(table, pfds[:3])
        rules, columns = list(old._rules), dict(old._columns)
        before = list(old.report().violations)
        old.retained(pfds[1:4])
        assert old._rules == rules and old._columns == columns
        assert old.report().violations == before

    def test_a_renamed_rule_is_seeded_under_its_new_name(self, zip_rules, seeded):
        table, pfds = zip_rules
        old = IncrementalDetector(table, pfds[:2])
        data = pfds[0].to_dict()
        data["name"] = "renamed"
        renamed = PFD.from_dict(data)
        assert renamed.content_key() == pfds[0].content_key()
        seeded.clear()
        new = old.retained([renamed, pfds[1]])
        assert seeded == ["renamed"]
        assert {ev.pfd_name for ev in new._rules} == {"renamed", pfds[1].name}
        assert pfds[0].name not in {v.pfd_name for v in new.report()}
        self.assert_fresh(new)

    def test_a_detector_behind_its_table_seeds_every_rule(self, zip_rules, seeded, make_rng):
        table, pfds = zip_rules
        old = IncrementalDetector(table, pfds[:3])
        rng = make_rng(3)
        for _ in range(5):
            row = rng.randrange(table.n_rows)
            donor = rng.randrange(table.n_rows)
            table.set_cell(row, "city", table.cell(donor, "city"))
        seeded.clear()
        new = old.retained(pfds[:3])
        assert seeded == [pfd.name for pfd in pfds[:3]]
        self.assert_fresh(new)
        assert_equivalent(new, pfds[:3], "behind")

    def test_mutations_after_a_hand_over_match_batch_detection(self, zip_rules, make_rng):
        table, pfds = zip_rules
        detector = IncrementalDetector(table, pfds[:3])
        rng = make_rng(7)
        for round_number, rules in enumerate([pfds[1:4], pfds[:2] + pfds[3:4], pfds]):
            for step in range(6):
                random_mutation(rng, detector, step)
            detector = detector.retained(rules)
            self.assert_fresh(detector)
            assert_equivalent(detector, rules, f"round {round_number}")


class TestHandBuilt:
    def test_variable_rule_block_merge_and_split(self):
        # Hand-built λ5-style check: editing the zip prefix moves a row
        # between blocks; the violations follow it.
        table = overlay_of(
            Table.from_rows(
                ["zip", "city"],
                [
                    ["90001", "Los Angeles"],
                    ["90002", "Los Angeles"],
                    ["90003", "Chicago"],  # violates within the 900 block
                    ["10001", "New York"],
                    ["10002", "New York"],
                ],
            ),
            2,
        )
        from repro.constrained import constrained_prefix
        from repro.patterns import parse_pattern

        pfd = PFD.variable(
            "zip",
            "city",
            constrained_prefix(3, parse_pattern("\\D{2}"), head=parse_pattern("\\D{3}")),
            name="lambda5",
        )
        incremental = IncrementalDetector(table, [pfd])
        report = incremental.report()
        assert [v.suspect_cell for v in report] == [(2, "city")]
        # the edit moves the odd row into the 100 block, where it is the
        # minority again — the violation follows it with a new witness
        incremental.set_cell(2, "zip", "10003")
        report = incremental.report()
        assert [v.suspect_cell for v in report] == [(2, "city")]
        assert report.violations[0].expected_value == "New York"
        assert_equivalent(incremental, [pfd], "block move")
        # and repairing the city clears everything
        incremental.set_cell(2, "city", "New York")
        assert incremental.report().is_empty()
        assert_equivalent(incremental, [pfd], "repaired")


# -- property: any mutation sequence, big blocks, few RHS values ---------------

ZIPS = ("90001", "90002", "90013", "10001", "10002")
VALUES = {
    "zip": ZIPS + ("99999", "", "9001"),
    "city": ("A", "B", "C", "", "Zz"),
    "state": ("X", "Y", "Q"),
}
COLUMNS = ("zip", "city", "state")


def property_pfds():
    """Variable rules with few, big blocks and 2–3 RHS values (majority
    ties and flips, witnesses leaving their group), constant rules, and
    two PFDs sharing a name (their violations coincide)."""
    prefix = constrained_prefix(3, parse_pattern("\\D{2}"), head=parse_pattern("\\D{3}"))
    mixed = PFD.constant("zip", "state", [{"zip": "100\\D{2}", "state": "Y"}], name="mixed")
    mixed.add_rule({"zip": prefix, "state": WILDCARD})
    return [
        PFD.variable("zip", "city", prefix, name="prefix"),
        PFD.variable("city", "state", "\\LU", name="letter"),
        mixed,
        PFD.constant("zip", "city", [{"zip": "900\\D{2}", "city": "A"}], name="dup"),
        PFD.constant("zip", "city", [{"zip": "9\\D{4}", "city": "A"}], name="dup"),
    ]


def expected_report_order(table, pfds):
    """The maintained report's order from batch runs: evaluator order
    (PFDs, then tableau rules), each rule's violations by ``(rows,
    suspect cell)``, the first of each identity key kept."""
    ordered = []
    for pfd in pfds:
        by_rule = {}
        for violation in detection_reference.detect(table, [pfd]):
            by_rule.setdefault(violation.rule_index, []).append(violation)
        for rule_index in range(len(pfd.tableau)):
            ordered.extend(
                sorted(by_rule.get(rule_index, []), key=lambda v: (v.rows, v.suspect_cell))
            )
    seen, out = set(), []
    for violation in ordered:
        key = ViolationReport().identity_key(violation)
        if key not in seen:
            seen.add(key)
            out.append(violation)
    return out


def _row_strategy():
    return st.tuples(*(st.sampled_from(VALUES[column]) for column in COLUMNS))


def _mutation_strategy():
    return st.one_of(
        st.tuples(
            st.just("set"),
            st.integers(0, 63),
            st.sampled_from(COLUMNS),
            st.integers(0, len(VALUES["zip"]) - 1),
        ),
        st.tuples(st.just("row"), st.integers(0, 63), _row_strategy()),
    )


def _apply(target, mutation) -> None:
    """One edit through ``target`` (the detector or the table): a cell,
    or every cell of a row; row indexes wrap around the table."""
    table = target.table if isinstance(target, IncrementalDetector) else target
    if table.n_rows == 0:
        return
    if mutation[0] == "set":
        _, row, column, pick = mutation
        values = VALUES[column]
        target.set_cell(row % table.n_rows, column, values[pick % len(values)])
    else:
        _, row, values = mutation
        for column, value in zip(COLUMNS, values):
            target.set_cell(row % table.n_rows, column, value)


def _check(incremental, pfds, context):
    snapshot = incremental.table.materialize()
    got = incremental.report()
    full = detection_reference.detect(snapshot, pfds)
    assert got.canonical_violations() == full.canonical_violations(), context
    assert got.violations == expected_report_order(snapshot, pfds), context


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    rows=st.lists(_row_strategy(), min_size=0, max_size=14),
    steps=st.lists(
        st.one_of(
            _mutation_strategy(),
            st.tuples(st.just("refresh"), st.lists(_mutation_strategy(), max_size=4)),
        ),
        max_size=10,
    ),
    small_shards=st.booleans(),
)
def test_property_any_mutation_sequence_matches_batch_detection(rows, steps, small_shards):
    """After every step — an edit through the detector, or a batch of
    direct overlay edits caught up by ``refresh()`` — the maintained
    report equals batch detection canonically, in the stated order."""
    table = Table.from_rows(list(COLUMNS), [list(row) for row in rows])
    table = overlay_of(table, 3 if small_shards else max(table.n_rows, 1))
    pfds = property_pfds()
    incremental = IncrementalDetector(table, pfds)
    _check(incremental, pfds, "seed")
    for number, step in enumerate(steps):
        if step[0] == "refresh":
            for mutation in step[1]:
                _apply(table, mutation)
            incremental.refresh()
        else:
            _apply(incremental, step)
        _check(incremental, pfds, f"step {number}: {step}")
