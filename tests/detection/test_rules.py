"""Tests for the rule-evaluation engine.

Every detection — the table detector and the session's incremental
detector (seeded on shards, then maintained under edits) — emits
violations through the evaluators in :mod:`repro.detection.rules`.  The
adversarial suite here drives the cases where their semantics are most
likely to be wrong: majority ties inside blocks, empty-string RHS
values, and edit sequences that shrink a block below two rows and
regrow it, asserting ``canonical_violations()`` equality between the
literal per-row Section 3 loop (``detection_reference``), the table
detector, the incremental detector seeded on one-row shards and the one
maintained over two-row shards, and, for variable rules, agreement with
the literal pairwise check.
"""

import pytest

from repro.constrained import constrained_prefix
from repro.dataset.table import Table
from repro.dataset.rowids import row_ids
from repro.detection import ErrorDetector, IncrementalDetector
from repro.detection.rules import (
    ConstantRuleEvaluator,
    VariableRuleEvaluator,
    as_constrained,
    elect_expected_value,
    majority_value,
    make_rule_evaluator,
)
from repro.errors import DetectionError
from repro.patterns import parse_pattern
from repro.perf.memo import MatchMemo
from repro.pfd.pfd import PFD
from repro.pfd.tableau import WILDCARD
from repro.sharding import ShardedTable, ShardOverlay

import detection_reference
from detection_reference import assert_matches_pairwise, violating_pairs


def zip_city_pfd() -> PFD:
    """λ5-style variable rule: 3-digit zip prefix determines the city."""
    return PFD.variable(
        "zip",
        "city",
        constrained_prefix(3, parse_pattern("\\D{2}"), head=parse_pattern("\\D{3}")),
        name="lambda5",
    )


def overlay_of(table: Table) -> ShardOverlay:
    """An overlay over ``table`` cut into two-row shards."""
    return ShardOverlay(ShardedTable.from_table(table, 2))


def assert_all_paths_agree(table: Table, pfds, context: str):
    """literal detection loop == table detector == incremental seeded on
    one-row shards == incremental over two-row shards, canonically, and
    every variable rule agrees with the literal pairwise check; returns
    the agreed canonical violation list for further assertions."""
    report = detection_reference.detect(table, pfds)
    reference = report.canonical_violations()
    table_detector = ErrorDetector(table).detect_all(pfds)
    assert table_detector.canonical_violations() == reference, f"{context}: table diverged"
    sharded = IncrementalDetector(
        ShardOverlay(ShardedTable.from_table(table, 1)), pfds
    ).report()
    assert sharded.canonical_violations() == reference, f"{context}: sharded diverged"
    incremental = IncrementalDetector(overlay_of(table), pfds)
    assert incremental.report().canonical_violations() == reference, (
        f"{context}: incremental diverged"
    )
    for pfd in pfds:
        if pfd.is_variable:
            violations = [v for v in report if v.pfd_name == pfd.name]
            assert_matches_pairwise(violations, violating_pairs(table, pfd))
    return reference


class TestEvaluatorFactory:
    def test_dispatch_on_rhs_cell(self):
        constant = PFD.constant(
            "zip", "city", [{"zip": "900\\D{2}", "city": "LA"}], name="c"
        )
        variable = zip_city_pfd()
        assert isinstance(
            make_rule_evaluator(constant, 0, constant.tableau[0]),
            ConstantRuleEvaluator,
        )
        assert isinstance(
            make_rule_evaluator(variable, 0, variable.tableau[0]),
            VariableRuleEvaluator,
        )

    def test_as_constrained_rejects_wildcards(self):
        with pytest.raises(DetectionError):
            as_constrained(WILDCARD)


class TestConstantRuleEvaluator:
    @pytest.fixture
    def evaluator(self):
        pfd = PFD.constant(
            "zip", "city", [{"zip": "900\\D{2}", "city": "LA"}], name="c"
        )
        return make_rule_evaluator(pfd, 0, pfd.tableau[0])

    def test_seed_counts_rhs_checks_and_flags_mismatches(self, evaluator):
        memo = MatchMemo()
        # one RHS check per value group, not per row
        assert evaluator.seed_value_groups([("LA", [0, 1]), ("NY", [2])], memo) == 2
        violations = evaluator.emit()
        assert [v.suspect_cell for v in violations] == [(2, "city")]
        assert violations[0].expected_value == "LA"
        assert violations[0].observed_value == "NY"

    def test_incremental_hooks_recheck_one_row(self, evaluator):
        memo = MatchMemo()
        # rows 0 and 1 are in scope: one RHS verdict per value group
        evaluator.seed_value_groups([("NY", [0]), ("LA", [1])], memo)
        assert [v.rows[0] for v in evaluator.emit()] == [0]
        evaluator.update_row(memo, 0, "90010", "NY", "90011", "LA")  # repaired
        assert evaluator.emit() == []
        evaluator.update_row(memo, 2, "10012", "SF", "90012", "SF")  # into scope
        evaluator.update_row(memo, 3, "10001", "LA", "10001", "SF")  # LHS does not match
        assert [v.rows[0] for v in evaluator.emit()] == [2]
        evaluator.update_row(memo, 1, "90011", "LA", "90011", "NY")
        evaluator.update_row(memo, 2, "90012", "SF", "10012", "SF")  # out of scope
        assert [v.rows[0] for v in evaluator.emit()] == [1]
        assert evaluator.emit()[0].suspect_cell == (1, "city")
        assert evaluator.emit()[0].observed_value == "NY"

    def test_emit_is_cached_until_a_row_changes(self, evaluator):
        memo = MatchMemo()
        evaluator.seed_value_groups([("NY", [0, 3]), ("LA", [1])], memo)
        first = evaluator.emit()
        assert evaluator.emit() is first
        # an edit that leaves the row's verdict as it was keeps the cache
        evaluator.update_row(memo, 0, "90010", "NY", "90019", "NY")
        assert evaluator.emit() is first
        evaluator.update_row(memo, 3, "90013", "NY", "90013", "LA")
        assert [v.rows[0] for v in evaluator.emit()] == [0]


class TestVariableRuleEvaluator:
    @pytest.fixture
    def evaluator(self):
        pfd = zip_city_pfd()
        return make_rule_evaluator(pfd, 0, pfd.tableau[0])

    @staticmethod
    def block_violations(evaluator, rhs_values):
        """The violations of one block holding rows ``0..n-1``."""
        groups = {}
        for row, value in enumerate(rhs_values):
            groups.setdefault(value, []).append(row)
        evaluator.seed_blocks(
            {("900",): {value: row_ids(rows) for value, rows in groups.items()}}
        )
        return evaluator.emit()

    def test_majority_witness_and_suspects(self, evaluator):
        violations = self.block_violations(evaluator, ["LA", "LA", "NY"])
        assert [v.suspect_cell for v in violations] == [(2, "city")]
        assert violations[0].rows == (0, 2)  # witness = first majority row
        assert violations[0].expected_value == "LA"

    def test_tie_breaks_lexicographically(self, evaluator):
        # equal counts: the lexicographically larger RHS value wins, so
        # the rows holding the smaller one are the suspects
        violations = self.block_violations(evaluator, ["AA", "ZZ"])
        assert [v.suspect_cell for v in violations] == [(0, "city")]
        assert violations[0].expected_value == "ZZ"
        assert majority_value({"B": [0], "A": [1]}) == "B"
        assert majority_value({"A": [0], "B": [1, 2]}) == "B"

    def test_small_and_unanimous_blocks_emit_nothing(self, evaluator):
        assert self.block_violations(evaluator, ["LA"]) == []
        assert self.block_violations(evaluator, ["LA", "LA"]) == []

    def test_seed_counts_the_rows_of_multi_row_blocks(self, evaluator):
        blocks = {
            ("900",): {"LA": row_ids([0, 2]), "NY": row_ids([1])},
            ("100",): {"NY": row_ids([3])},
        }
        assert evaluator.seed_blocks(blocks) == 3

    def test_empty_string_rhs_is_a_first_class_value(self, evaluator):
        violations = self.block_violations(evaluator, ["", "", "LA"])
        assert [v.suspect_cell for v in violations] == [(2, "city")]
        assert violations[0].expected_value == ""
        assert "expected ''" in violations[0].describe()


class TestVariableRuleHooks:
    """The count-based block state against batch emission over the same
    values, after every hook call."""

    @pytest.fixture
    def evaluator(self):
        pfd = zip_city_pfd()
        return make_rule_evaluator(pfd, 0, pfd.tableau[0])

    @staticmethod
    def seed(evaluator, memo, zips, cities):
        blocks = {}
        for row, (zip_code, city) in enumerate(zip(zips, cities)):
            key = memo.project(evaluator.constrained, zip_code)
            if key is not None:
                blocks.setdefault(key, {}).setdefault(city, row_ids()).append(row)
        evaluator.seed_blocks(blocks)

    @staticmethod
    def assert_matches_batch(evaluator, memo, zips, cities):
        batch = sorted(
            detection_reference.variable_rule_violations(
                Table(["zip", "city"], [zips, cities]), zip_city_pfd(), 0
            ),
            key=lambda v: (v.rows, v.suspect_cell),
        )
        assert evaluator.emit() == batch

    def test_seed_takes_the_blocks_over_sorted_in_place(self, evaluator):
        memo = MatchMemo()
        la = row_ids([2, 0])
        evaluator.seed_blocks({("900",): {"LA": la, "NY": row_ids([1])}})
        assert la == row_ids([0, 2])  # sorted in place, not copied
        assert [v.rows for v in evaluator.emit()] == [(0, 1)]
        evaluator.update_row(memo, 1, "90001", "NY", "90001", "LA")
        assert evaluator.emit() == []
        assert evaluator.state[("900",)].groups["LA"] is la
        assert la == row_ids([0, 1, 2])

    def test_witness_and_majority_follow_every_move(self, evaluator):
        memo = MatchMemo()
        zips = ["10001", "90001", "90002", "90003", "90004"]
        cities = ["NY", "LA", "LA", "SF", "SF"]
        self.seed(evaluator, memo, zips, cities)
        # LA/SF tie in the 900 block: SF wins, witness row 3
        assert [v.rows for v in evaluator.emit()] == [(3, 1), (3, 2)]

        def edit(row, zip_code=None, city=None):
            old_zip, old_city = zips[row], cities[row]
            zips[row] = zip_code or old_zip
            cities[row] = city or old_city
            evaluator.update_row(memo, row, old_zip, old_city, zips[row], cities[row])
            self.assert_matches_batch(evaluator, memo, zips, cities)

        edit(0, zip_code="90000", city="SF")  # a smaller row joins: new witness
        assert evaluator.emit()[0].rows == (0, 1)
        edit(0, city="LA")  # the witness leaves: majority flips to LA
        assert {v.expected_value for v in evaluator.emit()} == {"LA"}
        edit(1, city="SF")  # LA/SF tie again: the tie-break picks SF
        assert {v.expected_value for v in evaluator.emit()} == {"SF"}
        edit(3, zip_code="10002")  # the witness moves to another block
        edit(4, city="NY")  # three values, one row each
        edit(2, city="SF")  # a minority row moves between minority groups
        edit(1, zip_code="10003", city="NY")  # rows leave for the 100 block
        edit(4, zip_code="banana")  # projection None: the row leaves all blocks
        edit(4, zip_code="90009")

    def test_out_of_sync_state_is_reported(self, evaluator):
        memo = MatchMemo()
        self.seed(evaluator, memo, ["90001", "90002"], ["LA", "NY"])
        with pytest.raises(DetectionError, match="out of sync"):
            evaluator.update_row(memo, 0, "90001", "SF", "90001", "LA")


class TestElectExpectedValue:
    def test_majority_wins_with_confidence(self):
        detector_report = ErrorDetector(
            Table.from_rows(
                ["zip", "city"],
                [["90001", "LA"], ["90002", "LA"], ["90003", "NY"]],
            )
        ).detect(zip_city_pfd())
        violations = list(detector_report)
        winner, backer, confidence = elect_expected_value(violations)
        assert winner == "LA"
        assert backer in violations
        assert confidence == 1.0

    def test_tie_keeps_first_seen_and_attributes_a_voter(self):
        report = ErrorDetector(
            Table.from_rows(["zip", "city"], [["90001", "ZZ"], ["90002", "AA"]])
        ).detect(zip_city_pfd())
        # one violation: AA row suspected, expected ZZ
        winner, backer, confidence = elect_expected_value(list(report))
        assert winner == "ZZ"
        assert backer.expected_value == "ZZ"
        assert confidence == 1.0


class TestAdversarialEquivalence:
    """Batch (table and sharded) and incremental must agree on the
    cases where duplicated emitters historically drift."""

    def test_two_way_majority_tie(self):
        table = Table.from_rows(
            ["zip", "city"], [["90001", "LA"], ["90002", "NY"]]
        )
        canonical = assert_all_paths_agree(table, [zip_city_pfd()], "2-way tie")
        assert [v.suspect_cell for v in canonical] == [(0, "city")]
        assert canonical[0].expected_value == "NY"  # lexicographic tie-break

    def test_multi_way_tie_inside_a_block(self):
        table = Table.from_rows(
            ["zip", "city"],
            [
                ["90001", "LA"],
                ["90002", "NY"],
                ["90003", "LA"],
                ["90004", "NY"],
                ["90005", "Chicago"],
            ],
        )
        canonical = assert_all_paths_agree(table, [zip_city_pfd()], "multi-way tie")
        # NY wins the LA/NY tie; LA rows and the Chicago row are suspects
        assert {v.suspect_cell for v in canonical} == {
            (0, "city"), (2, "city"), (4, "city"),
        }
        assert all(v.expected_value == "NY" for v in canonical)

    def test_empty_string_rhs_values(self):
        table = Table.from_rows(
            ["zip", "city"],
            [
                ["90001", ""],
                ["90002", ""],
                ["90003", "LA"],
                ["10001", "NY"],
                ["10002", ""],
            ],
        )
        canonical = assert_all_paths_agree(table, [zip_city_pfd()], "empty RHS")
        by_suspect = {v.suspect_cell: v for v in canonical}
        # 900 block: "" is the majority, the LA row is the suspect
        assert by_suspect[(2, "city")].expected_value == ""
        # 100 block: NY/"" tie breaks to "NY" (lexicographically larger)
        assert by_suspect[(4, "city")].expected_value == "NY"

    def test_constant_rule_with_empty_string_rhs_constant(self):
        pfd = PFD.constant(
            "zip", "note", [{"zip": "900\\D{2}", "note": ""}], name="blank-note"
        )
        table = Table.from_rows(
            ["zip", "note"],
            [["90001", ""], ["90002", "junk"], ["10001", "junk"]],
        )
        canonical = assert_all_paths_agree(table, [pfd], "empty RHS constant")
        assert [v.suspect_cell for v in canonical] == [(1, "note")]
        assert canonical[0].expected_value == ""
        assert "expected ''" in canonical[0].describe()

    def test_block_shrinks_below_two_rows_and_regrows(self):
        table = overlay_of(
            Table.from_rows(
                ["zip", "city"],
                [["10001", "NY"], ["10002", "NY"], ["10003", "SF"]],
            )
        )
        pfds = [zip_city_pfd()]
        incremental = IncrementalDetector(table, pfds)

        def check(context):
            batch = assert_all_paths_agree(table.materialize(), pfds, context)
            assert incremental.report().canonical_violations() == batch, context

        check("initial")
        incremental.set_cell(0, "zip", "banana")  # NY/SF tie now
        check("after the first row left")
        incremental.set_cell(1, "zip", "banana")  # single row — block below 2, no violations
        assert incremental.report().is_empty()
        check("block of one")
        incremental.set_cell(2, "zip", "90003")  # the 100 block vanishes entirely
        assert incremental.report().is_empty()
        check("empty block")
        for row, zip_code in ((0, "10004"), (1, "10005"), (2, "10006")):
            incremental.set_cell(row, "zip", zip_code)
        check("regrown")

    def test_edit_moves_rows_out_of_a_block_and_back(self):
        table = overlay_of(
            Table.from_rows(
                ["zip", "city"],
                [["90001", "LA"], ["90002", "LA"], ["90003", "NY"], ["10001", "SF"]],
            )
        )
        pfds = [zip_city_pfd()]
        incremental = IncrementalDetector(table, pfds)

        def check(context):
            batch = assert_all_paths_agree(table.materialize(), pfds, context)
            assert incremental.report().canonical_violations() == batch, context

        check("initial")
        incremental.set_cell(0, "zip", "10002")  # 900 block shrinks to 2 rows
        check("shrunk to two")
        incremental.set_cell(1, "zip", "10003")  # 900 block shrinks to 1 row
        check("shrunk to one")
        incremental.set_cell(1, "zip", "90002")  # and regrows
        check("regrown")
        incremental.set_cell(2, "city", "")  # empty string lands mid-loop
        check("empty value edit")
