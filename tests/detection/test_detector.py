"""Tests for the error-detection engine."""

import pytest

from repro.constrained.constrained_pattern import constrained_first_token, constrained_prefix
from repro.detection.detector import ErrorDetector
from repro.dataset.table import Table
from repro.detection.violation import ViolationKind
from repro.patterns import parse_pattern
from repro.pfd.pfd import PFD

import detection_reference
from detection_reference import assert_matches_pairwise, violating_pairs


@pytest.fixture
def lambda2():
    return PFD.constant(
        "name", "gender", [{"name": "Susan\\ \\A*", "gender": "F"}], name="lambda2"
    )


@pytest.fixture
def lambda3():
    return PFD.constant(
        "zip", "city", [{"zip": "900\\D{2}", "city": "Los Angeles"}], name="lambda3"
    )


@pytest.fixture
def lambda4():
    return PFD.variable("name", "gender", constrained_first_token(), name="lambda4")


@pytest.fixture
def lambda5():
    return PFD.variable(
        "zip",
        "city",
        constrained_prefix(3, parse_pattern("\\D{2}"), head=parse_pattern("\\D{3}")),
        name="lambda5",
    )


class TestConstantDetection:
    def test_lambda2_flags_r4(self, name_table, lambda2):
        report = ErrorDetector(name_table).detect(lambda2)
        assert len(report) == 1
        violation = report.violations[0]
        assert violation.kind == ViolationKind.CONSTANT
        assert violation.suspect_cell == (3, "gender")
        assert violation.observed_value == "M"
        assert violation.expected_value == "F"

    def test_lambda3_flags_s4(self, zip_table, lambda3):
        report = ErrorDetector(zip_table).detect(lambda3)
        assert report.suspect_cells() == {(3, "city")}

    def test_clean_table_has_no_violations(self, zip_dataset, lambda3):
        report = ErrorDetector(zip_dataset.clean_table).detect(lambda3)
        assert report.is_empty()

    def test_only_rows_matching_the_lhs_are_checked(self, zip_table):
        rule = PFD.constant("zip", "city", [{"zip": "9000\\D", "city": "Chicago"}])
        report = ErrorDetector(zip_table).detect(rule)
        assert report.suspect_cells() == {(row, "city") for row in range(4)}
        # one LHS test per distinct value plus one RHS check per
        # (LHS value, RHS value) group in scope
        assert report.comparisons == 4 + 4
        rule = PFD.constant("zip", "city", [{"zip": "\\D{5}", "city": "Chicago"}])
        two_zips = Table.from_rows(
            ["zip", "city"], [["90001", "LA"], ["90001", "LA"], ["90002", "SF"]]
        )
        assert ErrorDetector(two_zips).detect(rule).comparisons == 2 + 2
        rule = PFD.constant("zip", "city", [{"zip": "90004", "city": "New York"}])
        assert ErrorDetector(zip_table).detect(rule).is_empty()


class TestVariableDetection:
    def test_lambda4_flags_r4_pair(self, name_table, lambda4):
        report = ErrorDetector(name_table).detect(lambda4)
        assert len(report) == 1
        violation = report.violations[0]
        assert violation.kind == ViolationKind.VARIABLE
        assert set(violation.rows) == {2, 3}
        assert len(violation.cells) == 4

    def test_lambda4_suspects_minority_value(self, name_table, lambda4):
        # With only two Susan rows the majority tie is broken
        # deterministically, so exactly one RHS cell is suspected.
        report = ErrorDetector(name_table).detect(lambda4)
        assert len(report.suspect_cells()) == 1

    def test_lambda5_flags_s4(self, zip_table, lambda5):
        report = ErrorDetector(zip_table).detect(lambda5)
        assert report.suspect_cells() == {(3, "city")}
        # blocking emits one violation per minority row, not per pair
        assert len(report) == 1

    def test_blocking_matches_the_literal_pairwise_check(self, zip_table, lambda5):
        # three violating pairs, (s1..s3, s4), but one violation per
        # minority row
        pairs = violating_pairs(zip_table, lambda5)
        assert pairs == {frozenset((row, 3)) for row in range(3)}
        report = ErrorDetector(zip_table).detect(lambda5)
        assert len(report) == 1
        assert_matches_pairwise(report, pairs)

    def test_blocking_matches_the_pairwise_check_on_generated_data(
        self, small_zip_city_state, lambda5
    ):
        table = small_zip_city_state.table
        pairs = violating_pairs(table, lambda5)
        report = ErrorDetector(table).detect(lambda5)
        assert pairs and len(report) < len(pairs)
        assert_matches_pairwise(report, pairs)
        # blocking compares far fewer than the n²/2 pairs of the naive check
        assert report.comparisons < table.n_rows * (table.n_rows - 1) // 2


class TestAgainstReferenceSemantics:
    """The detector must report the violations of the literal per-row
    Section 3 loop on the generated datasets."""

    def test_constant_rules_match_reference(self, small_phone_state):
        from repro.discovery.discoverer import PfdDiscoverer

        table = small_phone_state.table
        pfds = [pfd for pfd in PfdDiscoverer().discover(table) if pfd.is_constant]
        assert pfds
        detector = ErrorDetector(table)
        for pfd in pfds:
            reference = detection_reference.detect(table, [pfd])
            report = detector.detect(pfd)
            assert report.canonical_violations() == reference.canonical_violations(), (
                pfd.describe()
            )

    def test_variable_rules_match_reference(self, small_fullname_gender):
        lambda4_renamed = PFD.variable(
            "full_name", "gender", constrained_first_token(), name="lambda4"
        )
        table = small_fullname_gender.table
        reference = detection_reference.detect(table, [lambda4_renamed])
        report = ErrorDetector(table).detect(lambda4_renamed)
        assert report.canonical_violations() == reference.canonical_violations()
        assert_matches_pairwise(report, violating_pairs(table, lambda4_renamed))


class TestDetectAll:
    def test_merges_reports(self, zip_table, lambda3, lambda5):
        report = ErrorDetector(zip_table).detect_all([lambda3, lambda5])
        assert report.suspect_cells() == {(3, "city")}
        assert {v.pfd_name for v in report} == {"lambda3", "lambda5"}

    def test_strategy_argument_is_gone(self, zip_table, lambda3):
        with pytest.raises(TypeError, match="strategy"):
            ErrorDetector(zip_table).detect(lambda3, strategy="scan")
        with pytest.raises(TypeError, match="strategy"):
            ErrorDetector(zip_table).detect_all([lambda3], strategy="scan")
        assert not hasattr(ErrorDetector(zip_table).detect_all([lambda3]), "strategy")

    def test_a_detector_sees_edits_to_its_table(self, zip_table, lambda3):
        # each call seeds afresh over the table it adopted: the same
        # detector reads the edited table
        detector = ErrorDetector(zip_table)
        assert detector.detect(lambda3).suspect_cells() == {(3, "city")}
        zip_table.set_cell(0, "city", "Chicago")
        assert detector.detect(lambda3).suspect_cells() == {(0, "city"), (3, "city")}
