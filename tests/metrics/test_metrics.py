"""Tests for evaluation metrics."""

import pytest

from repro.detection.violation import Violation, ViolationKind, ViolationReport
from repro.errors import EvaluationError
from repro.metrics.evaluation import evaluate_cells, evaluate_report


class TestDetectionEvaluation:
    def test_perfect_detection(self):
        truth = {(0, "city"), (5, "city")}
        evaluation = evaluate_cells(truth, truth)
        assert evaluation.precision == 1.0
        assert evaluation.recall == 1.0
        assert evaluation.f1 == 1.0

    def test_partial_detection(self):
        detected = {(0, "city"), (1, "city"), (2, "city")}
        truth = {(0, "city"), (5, "city")}
        evaluation = evaluate_cells(detected, truth)
        assert evaluation.true_positives == 1
        assert evaluation.false_positives == 2
        assert evaluation.false_negatives == 1
        assert evaluation.precision == pytest.approx(1 / 3)
        assert evaluation.recall == pytest.approx(0.5)
        assert evaluation.f1 == pytest.approx(0.4)

    def test_empty_detection(self):
        evaluation = evaluate_cells(set(), {(0, "city")})
        assert evaluation.precision == 0.0
        assert evaluation.recall == 0.0
        assert evaluation.f1 == 0.0

    def test_empty_truth_and_detection(self):
        evaluation = evaluate_cells(set(), set())
        assert evaluation.precision == 0.0
        assert evaluation.recall == 0.0

    def test_bad_cell_shape_rejected(self):
        with pytest.raises(EvaluationError):
            evaluate_cells({(1, "a", "extra")}, set())

    def test_evaluate_report_uses_suspect_cells(self):
        report = ViolationReport(n_rows=10)
        report.add(
            Violation(
                pfd_name="psi",
                lhs_attribute="zip",
                rhs_attribute="city",
                kind=ViolationKind.CONSTANT,
                rule_index=0,
                rule_text="r",
                rows=(4,),
                observed_value="NY",
                expected_value="LA",
            )
        )
        evaluation = evaluate_report(report, {(4, "city")})
        assert evaluation.precision == 1.0
        assert evaluation.recall == 1.0
