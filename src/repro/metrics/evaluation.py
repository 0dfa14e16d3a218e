"""Cell-level precision / recall / F1 for error detection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Set, Tuple

from repro.detection.violation import ViolationReport
from repro.errors import EvaluationError

#: A cell reference: (row index, attribute name).
Cell = Tuple[int, str]


@dataclass(frozen=True)
class DetectionEvaluation:
    """Confusion counts and derived scores for one detector run."""

    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        denominator = self.true_positives + self.false_positives
        if denominator == 0:
            return 0.0
        return self.true_positives / denominator

    @property
    def recall(self) -> float:
        denominator = self.true_positives + self.false_negatives
        if denominator == 0:
            return 0.0
        return self.true_positives / denominator

    @property
    def f1(self) -> float:
        if self.precision + self.recall == 0:
            return 0.0
        return 2 * self.precision * self.recall / (self.precision + self.recall)


def evaluate_cells(detected: Iterable[Cell], ground_truth: Iterable[Cell]) -> DetectionEvaluation:
    """Compare a set of flagged cells against the injected error cells."""
    detected_set: Set[Cell] = set(detected)
    truth_set: Set[Cell] = set(ground_truth)
    for cell in detected_set | truth_set:
        if not (isinstance(cell, tuple) and len(cell) == 2):
            raise EvaluationError(f"cells must be (row, attribute) pairs, got {cell!r}")
    true_positives = len(detected_set & truth_set)
    return DetectionEvaluation(
        true_positives=true_positives,
        false_positives=len(detected_set - truth_set),
        false_negatives=len(truth_set - detected_set),
    )


def evaluate_report(report: ViolationReport, ground_truth: Iterable[Cell]) -> DetectionEvaluation:
    """Evaluate a violation report's suspect cells against ground truth."""
    return evaluate_cells(report.suspect_cells(), ground_truth)
