"""Evaluation metrics.

The demo paper reports discovered PFDs and detected errors qualitatively;
because our stand-in datasets are generated with known injected errors we
can additionally measure cell-level precision/recall of every detector,
which is what the comparison benchmarks (E9/E10 in DESIGN.md) report.
"""

from repro.metrics.evaluation import (
    DetectionEvaluation,
    evaluate_cells,
    evaluate_report,
)

__all__ = [
    "DetectionEvaluation",
    "evaluate_cells",
    "evaluate_report",
]
