"""Error detection with PFDs (Section 3 of the paper).

Constant PFDs check only the tuples whose LHS value matches the rule
(each distinct value is tested once); variable PFDs are checked by
*blocking* the tuples on the constrained projection of the LHS pattern,
avoiding the quadratic pairwise comparison.
"""

from repro.detection.violation import Violation, ViolationKind, ViolationReport
from repro.detection.rules import (
    ConstantRuleEvaluator,
    VariableRuleEvaluator,
    make_rule_evaluator,
)
from repro.detection.detector import ErrorDetector
from repro.detection.incremental import IncrementalDetector
from repro.detection.repair import RepairSuggestion, suggest_repairs

__all__ = [
    "Violation",
    "ViolationKind",
    "ViolationReport",
    "ConstantRuleEvaluator",
    "VariableRuleEvaluator",
    "make_rule_evaluator",
    "ErrorDetector",
    "IncrementalDetector",
    "RepairSuggestion",
    "suggest_repairs",
]
