"""Auto-Detect-style per-column pattern outlier detection.

The paper cites Auto-Detect (Huang & He, SIGMOD 2018) as prior art that
uses single-column syntactic patterns to find errors.  This baseline
flags a cell when the generalized pattern of its value is rare within
its column — it catches formatting anomalies ("Chicag" still looks like a
word, but "lL" does not look like a state code) yet, having no notion of
cross-column dependency, it misses wrong-but-well-formed values such as a
valid state paired with the wrong area code.  That asymmetry is exactly
what the comparison experiment demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.dataset.table import Table
from repro.detection.violation import Violation, ViolationKind, ViolationReport
from repro.patterns.generalize import generalize_string


@dataclass
class PatternOutlierConfig:
    """Parameters of the outlier detector."""

    #: a value is an outlier when its pattern's share of the column is
    #: strictly below this ratio
    max_pattern_ratio: float = 0.02
    #: generalization level used to bucket values (1 = exact class runs)
    level: int = 1
    #: columns with fewer than this many non-empty values are skipped
    min_column_size: int = 20


class PatternOutlierDetector:
    """Flags cells whose syntactic pattern is rare for their column."""

    def __init__(self, config: Optional[PatternOutlierConfig] = None):
        self.config = config or PatternOutlierConfig()

    def detect(self, table: Table, columns: Optional[Sequence[str]] = None) -> ViolationReport:
        report = ViolationReport(n_rows=table.n_rows)
        for name in columns if columns is not None else table.column_names():
            self._detect_column(table, name, report)
        return report

    def _detect_column(self, table: Table, name: str, report: ViolationReport) -> None:
        values = table.column_ref(name)
        non_empty_rows = [row for row, value in enumerate(values) if value != ""]
        if len(non_empty_rows) < self.config.min_column_size:
            return
        pattern_counts: Dict[str, int] = {}
        row_patterns: Dict[int, str] = {}
        for row in non_empty_rows:
            pattern = generalize_string(values[row], level=self.config.level).to_text()
            row_patterns[row] = pattern
            pattern_counts[pattern] = pattern_counts.get(pattern, 0) + 1
        total = len(non_empty_rows)
        dominant = max(pattern_counts, key=lambda p: (pattern_counts[p], p))
        for row in non_empty_rows:
            pattern = row_patterns[row]
            report.comparisons += 1
            if pattern_counts[pattern] / total >= self.config.max_pattern_ratio:
                continue
            report.add(
                Violation(
                    pfd_name=f"pattern-outlier[{name}]",
                    lhs_attribute=name,
                    rhs_attribute=name,
                    kind=ViolationKind.CONSTANT,
                    rule_index=0,
                    rule_text=f"{name} ~ {dominant}",
                    rows=(row,),
                    observed_value=values[row],
                    expected_value=None,
                )
            )
