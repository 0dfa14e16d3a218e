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
from typing import Optional, Sequence

from repro.dataset.table import Table
from repro.detection.violation import Violation, ViolationKind, ViolationReport
from repro.kernels.encoder import encode_column
from repro.kernels.runtime import np
from repro.patterns.generalize import shape_patterns


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
        encoding = encode_column(values)
        rows = np.flatnonzero(encoding.lengths()[encoding.codes] > 0)
        total = len(rows)
        if total < self.config.min_column_size:
            return
        shapes, patterns = shape_patterns(encoding.shapes(), level=self.config.level)
        texts = [pattern.to_text() for pattern in patterns]
        row_shapes = shapes[encoding.codes[rows]]
        shape_counts = np.bincount(row_shapes, minlength=len(texts))
        dominant = max(
            np.unique(row_shapes).tolist(), key=lambda s: (shape_counts[s], texts[s])
        )
        report.comparisons += total
        rare = shape_counts[row_shapes] / total < self.config.max_pattern_ratio
        for row in rows[rare].tolist():
            report.add(
                Violation(
                    pfd_name=f"pattern-outlier[{name}]",
                    lhs_attribute=name,
                    rhs_attribute=name,
                    kind=ViolationKind.CONSTANT,
                    rule_index=0,
                    rule_text=f"{name} ~ {texts[dominant]}",
                    rows=(row,),
                    observed_value=values[row],
                    expected_value=None,
                )
            )
