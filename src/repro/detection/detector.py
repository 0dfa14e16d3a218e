"""The error-detection engine over a plain :class:`Table`.

One route (Section 3 of the paper): the search for violations is
limited to the tuples whose LHS matches ``tp[A]``, and variable rules
use blocking instead of the quadratic pair check.

* The LHS column's rows are grouped by value once per PFD
  (:meth:`Table.group_rows`); each rule tests every distinct value once
  through the :class:`~repro.perf.memo.MatchMemo`.
* **Constant rules** check the RHS of each row whose LHS value matches,
  in ascending row order.
* **Variable rules** pour the rows of each distinct LHS value into the
  ``≡_Q`` block of its constrained projection
  (:func:`~repro.detection.blocking.block_by_projection`; no projection
  means no match), so the projection runs once per distinct value.

Violation *semantics* — what constitutes a violation, witness selection,
majority tie-breaking, :class:`Violation` construction — live in
:mod:`repro.detection.rules`; this module only enumerates candidates.
The session engine detects on shards
(:mod:`repro.sharding.detection`); this detector is the library
reference it is compared against.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Dict, Iterable, List, Optional

from repro.constrained.constrained_pattern import ConstrainedPattern
from repro.dataset.table import Table
from repro.detection.blocking import block_by_projection
from repro.detection.rules import VariableRuleEvaluator, make_rule_evaluator
from repro.detection.violation import ViolationReport
from repro.patterns.pattern import Pattern
from repro.perf.memo import MatchMemo, MATCH_MEMO
from repro.pfd.pfd import PFD
from repro.pfd.tableau import cell_matches


class ErrorDetector:
    """Applies PFDs to a table and reports violations.

    Detectors share the process-wide :class:`MatchMemo` of
    per-distinct-value verdicts, reused by every rule touching a column;
    pass a private ``memo`` to isolate a detector from the shared one.
    """

    def __init__(self, table: Table, memo: Optional[MatchMemo] = None):
        self.table = table
        self.memo = MATCH_MEMO if memo is None else memo

    def detect(self, pfd: PFD) -> ViolationReport:
        """Detect all violations of one PFD."""
        started = time.perf_counter()
        report = ViolationReport(n_rows=self.table.n_rows, strategy="auto")
        rhs_values = self.table.column_ref(pfd.rhs_attribute)
        groups = self.table.group_rows(pfd.lhs_attribute)
        for rule_index, rule in enumerate(pfd.tableau):
            evaluator = make_rule_evaluator(pfd, rule_index, rule)
            if isinstance(evaluator, VariableRuleEvaluator):
                blocks = block_by_projection(groups, evaluator.constrained, memo=self.memo)
                report.comparisons += len(groups)  # one projection per distinct value
                report.extend(evaluator.emit_full(blocks, rhs_values, report))
            else:
                rows = self._matching_rows(groups, evaluator.lhs_cell, report)
                report.extend(evaluator.emit_full(rows, rhs_values, self.memo, report))
        report.elapsed_seconds = time.perf_counter() - started
        return report

    def detect_all(self, pfds: Iterable[PFD]) -> ViolationReport:
        """Detect violations of every PFD and merge the reports."""
        return ViolationReport.merge(
            [self.detect(pfd) for pfd in pfds],
            n_rows=self.table.n_rows,
            strategy="auto",
        )

    def _matching_rows(
        self, groups: Dict[str, List[int]], lhs_cell, report: ViolationReport
    ) -> List[int]:
        """Rows whose LHS value satisfies the rule's LHS cell, ascending;
        each distinct value is tested once (and counted as one
        comparison)."""
        if isinstance(lhs_cell, (Pattern, ConstrainedPattern)):
            matches = self.memo.matcher(lhs_cell)
        else:
            matches = partial(cell_matches, lhs_cell)
        rows: List[int] = []
        for value, value_rows in groups.items():
            if matches(value):
                rows.extend(value_rows)
        report.comparisons += len(groups)
        rows.sort()
        return rows

