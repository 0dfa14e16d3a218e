"""The error-detection engine.

Strategies (Section 3 of the paper):

* ``scan`` — constant rules: one pass over the table per rule; variable
  rules: pairwise comparison restricted to rows matching the embedded
  pattern (still quadratic).
* ``index`` — constant rules consult the per-column
  :class:`~repro.detection.index.PatternColumnIndex` so only rows whose
  value can match ``tp[A]`` are inspected; variable rules use the index
  to shortlist rows and then blocking.
* ``bruteforce`` — variable rules enumerate *all* tuple pairs, exactly
  the naive algorithm the paper says must be avoided; kept for the
  strategy-comparison benchmark.  (Only its *enumeration* is naive: the
  violations themselves are emitted by the same shared evaluators as
  every other strategy, so all strategies report identical violations.)
* ``auto`` — ``index`` (the default).

Violation *semantics* — what constitutes a violation, witness selection,
majority tie-breaking, :class:`Violation` construction — live in
:mod:`repro.detection.rules`; this module only owns candidate
enumeration per strategy.
"""

from __future__ import annotations

import time
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.constrained.constrained_pattern import ConstrainedPattern
from repro.dataset.table import CellEdit, RowAppend, RowDelete, Table
from repro.detection.blocking import block_by_projection
from repro.detection.index import PatternColumnIndex
from repro.detection.rules import (
    ConstantRuleEvaluator,
    VariableRuleEvaluator,
    make_rule_evaluator,
)
from repro.detection.violation import ViolationReport
from repro.errors import DetectionError
from repro.patterns.pattern import Pattern
from repro.perf import TABLE_ARTIFACTS
from repro.perf.memo import MatchMemo, MATCH_MEMO
from repro.pfd.pfd import PFD
from repro.pfd.tableau import cell_matches


class DetectionStrategy:
    """String constants naming the supported strategies."""

    AUTO = "auto"
    SCAN = "scan"
    INDEX = "index"
    BRUTEFORCE = "bruteforce"

    ALL = (AUTO, SCAN, INDEX, BRUTEFORCE)


class ErrorDetector:
    """Applies PFDs to a table and reports violations.

    Detectors share two process-wide caches: the per-table pattern
    column indexes (rebuilding them per detector instance was pure
    waste — they depend only on the column contents) and the
    :class:`MatchMemo` of per-distinct-value verdicts reused by every
    rule touching a column.  Pass a private ``memo`` to isolate a
    detector from the shared one.
    """

    def __init__(self, table: Table, memo: Optional[MatchMemo] = None):
        self.table = table
        self.memo = MATCH_MEMO if memo is None else memo
        # per-attribute index patchers, built once per detector — the
        # cache-hit path must not pay an allocation per lookup
        self._index_patchers: dict = {}

    # -- public API ----------------------------------------------------------------

    def column_index(self, attribute: str) -> PatternColumnIndex:
        """The (cached) pattern index of a column.

        Always resolved through the shared artifact cache — it checks
        ``table.version``, so an index built before a ``set_cell`` is
        never served stale.  (No instance-level cache on purpose: it
        would be version-blind.)  When the table's delta log covers the
        gap, the stale index is *patched* forward (one posting move per
        edit) instead of rebuilt — see :func:`column_index_patcher`.
        """
        patcher = self._index_patchers.get(attribute)
        if patcher is None:
            patcher = self._index_patchers[attribute] = column_index_patcher(
                self.table, attribute
            )
        return TABLE_ARTIFACTS.get(
            self.table,
            ("pattern_column_index", attribute),
            lambda: PatternColumnIndex(self.table.column_ref(attribute)),
            patch=patcher,
        )

    def detect(self, pfd: PFD, strategy: str = DetectionStrategy.AUTO) -> ViolationReport:
        """Detect all violations of one PFD."""
        if strategy not in DetectionStrategy.ALL:
            raise DetectionError(
                f"unknown strategy {strategy!r}; expected one of {DetectionStrategy.ALL}"
            )
        started = time.perf_counter()
        report = ViolationReport(n_rows=self.table.n_rows, strategy=strategy)
        lhs = pfd.lhs_attribute
        rhs = pfd.rhs_attribute
        lhs_values = self.table.column_ref(lhs)
        rhs_values = self.table.column_ref(rhs)
        for rule_index, rule in enumerate(pfd.tableau):
            evaluator = make_rule_evaluator(pfd, rule_index, rule)
            if isinstance(evaluator, VariableRuleEvaluator):
                self._detect_variable_rule(
                    report, evaluator, lhs_values, rhs_values, strategy
                )
            else:
                self._detect_constant_rule(
                    report, evaluator, lhs_values, rhs_values, strategy
                )
        report.elapsed_seconds = time.perf_counter() - started
        return report

    def detect_all(
        self, pfds: Iterable[PFD], strategy: str = DetectionStrategy.AUTO
    ) -> ViolationReport:
        """Detect violations of every PFD and merge the reports."""
        return ViolationReport.merge(
            [self.detect(pfd, strategy) for pfd in pfds],
            n_rows=self.table.n_rows,
            strategy=strategy,
        )

    # -- constant rules -----------------------------------------------------------------

    def _matching_rows(
        self,
        attribute: str,
        lhs_cell,
        values: Sequence[str],
        strategy: str,
        report: ViolationReport,
    ) -> Sequence[int]:
        """Rows whose LHS value satisfies the rule's LHS cell.

        Returns a direct reference to index-owned storage on the indexed
        constant path (no defensive copy) — callers only iterate.
        """
        use_index = strategy in (DetectionStrategy.AUTO, DetectionStrategy.INDEX)
        if use_index and isinstance(lhs_cell, (Pattern, ConstrainedPattern)):
            # Matching rows are a pure function of (column, pattern); the
            # shared artifact cache hands the same tuple to every rule and
            # every detector over this table.  The candidate count is
            # replayed so the comparisons statistic stays identical.
            index = self.column_index(attribute)

            def compute() -> Tuple[Tuple[int, ...], int]:
                rows = tuple(index.matching_rows(lhs_cell, self.memo))
                return rows, index.last_candidates_tested

            rows, candidates_tested = TABLE_ARTIFACTS.get(
                self.table, ("matching_rows", attribute, lhs_cell), compute
            )
            report.comparisons += candidates_tested
            return rows
        if use_index and isinstance(lhs_cell, str):
            return self.column_index(attribute).matching_constant(lhs_cell)
        rows = []
        for row, value in enumerate(values):
            report.comparisons += 1
            if cell_matches(lhs_cell, value):
                rows.append(row)
        return rows

    def _detect_constant_rule(
        self,
        report: ViolationReport,
        evaluator: ConstantRuleEvaluator,
        lhs_values: Sequence[str],
        rhs_values: Sequence[str],
        strategy: str,
    ) -> None:
        rows = self._matching_rows(
            evaluator.lhs, evaluator.lhs_cell, lhs_values, strategy, report
        )
        report.extend(evaluator.emit_full(rows, rhs_values, self.memo, report))

    # -- variable rules ------------------------------------------------------------------

    def _detect_variable_rule(
        self,
        report: ViolationReport,
        evaluator: VariableRuleEvaluator,
        lhs_values: Sequence[str],
        rhs_values: Sequence[str],
        strategy: str,
    ) -> None:
        constrained = evaluator.constrained
        matching = self._matching_rows(
            evaluator.lhs, constrained, lhs_values, strategy, report
        )
        if strategy == DetectionStrategy.BRUTEFORCE:
            blocks = self._bruteforce_disagreeing_blocks(
                matching, constrained, lhs_values, rhs_values, report
            )
            # The pair loop already counted its comparisons — no report
            # here, just the shared per-block emission.
            report.extend(evaluator.emit_full(blocks, rhs_values))
            return
        # Projection blocks depend only on (LHS column, pattern) — share
        # them across rules, strategies, and detector instances.
        lhs = evaluator.lhs
        blocks = TABLE_ARTIFACTS.get(
            self.table,
            ("projection_blocks", lhs, constrained),
            lambda: block_by_projection(matching, lhs_values, constrained, memo=self.memo),
        )
        report.extend(evaluator.emit_full(blocks, rhs_values, report))

    def _bruteforce_disagreeing_blocks(
        self,
        matching: Sequence[int],
        constrained: ConstrainedPattern,
        lhs_values: Sequence[str],
        rhs_values: Sequence[str],
        report: ViolationReport,
    ) -> Dict[Hashable, List[int]]:
        """The naive quadratic pair enumeration, reduced to blocks.

        Compares every pair of matching rows (the comparison count the
        strategy benchmark is about) and collects the rows of violating
        pairs per ``≡_Q`` key.  A block with two disagreeing RHS groups
        puts *every* one of its rows into some violating pair, so the
        collected row sets are complete blocks wherever a disagreement
        exists — exactly the blocks the shared evaluator needs, making
        bruteforce emission identical to the blocking strategies.

        Projections are memoized per distinct value, so the quadratic
        pair loop degenerates to dictionary lookups instead of running
        the projection regex twice per pair.
        """
        project = self.memo.projector(constrained)
        rows_by_key: Dict[Hashable, Set[int]] = {}
        for i_index in range(len(matching)):
            i = matching[i_index]
            left_projection = project(lhs_values[i])
            for j_index in range(i_index + 1, len(matching)):
                j = matching[j_index]
                report.comparisons += 1
                if rhs_values[i] == rhs_values[j]:
                    continue
                if left_projection is None:
                    continue
                if left_projection == project(lhs_values[j]):
                    rows_by_key.setdefault(left_projection, set()).update((i, j))
        return {key: sorted(rows) for key, rows in rows_by_key.items()}


def column_index_patcher(table: Table, attribute: str):
    """A :class:`TableArtifactCache` patcher applying table deltas to a
    cached :class:`PatternColumnIndex` — one posting move per edit, no
    regex re-evaluation (verdicts live in the MatchMemo, keyed by value).
    """

    def patch(index: PatternColumnIndex, deltas) -> Optional[PatternColumnIndex]:
        column = table.schema.index_of(attribute)
        for delta in deltas:
            if isinstance(delta, CellEdit):
                if delta.column == attribute:
                    index.apply_edit(delta.row, delta.old, delta.new)
            elif isinstance(delta, RowAppend):
                index.apply_append(delta.row, delta.values[column])
            elif isinstance(delta, RowDelete):
                index.apply_delete(delta.row, delta.values[column])
            else:  # unknown delta kind: decline, forcing a rebuild
                return None
        return index

    return patch
