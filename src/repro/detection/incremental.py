"""Incremental violation maintenance under table updates.

The ANMAT workflow is interactive: the user confirms rules, fixes cells,
and re-checks.  Re-running :meth:`ErrorDetector.detect_all` after every
single-cell repair re-scans the whole table even though the edit can
only affect violations whose rule touches the edited value.  The
:class:`IncrementalDetector` keeps per-rule violation state — the rows
in scope of each constant rule, the ``≡_Q`` blocks of each variable rule
— and maintains it under the structured deltas recorded by
:meth:`Table.set_cell` / :meth:`Table.append_row` /
:meth:`Table.delete_row`:

* a **cell edit** re-evaluates one row per constant rule over the edited
  attribute, and moves one row between blocks (re-deriving only the two
  affected blocks) per variable rule;
* an **append** evaluates the new row against every rule;
* a **delete** unposts the row, renumbers the indexes behind it, and
  re-derives only the block the row left.

All violation *semantics* — and the state the hooks above maintain —
live in the shared evaluators of :mod:`repro.detection.rules`; this
module only owns delta replay and the shadow columns it reads from.
Because batch detection emits through the very same evaluators, the two
paths cannot drift apart.

Pattern verdicts and constrained projections are read through the shared
:class:`~repro.perf.memo.MatchMemo` (one regex run per distinct value,
ever) and the initial build shares the per-table
:class:`~repro.perf.table_cache.TableArtifactCache` artifacts with the
batch detector, so attaching an incremental detector right after a full
detection run costs dictionary lookups, not regex work.

Correctness contract: after any sequence of mutations,
``detector.report().canonical_violations()`` equals the canonical
violations of a from-scratch ``ErrorDetector(table).detect_all(pfds)``
on the final table — for *every* strategy, bruteforce included, since
emission is unified — randomized equivalence tests enforce this.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.constrained.constrained_pattern import ConstrainedPattern
from repro.dataset.table import CellEdit, RowAppend, RowDelete, Table
from repro.detection.detector import DetectionStrategy, ErrorDetector
from repro.detection.rules import (
    ConstantRuleEvaluator,
    RuleEvaluator,
    VariableRuleEvaluator,
    make_rule_evaluator,
)
from repro.detection.violation import ViolationReport
from repro.patterns.pattern import Pattern
from repro.perf.memo import MatchMemo, MATCH_MEMO
from repro.perf.timers import StageTimers
from repro.pfd.pfd import PFD


class IncrementalDetector:
    """Maintains a :class:`ViolationReport` for a fixed rule set under
    table mutations.

    Either mutate through the detector (:meth:`set_cell`,
    :meth:`append_row`, :meth:`delete_row`) or mutate the table directly
    and call :meth:`refresh` — both replay the table's delta log; the
    detector falls back to a full rebuild only when the log no longer
    covers the gap.
    """

    #: the label its reports carry — the same answer as every batch
    #: strategy (see the module's correctness contract)
    strategy = DetectionStrategy.AUTO

    def __init__(
        self,
        table: Table,
        pfds: Iterable[PFD],
        memo: Optional[MatchMemo] = None,
        timers: Optional[StageTimers] = None,
    ):
        self.table = table
        self.pfds = list(pfds)
        self.memo = MATCH_MEMO if memo is None else memo
        #: wall-clock accumulated per maintenance stage across the edit
        #: loop's lifetime (``seed`` — full state builds, ``reevaluate`` —
        #: constant-rule row re-evaluations, ``rederive_block`` —
        #: variable-rule block re-derivations); the bench harness prints
        #: the breakdown like the mining stage timers, and can pass a
        #: shared instance to accumulate across detector rebuilds
        self.timers = StageTimers() if timers is None else timers
        self._rules: List[RuleEvaluator] = []
        # Shadow copies of every rule-referenced column, advanced in
        # lockstep with each replayed delta.  Handlers read these, never
        # the live table: when refresh() catches up on a *batch* of
        # deltas, the live table is already at the final state, but a
        # delta's row index refers to the numbering at mutation time.
        self._shadow: Dict[str, List[str]] = {}
        self._synced_version = -1
        self._rebuild()

    # -- initial build ---------------------------------------------------------

    def _rebuild(self) -> None:
        """Compute the full per-rule state from the current table."""
        with self.timers.stage("seed"):
            self._rebuild_timed()

    def _rebuild_timed(self) -> None:
        self._rules = []
        self._shadow = {}
        detector = ErrorDetector(self.table, memo=self.memo)
        for pfd in self.pfds:
            for attribute in (pfd.lhs_attribute, pfd.rhs_attribute):
                if attribute not in self._shadow:
                    self._shadow[attribute] = list(self.table.column_ref(attribute))
        for pfd in self.pfds:
            lhs_values = self._shadow[pfd.lhs_attribute]
            rhs_values = self._shadow[pfd.rhs_attribute]
            for rule_index, rule in enumerate(pfd.tableau):
                evaluator = make_rule_evaluator(pfd, rule_index, rule)
                if isinstance(evaluator, VariableRuleEvaluator):
                    evaluator.seed_full(self.memo, lhs_values, rhs_values)
                else:
                    evaluator.seed_full(
                        self._initial_scope(detector, evaluator, lhs_values),
                        rhs_values,
                        self.memo,
                    )
                self._rules.append(evaluator)
        self._synced_version = self.table.version

    def _initial_scope(
        self,
        detector: ErrorDetector,
        evaluator: ConstantRuleEvaluator,
        lhs_values: Sequence[str],
    ) -> Iterable[int]:
        """Rows matching a constant rule's LHS cell, via the shared
        per-table column index so batch and incremental runs reuse one
        artifact."""
        cell = evaluator.lhs_cell
        if isinstance(cell, (Pattern, ConstrainedPattern)):
            return detector.column_index(evaluator.lhs).matching_rows(cell, self.memo)
        if isinstance(cell, str):
            return detector.column_index(evaluator.lhs).matching_constant(cell)
        return range(len(lhs_values))  # wildcard LHS: every row is in scope

    # -- mutation API ------------------------------------------------------------

    def set_cell(self, row: int, attribute: str, value: object) -> None:
        """Overwrite one cell and update the maintained report."""
        self.table.set_cell(row, attribute, value)
        self.refresh()

    def append_row(self, values) -> int:
        """Append one row and update the maintained report."""
        row = self.table.append_row(values)
        self.refresh()
        return row

    def delete_row(self, row: int) -> Tuple[str, ...]:
        """Delete one row and update the maintained report."""
        removed = self.table.delete_row(row)
        self.refresh()
        return removed

    def refresh(self) -> None:
        """Catch up with mutations applied directly to the table."""
        if self.table.version == self._synced_version:
            return
        deltas = self.table.deltas_since(self._synced_version)
        if deltas is None:
            self._rebuild()
            return
        for delta in deltas:
            self._advance_shadow(delta)
            if isinstance(delta, CellEdit):
                self._apply_edit(delta)
            elif isinstance(delta, RowAppend):
                self._apply_append(delta)
            elif isinstance(delta, RowDelete):
                self._apply_delete(delta)
            else:  # unknown delta kind — be safe, rebuild
                self._rebuild()
                return
        self._synced_version = self.table.version

    # -- delta handlers ------------------------------------------------------------

    def _advance_shadow(self, delta) -> None:
        """Bring the shadow columns to the state right after ``delta``."""
        schema = self.table.schema
        if isinstance(delta, CellEdit):
            column = self._shadow.get(delta.column)
            if column is not None:
                column[delta.row] = delta.new
        elif isinstance(delta, RowAppend):
            for attribute, column in self._shadow.items():
                column.append(delta.values[schema.index_of(attribute)])
        elif isinstance(delta, RowDelete):
            for column in self._shadow.values():
                del column[delta.row]

    def _apply_edit(self, delta: CellEdit) -> None:
        for evaluator in self._rules:
            if isinstance(evaluator, ConstantRuleEvaluator):
                if delta.column in (evaluator.lhs, evaluator.rhs):
                    with self.timers.stage("reevaluate"):
                        evaluator.reevaluate_row(
                            self.memo,
                            delta.row,
                            self._shadow[evaluator.lhs][delta.row],
                            self._shadow[evaluator.rhs][delta.row],
                        )
            else:
                rhs_values = self._shadow[evaluator.rhs]
                if delta.column == evaluator.lhs:
                    with self.timers.stage("rederive_block"):
                        evaluator.move_row(
                            self.memo, delta.row, delta.new, rhs_values
                        )
                elif delta.column == evaluator.rhs:
                    with self.timers.stage("rederive_block"):
                        evaluator.rhs_changed(delta.row, rhs_values)

    def _apply_append(self, delta: RowAppend) -> None:
        schema = self.table.schema
        for evaluator in self._rules:
            lhs_value = delta.values[schema.index_of(evaluator.lhs)]
            rhs_value = delta.values[schema.index_of(evaluator.rhs)]
            if isinstance(evaluator, ConstantRuleEvaluator):
                evaluator.append_row(self.memo, delta.row, lhs_value, rhs_value)
            else:
                evaluator.append_row(
                    self.memo, delta.row, lhs_value, self._shadow[evaluator.rhs]
                )

    def _apply_delete(self, delta: RowDelete) -> None:
        for evaluator in self._rules:
            if isinstance(evaluator, ConstantRuleEvaluator):
                evaluator.delete_row(delta.row)
            else:
                evaluator.delete_row(delta.row, self._shadow[evaluator.rhs])

    # -- output ---------------------------------------------------------------------

    def report(self) -> ViolationReport:
        """The maintained report for the table's current contents.

        Refreshes first, so it is always safe to call after direct table
        mutations.  Violations are deduplicated with the same identity
        key as :meth:`ViolationReport.merged_with`; compare against a
        batch run via :meth:`ViolationReport.canonical_violations`.
        """
        self.refresh()
        report = ViolationReport(n_rows=self.table.n_rows, strategy=self.strategy)
        seen = set()
        for evaluator in self._rules:
            for violation in evaluator.emit():
                key = report.identity_key(violation)
                if key in seen:
                    continue
                seen.add(key)
                report.add(violation)
        return report
