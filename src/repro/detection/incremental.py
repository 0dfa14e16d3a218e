"""Incremental violation maintenance under table updates.

The ANMAT workflow is interactive: the user confirms rules, fixes cells,
and re-checks.  Re-running detection after every single-cell repair
re-scans the whole table even though the edit can only affect
violations whose rule touches the edited value.  The
:class:`IncrementalDetector` keeps per-rule violation state on distinct
values and maintains it under the structured deltas recorded by
``set_cell`` / ``append_row`` / ``delete_row`` of a
:class:`~repro.sharding.overlay.ShardOverlay`.

**Attach.**  The state is seeded from the sharded view detection runs
on — the overlay's cached seal (:meth:`ShardOverlay.as_sharded`), whose
column encodings, pair groups and ``≡_Q`` blocks the detection run left
behind.  The rule columns' integer codes and distinct
values are copied from the view's encodings; each constant rule takes
one RHS verdict per ``(LHS value, RHS value)`` pair group; each variable
rule copies the blocks into per-block RHS groups, majority, witness and
minority violations.  The view's cached artifacts are never aliased or
mutated: an untouched overlay's view *is* its base table.

**Edit.**  A cell edit patches one code (a value the column has not
held yet appends to the detector's own distinct list), re-checks the
row for each constant rule over the column, and moves the row between
two RHS groups for each variable rule — re-deriving the block's
violations only when its majority or witness changes (see
:mod:`repro.detection.rules`).  An append posts one row; a delete
unposts it and renumbers the row ids behind it.  When the overlay's
delta log no longer covers the gap, the state is re-seeded.

**Report.**  Each evaluator caches its violations in row order and
re-sorts only after a delta touched it; :meth:`IncrementalDetector.report`
concatenates them in evaluator order, deduplicating only across
evaluators that share ``(pfd_name, rule_index)``.

Correctness contract: after any sequence of mutations,
``detector.report().canonical_violations()`` equals the canonical
violations of a from-scratch
``ErrorDetector(overlay.materialize()).detect_all(pfds)`` on the final
state — randomized and property-based equivalence tests enforce this.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Tuple

from repro.dataset.rowids import RowIds, row_ids_from_numpy
from repro.detection.rules import (
    RuleEvaluator,
    VariableRuleEvaluator,
    make_rule_evaluator,
)
from repro.detection.violation import ViolationReport
from repro.kernels.encoder import ColumnEncoding
from repro.perf.memo import MatchMemo, MATCH_MEMO
from repro.perf.timers import StageTimers
from repro.pfd.pfd import PFD
from repro.sharding.overlay import CellEdit, RowAppend, RowDelete


class _CodedColumn:
    """One rule column as the detector's own codes over its own distinct
    values, copied from a column encoding and patched per delta."""

    __slots__ = ("distinct", "codes", "_index")

    def __init__(self, encoding: ColumnEncoding) -> None:
        self.distinct: List[str] = list(encoding.distinct)
        self.codes: RowIds = row_ids_from_numpy(encoding.codes)
        #: value → code, built on the first write
        self._index: Optional[Dict[str, int]] = None

    def value(self, row: int) -> str:
        return self.distinct[self.codes[row]]

    def code_of(self, value: str) -> int:
        index = self._index
        if index is None:
            index = self._index = {v: code for code, v in enumerate(self.distinct)}
        code = index.get(value)
        if code is None:
            code = index[value] = len(self.distinct)
            self.distinct.append(value)
        return code


class IncrementalDetector:
    """Maintains a :class:`ViolationReport` for a fixed rule set under
    mutations of a :class:`~repro.sharding.overlay.ShardOverlay`.

    Either mutate through the detector (:meth:`set_cell`,
    :meth:`append_row`, :meth:`delete_row`) or mutate the overlay
    directly and call :meth:`refresh` — both replay the overlay's delta
    log; the detector re-seeds only when the log no longer covers the
    gap.
    """

    #: the label its reports carry — the same as :class:`ErrorDetector`'s
    strategy = "auto"

    def __init__(
        self,
        table,
        pfds: Iterable[PFD],
        memo: Optional[MatchMemo] = None,
        timers: Optional[StageTimers] = None,
    ):
        self.table = table
        self.pfds = list(pfds)
        self.memo = MATCH_MEMO if memo is None else memo
        #: wall-clock accumulated per maintenance stage across the edit
        #: loop's lifetime (``seed`` — full state builds, ``update`` —
        #: delta replays); the bench harness prints the breakdown like
        #: the mining stage timers, and can pass a shared instance to
        #: accumulate across detector rebuilds
        self.timers = StageTimers() if timers is None else timers
        self._rules: List[RuleEvaluator] = []
        #: column → the evaluators reading it
        self._readers: Dict[str, List[RuleEvaluator]] = {}
        #: the ``(pfd_name, rule_index)`` identities held by more than one
        #: evaluator (only their violations can coincide)
        self._shared: set = set()
        # The rule columns' codes, advanced in lockstep with each
        # replayed delta.  Handlers read these, never the live table:
        # when refresh() catches up on a *batch* of deltas, the live
        # table is already at the final state, but a delta's row index
        # refers to the numbering at mutation time.
        self._columns: Dict[str, _CodedColumn] = {}
        self._synced_version = -1
        self._rebuild()

    # -- initial build ---------------------------------------------------------

    def _rebuild(self) -> None:
        """Seed the full per-rule state from the table's sharded view."""
        with self.timers.stage("seed"):
            self._rebuild_timed()

    def _rebuild_timed(self) -> None:
        # imported here: the sharded engine imports this package
        from repro.sharding.detection import ShardedDetector

        view = self.table.as_sharded()
        detector = ShardedDetector(view, memo=self.memo)
        names = [n for pfd in self.pfds for n in (pfd.lhs_attribute, pfd.rhs_attribute)]
        encodings = view.column_encodings(names)
        self._columns = {name: _CodedColumn(encodings[name]) for name in encodings}
        self._rules = []
        self._readers = {name: [] for name in self._columns}
        for pfd in self.pfds:
            for rule_index, rule in enumerate(pfd.tableau):
                evaluator = make_rule_evaluator(pfd, rule_index, rule)
                if isinstance(evaluator, VariableRuleEvaluator):
                    evaluator.seed_blocks(detector.blocks(evaluator))
                else:
                    evaluator.seed_value_groups(detector.value_groups(evaluator), self.memo)
                self._rules.append(evaluator)
                for name in dict.fromkeys((evaluator.lhs, evaluator.rhs)):
                    self._readers[name].append(evaluator)
        identities = Counter((ev.pfd_name, ev.rule_index) for ev in self._rules)
        self._shared = {rule for rule, count in identities.items() if count > 1}
        self._synced_version = self.table.version

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
        with self.timers.stage("update"):
            for delta in deltas:
                if isinstance(delta, CellEdit):
                    self._apply_edit(delta)
                elif isinstance(delta, RowAppend):
                    self._apply_append(delta)
                elif isinstance(delta, RowDelete):
                    self._apply_delete(delta)
                else:  # unknown delta kind — be safe, re-seed
                    self._rebuild()
                    return
        self._synced_version = self.table.version

    # -- delta handlers ------------------------------------------------------------

    def _apply_edit(self, delta: CellEdit) -> None:
        column = self._columns.get(delta.column)
        if column is None:
            return
        row = delta.row
        old = column.value(row)
        column.codes[row] = column.code_of(delta.new)
        columns = self._columns
        for evaluator in self._readers[delta.column]:
            lhs = columns[evaluator.lhs].value(row)
            rhs = columns[evaluator.rhs].value(row)
            evaluator.update_row(
                self.memo,
                row,
                old if evaluator.lhs == delta.column else lhs,
                old if evaluator.rhs == delta.column else rhs,
                lhs,
                rhs,
            )

    def _apply_append(self, delta: RowAppend) -> None:
        schema = self.table.schema
        for name, column in self._columns.items():
            column.codes.append(column.code_of(delta.values[schema.index_of(name)]))
        for evaluator in self._rules:
            evaluator.append_row(
                self.memo,
                delta.row,
                self._columns[evaluator.lhs].value(delta.row),
                self._columns[evaluator.rhs].value(delta.row),
            )

    def _apply_delete(self, delta: RowDelete) -> None:
        row = delta.row
        for evaluator in self._rules:
            evaluator.delete_row(
                self.memo,
                row,
                self._columns[evaluator.lhs].value(row),
                self._columns[evaluator.rhs].value(row),
            )
        for column in self._columns.values():
            del column.codes[row]

    # -- output ---------------------------------------------------------------------

    def report(self) -> ViolationReport:
        """The maintained report for the table's current contents.

        Refreshes first, so it is always safe to call after direct table
        mutations.  Violations come in evaluator order, each evaluator's
        rows ascending, deduplicated with the identity key of
        :meth:`ViolationReport.merged_with`; compare against a batch run
        via :meth:`ViolationReport.canonical_violations`.
        """
        self.refresh()
        report = ViolationReport(n_rows=self.table.n_rows, strategy=self.strategy)
        seen = set()
        for evaluator in self._rules:
            violations = evaluator.emit()
            if (evaluator.pfd_name, evaluator.rule_index) in self._shared:
                # evaluators sharing a rule identity may emit the same
                # violation: keep the first
                fresh = []
                for violation in violations:
                    key = report.identity_key(violation)
                    if key not in seen:
                        seen.add(key)
                        fresh.append(violation)
                violations = fresh
            report.extend(violations)
        return report
