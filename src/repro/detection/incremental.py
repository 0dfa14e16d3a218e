"""The session's detector: detection, then maintenance under table updates.

The ANMAT workflow is interactive: the user confirms rules, detects
violations, fixes cells, and re-checks.  Re-running detection after
every single-cell repair re-scans the whole table even though the edit
can only affect violations whose rule touches the edited value.  The
:class:`IncrementalDetector` builds per-rule violation state on
distinct values once — that build *is* the session's detection — and
maintains it under its own ``set_cell``, which writes a
:class:`~repro.sharding.overlay.ShardOverlay` and then updates the
state from its arguments: an edit reads no shard.

**Seed.**  The state is built from the overlay's sharded view (its
seal, one per overlay version, :meth:`ShardOverlay.as_sharded`) through
:mod:`repro.sharding.detection`: the rule columns' encodings (the ones
discovery left behind, so detection right after discovery reads no
shard), each constant rule's one RHS verdict per ``(LHS value, RHS
value)`` pair group, and each variable rule's ``≡_Q`` blocks, which it
takes over as per-block RHS groups, majority, witness and minority
violations.  The rule columns' codes and distinct values are the view
encodings' own until the first edit writes one, which copies them: a
detection-only session copies nothing.  The view's encodings and pair
groups are never mutated: an untouched overlay's view *is* its base
table.

**Edit.**  A cell edit patches one code (a value the column has not
held yet appends to the detector's own distinct list), re-checks the
row for each constant rule over the column, and moves the row between
two RHS groups for each variable rule — re-deriving the block's
violations only when its majority or witness changes (see
:mod:`repro.detection.rules`).  A write of the value
the cell's rule column already holds changes nothing.  The overlay keeps
no history, so a mutation made on the overlay directly is caught up by
re-seeding: :meth:`IncrementalDetector.refresh` compares the overlay's
``version`` with the one the state reflects.

**Hand-over.**  A re-check keeps the confirmed rules that survive by
content, and the detector already maintains each of them on the
current overlay.  :meth:`IncrementalDetector.retained` returns a
detector over the new rule list that takes over the evaluators of every
rule it holds under the same content and name, and the rule columns'
codes; it drops the rules that did not survive and seeds only the
others from the sealed view, in the new list's order.  A renamed
survivor is seeded under its new name, since its violations carry the
name.  The old detector is not mutated, so a failed re-check keeps it;
a detector behind its table hands over nothing and seeds every rule.
The kept report equals a fresh seed's, in report order: evaluators emit
deterministically (constant rules by row, variable rules by witness
then row).

**Report.**  Each evaluator caches its violations in row order and
re-sorts only after a mutation touched it; :meth:`IncrementalDetector.report`
concatenates them in evaluator order, deduplicating only across
evaluators that share ``(pfd_name, rule_index)``.

**Comparisons.**  Each seed counts its work in :attr:`comparisons`,
which reports carry: per rule, one LHS test or projection per distinct
LHS value, then one RHS check per in-scope ``(LHS value, RHS value)``
group (constant rules) or one per row of each block of two or more rows
(variable rules).  Updates are not counted, and a hand-over counts only
the rules it seeds.

Correctness contract: after any sequence of cell edits,
``detector.report().canonical_violations()`` equals the canonical
violations of the literal per-row Section 3 loop in
``tests/detection_reference.py`` over ``overlay.materialize()`` —
randomized and property-based equivalence tests enforce this.  A fresh
seed over a whole table is detection itself:
:class:`~repro.detection.detector.ErrorDetector` is one.
"""

from __future__ import annotations

import copy
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.dataset.rowids import row_ids_from_numpy
from repro.dataset.table import _stringify
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
from repro.sharding.detection import pair_groups, split_blocks, value_groups


def _held_key(pfd: PFD) -> Tuple[Optional[str], str]:
    """What a rule's evaluators are held under: its name (which their
    violations carry) and its content."""
    return pfd.name, pfd.content_key()


#: held rule → its evaluators, each list taken over at most once
_Held = Dict[Tuple[Optional[str], str], List[RuleEvaluator]]


class _CodedColumn:
    """One rule column as codes over distinct values: a column
    encoding's own arrays until the first write copies them into the
    detector's, which each edit then patches."""

    __slots__ = ("distinct", "codes", "_index")

    def __init__(self, encoding: ColumnEncoding) -> None:
        self.distinct: Sequence[str] = encoding.distinct
        self.codes: Sequence[int] = encoding.codes
        #: value → code, built on the first write
        self._index: Optional[Dict[str, int]] = None

    def value(self, row: int) -> str:
        return self.distinct[self.codes[row]]

    def set(self, row: int, value: str) -> None:
        code = self._code_of(value)
        self.codes[row] = code

    def _code_of(self, value: str) -> int:
        """The value's code, added when the column has not held it yet;
        the first call copies the encoding's arrays into the detector's
        own."""
        index = self._index
        if index is None:
            self.distinct = list(self.distinct)
            self.codes = row_ids_from_numpy(self.codes)
            index = self._index = {v: code for code, v in enumerate(self.distinct)}
        code = index.get(value)
        if code is None:
            code = index[value] = len(self.distinct)
            self.distinct.append(value)
        return code


class IncrementalDetector:
    """Detects a fixed rule set's violations over a
    :class:`~repro.sharding.overlay.ShardOverlay` and maintains the
    :class:`ViolationReport` under mutations of it.

    Construction seeds the state from the overlay's sharded view — in a
    session, that seed is detection.  Edit through the detector
    (:meth:`set_cell`) to update the state in place; a mutation made on
    the overlay directly costs a re-seed at the next :meth:`refresh` or
    :meth:`report`.
    """

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
        #: loop's lifetime (``seed`` — state builds and hand-overs,
        #: ``update`` — in-place mutations); the bench harness prints the
        #: breakdown like the mining stage timers, and can pass a shared
        #: instance to accumulate across detector rebuilds (a hand-over
        #: passes it on)
        self.timers = StageTimers() if timers is None else timers
        self._rules: List[RuleEvaluator] = []
        #: column → the evaluators reading it
        self._readers: Dict[str, List[RuleEvaluator]] = {}
        #: the ``(pfd_name, rule_index)`` identities held by more than one
        #: evaluator (only their violations can coincide)
        self._shared: set = set()
        #: the rule columns' codes, patched by each mutation; an edit
        #: takes the replaced value from here, never from the table
        self._columns: Dict[str, _CodedColumn] = {}
        #: the table version the state reflects
        self._synced_version = -1
        #: the comparisons the last seed made (see the module docstring)
        self.comparisons = 0
        self._rebuild()

    # -- seed and hand-over ------------------------------------------------------

    def _rebuild(self) -> None:
        """Seed the full per-rule state from the table's sharded view."""
        with self.timers.stage("seed"):
            self._install({}, {})

    def retained(self, pfds: Iterable[PFD]) -> "IncrementalDetector":
        """A detector over ``pfds`` that takes this one's state over.

        A rule this detector holds under the same content and name keeps
        its evaluators, and a rule column its codes; every other rule is
        seeded from the table's sharded view, and the rules not in
        ``pfds`` are dropped.  A detector behind its table hands over
        nothing and seeds every rule, as :meth:`refresh` would.

        This detector is not mutated, so a caller may still discard the
        new one and keep this one.  The two share the taken-over state:
        once either is mutated, the other is stale.
        """
        held: _Held = {}
        columns: Dict[str, _CodedColumn] = {}
        if self.table.version == self._synced_version:
            columns = self._columns
            start = 0
            for pfd in self.pfds:
                stop = start + len(pfd.tableau)
                held.setdefault(_held_key(pfd), self._rules[start:stop])
                start = stop
        successor = copy.copy(self)
        successor.pfds = list(pfds)
        with self.timers.stage("seed"):
            successor._install(held, columns)
        return successor

    def _install(self, held: _Held, columns: Dict[str, _CodedColumn]) -> None:
        """Set the state for ``self.pfds``: a rule ``held`` under its
        :func:`_held_key` takes those evaluators over, a column in
        ``columns`` its codes, and the rest is seeded from the table's
        sharded view."""
        kept = [held.pop(_held_key(pfd), None) if held else None for pfd in self.pfds]
        names = dict.fromkeys(
            n for pfd in self.pfds for n in (pfd.lhs_attribute, pfd.rhs_attribute)
        )
        missing = [name for name in names if name not in columns]
        view = self.table.as_sharded() if missing or None in kept else None
        encodings = view.column_encodings(missing) if missing else {}
        self._columns = {
            name: columns[name] if name in columns else _CodedColumn(encodings[name])
            for name in names
        }
        self._rules = []
        self.comparisons = 0
        for pfd, evaluators in zip(self.pfds, kept):
            self._rules.extend(self._seeded(view, pfd) if evaluators is None else evaluators)
        self._readers = {name: [] for name in self._columns}
        for evaluator in self._rules:
            for name in dict.fromkeys((evaluator.lhs, evaluator.rhs)):
                self._readers[name].append(evaluator)
        identities = Counter((ev.pfd_name, ev.rule_index) for ev in self._rules)
        self._shared = {rule for rule, count in identities.items() if count > 1}
        self._synced_version = self.table.version

    def _seeded(self, view, pfd: PFD) -> List[RuleEvaluator]:
        """One rule's evaluators, in tableau order, seeded from ``view``;
        their comparisons add to :attr:`comparisons`."""
        evaluators = []
        for rule_index, rule in enumerate(pfd.tableau):
            evaluator = make_rule_evaluator(pfd, rule_index, rule)
            # one LHS test or projection per distinct LHS value
            self.comparisons += len(pair_groups(view, evaluator.lhs, evaluator.rhs).groups)
            if isinstance(evaluator, VariableRuleEvaluator):
                self.comparisons += evaluator.seed_blocks(
                    split_blocks(view, evaluator, self.memo)
                )
            else:
                self.comparisons += evaluator.seed_value_groups(
                    value_groups(view, evaluator, self.memo), self.memo
                )
            evaluators.append(evaluator)
        return evaluators

    # -- mutation API ------------------------------------------------------------

    def set_cell(self, row: int, attribute: str, value: object) -> None:
        """Overwrite one cell and update the maintained report.

        Writes the table first, so its row and attribute checks raise
        before any state changes, then updates the state from its own
        arguments and the detector's codes: the table keeps no history
        and the replaced value is never read back from it.  A detector
        already behind the table skips the update and leaves the
        catching up to the next :meth:`refresh`."""
        in_sync = self.table.version == self._synced_version
        self.table.set_cell(row, attribute, value)
        if not in_sync:
            return
        self._synced_version = self.table.version
        column = self._columns.get(attribute)
        if column is None:
            return
        old, new = column.value(row), _stringify(value)
        if new == old:
            return
        with self.timers.stage("update"):
            column.set(row, new)
            columns = self._columns
            for evaluator in self._readers[attribute]:
                lhs = columns[evaluator.lhs].value(row)
                rhs = columns[evaluator.rhs].value(row)
                evaluator.update_row(
                    self.memo,
                    row,
                    old if evaluator.lhs == attribute else lhs,
                    old if evaluator.rhs == attribute else rhs,
                    lhs,
                    rhs,
                )

    def refresh(self) -> None:
        """Catch up with mutations applied directly to the table: they
        leave no record, so the state is re-seeded."""
        if self.table.version != self._synced_version:
            self._rebuild()

    # -- output ---------------------------------------------------------------------

    def report(self) -> ViolationReport:
        """The maintained report for the table's current contents.

        Refreshes first, so it is always safe to call after direct table
        mutations.  Violations come in evaluator order, each evaluator's
        rows ascending, deduplicated by
        :meth:`ViolationReport.identity_key`; compare against a batch run
        via :meth:`ViolationReport.canonical_violations`.
        """
        self.refresh()
        report = ViolationReport(n_rows=self.table.n_rows, comparisons=self.comparisons)
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
