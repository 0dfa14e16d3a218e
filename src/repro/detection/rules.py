"""Single rule-evaluation engine shared by every detection route.

The paper's detection semantics (Section 3) come in two families —
constant tableau rules checked row by row, and variable rules checked
per ``≡_Q`` block with majority-witness selection — and every execution
route (the table detector, sharded detection, incremental maintenance)
must emit *identical* violations for the same table.  This module is the
one place those semantics live:

* :class:`ConstantRuleEvaluator` — LHS match / RHS satisfaction checks
  and per-row :class:`~repro.detection.violation.Violation` construction
  for one constant tableau rule;
* :class:`VariableRuleEvaluator` — RHS splitting of a ``≡_Q`` block,
  majority tie-breaking, witness selection, and violation construction
  for one variable tableau rule.

Each evaluator has two entry points.  ``emit_full`` /
``emit_value_groups`` / ``violations_for_groups`` serve batch detection:
given the rows (or blocks) in scope they yield the rule's violations
without retaining state.  The state hooks serve incremental
maintenance, and work on distinct values rather than on rows:

* a constant rule is seeded with one RHS verdict per ``(LHS value, RHS
  value)`` group (:meth:`ConstantRuleEvaluator.seed_value_groups`) and
  keeps ``row → violation``; an edit re-checks one row;
* a variable rule is seeded from ``block key → RHS value → rows``
  (:meth:`VariableRuleEvaluator.seed_blocks`) and keeps, per block, the
  ascending row ids of each RHS group (a group's size is its count),
  the majority value, the witness and the minority rows' violations.
  An edit moves one row id between two groups; the block's violations
  are re-derived only when its majority or its witness changes,
  otherwise one row's violation is added or dropped.

``update_row`` / ``append_row`` / ``delete_row`` take the row's LHS and
RHS *values* (the caller decodes them from its own column codes), and
``emit()`` returns the maintained violations in ascending row order,
cached until the state changes.  Batch and incremental runs build their
violations through the same core (``make_violation`` /
``suspects``), so they cannot drift apart.

Pattern verdicts and constrained projections are always read through a
:class:`~repro.perf.memo.MatchMemo` (one regex run per distinct value),
and the callers hand in rows/blocks resolved via their own cached
artifacts — the evaluators only own *semantics*, never candidate
enumeration.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import replace
from operator import attrgetter
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.constrained.constrained_pattern import ConstrainedPattern
from repro.dataset.rowids import RowIds, row_ids
from repro.detection.blocking import majority_value, split_block_by_rhs
from repro.detection.violation import Violation, ViolationKind, ViolationReport
from repro.errors import DetectionError
from repro.kernels.runtime import np
from repro.patterns.pattern import Pattern
from repro.perf.memo import MatchMemo
from repro.pfd.pfd import PFD
from repro.pfd.tableau import Wildcard, cell_matches, cell_to_text


def as_constrained(lhs_cell) -> ConstrainedPattern:
    """Normalize a variable rule's LHS cell to a constrained pattern."""
    if isinstance(lhs_cell, ConstrainedPattern):
        return lhs_cell
    if isinstance(lhs_cell, Pattern):
        return ConstrainedPattern.whole_value(lhs_cell)
    if isinstance(lhs_cell, str):
        return ConstrainedPattern.whole_value(Pattern.literal(lhs_cell))
    raise DetectionError(
        f"variable rule has an unsupported LHS cell {lhs_cell!r}; "
        "expected a pattern or constrained pattern"
    )


def shift_violation_after_delete(violation: Violation, deleted_row: int) -> Violation:
    """Renumber a violation's row references after a row deletion.

    The violation must not reference the deleted row itself (those are
    re-derived from their block instead of shifted).
    """

    def shift(row: int) -> int:
        return row - 1 if row > deleted_row else row

    return replace(
        violation,
        rows=tuple(shift(r) for r in violation.rows),
    )


def _shifted_after_delete(
    violations: Mapping[int, Violation], deleted_row: int
) -> Dict[int, Violation]:
    """A ``suspect row → violation`` map renumbered after a deletion;
    violations wholly before the deleted row are kept as they are."""
    return {
        (row - 1 if row > deleted_row else row): (
            shift_violation_after_delete(violation, deleted_row)
            if max(violation.rows) > deleted_row
            else violation
        )
        for row, violation in violations.items()
    }


def elect_expected_value(violations: Sequence[Violation]) -> Tuple[str, Violation, float]:
    """The expected value backed by the most violations over one cell.

    The repair layer's attribution semantics, kept next to the emission
    semantics that produce the ``expected_value`` fields it counts:
    returns ``(winner, backer, confidence)`` where ties keep the
    first-seen value (dict insertion order), the backer is an actual
    violation that voted for the winner, and the confidence is the
    fraction of the cell's violations that agree with it.
    """
    votes: Dict[str, int] = {}
    for violation in violations:
        votes[violation.expected_value] = votes.get(violation.expected_value, 0) + 1
    winner = max(votes, key=lambda value: votes[value])
    backer = next(v for v in violations if v.expected_value == winner)
    return winner, backer, votes[winner] / len(violations)


def _sorted_row_ids(rows: Iterable[int]) -> RowIds:
    """A fresh ascending row-id array holding ``rows`` (never an alias)."""
    out = row_ids(rows)
    if len(out) > 1:
        np.frombuffer(out, dtype=np.int32).sort()
    return out


def _shift_down_from(rows: RowIds, start: int) -> None:
    """Decrement ``rows[start:]`` by one in place."""
    if start < len(rows):
        view = np.frombuffer(rows, dtype=np.int32)
        view[start:] -= 1


class ConstantRuleEvaluator:
    """One constant tableau rule's violation semantics.

    Stateless when driven through :meth:`emit_full` /
    :meth:`emit_value_groups`; stateful (a ``row → Violation`` map) when
    driven through the incremental hooks.
    """

    kind = ViolationKind.CONSTANT

    __slots__ = (
        "lhs", "rhs", "lhs_cell", "rhs_cell", "expected",
        "pfd_name", "rule_index", "rule_text", "violations", "_emitted",
    )

    def __init__(self, pfd: PFD, rule_index: int, rule) -> None:
        self.lhs = pfd.lhs_attribute
        self.rhs = pfd.rhs_attribute
        self.lhs_cell = rule.cell(self.lhs)
        self.rhs_cell = rule.cell(self.rhs)
        self.expected = cell_to_text(self.rhs_cell)
        self.pfd_name = pfd.name or str(pfd.fd)
        self.rule_index = rule_index
        self.rule_text = rule.render()
        #: row → its violation (only violating rows are stored)
        self.violations: Dict[int, Violation] = {}
        #: :meth:`emit`'s cached answer (``None`` once the state changed)
        self._emitted: Optional[List[Violation]] = None

    # -- semantic core ---------------------------------------------------------

    def lhs_matches(self, memo: MatchMemo, value: str) -> bool:
        if isinstance(self.lhs_cell, (Pattern, ConstrainedPattern)):
            return memo.matches(self.lhs_cell, value)
        return cell_matches(self.lhs_cell, value)

    def rhs_satisfied(self, memo: MatchMemo, value: str) -> bool:
        if isinstance(self.rhs_cell, (Pattern, ConstrainedPattern)):
            return memo.matches(self.rhs_cell, value)
        return cell_matches(self.rhs_cell, value)

    def make_violation(self, row: int, observed: str) -> Violation:
        return Violation(
            pfd_name=self.pfd_name,
            lhs_attribute=self.lhs,
            rhs_attribute=self.rhs,
            kind=ViolationKind.CONSTANT,
            rule_index=self.rule_index,
            rule_text=self.rule_text,
            rows=(row,),
            observed_value=observed,
            expected_value=self.expected,
        )

    # -- batch entry points ----------------------------------------------------

    def emit_full(
        self,
        rows: Iterable[int],
        rhs_values: Sequence[str],
        memo: MatchMemo,
        report: Optional[ViolationReport] = None,
    ) -> Iterator[Violation]:
        """Violations among ``rows`` (the rows whose LHS satisfies the
        rule — candidate enumeration stays with the caller).

        With a ``report`` the per-row RHS checks are counted into its
        ``comparisons`` statistic.
        """
        for row in rows:
            if report is not None:
                report.comparisons += 1
            observed = rhs_values[row]
            if self.rhs_satisfied(memo, observed):
                continue
            yield self.make_violation(row, observed)

    def emit_value_groups(
        self,
        value_groups: Iterable[Tuple[str, Sequence[int]]],
        memo: MatchMemo,
        report: Optional[ViolationReport] = None,
    ) -> Iterator[Violation]:
        """Violations among in-scope rows pre-grouped by their RHS value.

        ``value_groups`` yields ``(observed RHS value, rows holding it)``
        pairs covering the rows whose LHS satisfies the rule.  The RHS
        check runs once per *group* instead of once per row — the shape
        the sharded engine feeds from its merged distinct-value
        statistics — and the emitted violations are exactly
        :meth:`emit_full`'s for the union of the groups' rows.

        With a ``report`` each group counts one check into the
        ``comparisons`` statistic (the sharded engine's cost model is
        distinct-value-level, not row-level).
        """
        for observed, rows in value_groups:
            if report is not None:
                report.comparisons += 1
            if self.rhs_satisfied(memo, observed):
                continue
            for row in rows:
                yield self.make_violation(row, observed)

    # -- incremental state hooks -----------------------------------------------

    def seed_value_groups(
        self, value_groups: Iterable[Tuple[str, Sequence[int]]], memo: MatchMemo
    ) -> None:
        """(Re)build the maintained state from the in-scope rows grouped
        by RHS value (:meth:`emit_value_groups`' input: one RHS verdict
        per group)."""
        self.violations = {
            violation.rows[0]: violation
            for violation in self.emit_value_groups(value_groups, memo)
        }
        self._emitted = None

    def update_row(
        self,
        memo: MatchMemo,
        row: int,
        old_lhs: str,
        old_rhs: str,
        new_lhs: str,
        new_rhs: str,
    ) -> None:
        """Re-check one row after its LHS or RHS value changed."""
        self.append_row(memo, row, new_lhs, new_rhs)

    def append_row(
        self, memo: MatchMemo, row: int, lhs_value: str, rhs_value: str
    ) -> None:
        """Check one row holding these values (a fresh or an edited row)."""
        current = self.violations.get(row)
        if self.lhs_matches(memo, lhs_value) and not self.rhs_satisfied(memo, rhs_value):
            if current is not None and current.observed_value == rhs_value:
                return
            self.violations[row] = self.make_violation(row, rhs_value)
        elif current is None:
            return
        else:
            del self.violations[row]
        self._emitted = None

    def delete_row(
        self, memo: MatchMemo, row: int, lhs_value: str, rhs_value: str
    ) -> None:
        """Drop a deleted row and renumber the rows behind it."""
        self.violations.pop(row, None)
        self.violations = _shifted_after_delete(self.violations, row)
        self._emitted = None

    def emit(self) -> List[Violation]:
        """The maintained violations, rows ascending (a cached list the
        caller must not mutate)."""
        if self._emitted is None:
            violations = self.violations
            self._emitted = [violations[row] for row in sorted(violations)]
        return self._emitted


class _BlockState:
    """One ``≡_Q`` block's maintained state."""

    __slots__ = ("groups", "majority", "witness", "violations", "emitted")

    def __init__(self, groups: Dict[str, RowIds]) -> None:
        #: RHS value → the ascending ids of the block's rows holding it
        #: (the group's size is its count)
        self.groups = groups
        #: the majority RHS value (ties broken lexicographically)
        self.majority: str = ""
        #: the first row of the majority group
        self.witness = -1
        #: minority row → its violation
        self.violations: Dict[int, Violation] = {}
        #: the violations in row order (``None`` once they changed)
        self.emitted: Optional[List[Violation]] = None


class VariableRuleEvaluator:
    """One variable tableau rule's violation semantics.

    Stateless when driven through :meth:`emit_full` /
    :meth:`violations_for_groups` over derived blocks; stateful (per
    block, RHS groups, majority, witness and the minority rows'
    violations) when driven through the incremental hooks.
    """

    kind = ViolationKind.VARIABLE

    __slots__ = (
        "lhs", "rhs", "constrained", "pfd_name", "rule_index", "rule_text",
        "state", "_emitted",
    )

    def __init__(self, pfd: PFD, rule_index: int, rule) -> None:
        self.lhs = pfd.lhs_attribute
        self.rhs = pfd.rhs_attribute
        self.constrained = as_constrained(rule.cell(self.lhs))
        self.pfd_name = pfd.name or str(pfd.fd)
        self.rule_index = rule_index
        self.rule_text = rule.render()
        #: projection key → that block's maintained state
        self.state: Dict[Hashable, _BlockState] = {}
        #: :meth:`emit`'s cached answer (``None`` once the state changed)
        self._emitted: Optional[List[Violation]] = None

    # -- semantic core ---------------------------------------------------------

    def block_violations_for(
        self, rows: Sequence[int], rhs_values: Sequence[str]
    ) -> List[Violation]:
        """One block's violations: split by RHS, pick the majority value
        (ties broken lexicographically), suspect every minority row with
        the majority's first row as witness."""
        if len(rows) < 2:
            return []
        return self.violations_for_groups(split_block_by_rhs(rows, rhs_values))

    def violations_for_groups(
        self, groups: Mapping[str, Sequence[int]]
    ) -> List[Violation]:
        """One block's violations from its pre-split ``RHS value → rows``
        groups.

        The semantic core shared by :meth:`block_violations_for` (which
        splits an in-order row list) and the sharded engine (which pours
        the row lists of several LHS values into one block, so a group's
        rows are not globally sorted — hence the witness is ``min()`` of
        the majority group, which equals "first row" whenever the lists
        are ascending).
        """
        if len(groups) < 2:
            return []
        majority = majority_value(groups)
        return list(self.suspects(groups, majority, min(groups[majority])))

    def suspects(
        self, groups: Mapping[str, Sequence[int]], majority: str, witness: int
    ) -> Iterator[Violation]:
        """The violations of every row outside the majority group, in
        group order then row order."""
        for value, value_rows in groups.items():
            if value == majority:
                continue
            for row in value_rows:
                yield self.make_violation(witness, row, value, majority)

    def make_violation(
        self, witness: int, row: int, observed: str, majority: str
    ) -> Violation:
        return Violation(
            pfd_name=self.pfd_name,
            lhs_attribute=self.lhs,
            rhs_attribute=self.rhs,
            kind=ViolationKind.VARIABLE,
            rule_index=self.rule_index,
            rule_text=self.rule_text,
            rows=(witness, row),
            observed_value=observed,
            expected_value=majority,
        )

    # -- batch entry point -----------------------------------------------------

    def emit_full(
        self,
        blocks: Union[Mapping[Hashable, Sequence[int]], Iterable[Sequence[int]]],
        rhs_values: Sequence[str],
        report: Optional[ViolationReport] = None,
    ) -> Iterator[Violation]:
        """Violations of every block (a ``key → rows`` mapping or a bare
        iterable of row lists — deriving the blocks stays with the
        caller).

        With a ``report`` every multi-row block counts its size into the
        ``comparisons`` statistic.
        """
        block_lists = blocks.values() if isinstance(blocks, Mapping) else blocks
        for rows in block_lists:
            if len(rows) < 2:
                continue
            if report is not None:
                report.comparisons += len(rows)
            yield from self.block_violations_for(rows, rhs_values)

    # -- incremental state hooks -----------------------------------------------

    def seed_blocks(
        self, blocks: Mapping[Hashable, Mapping[str, Sequence[int]]]
    ) -> None:
        """(Re)build the maintained state from ``block key → RHS value →
        rows`` (the sharded detector's blocks).  The row lists are
        copied, never aliased."""
        self.state = {}
        for key, groups in blocks.items():
            block = _BlockState(
                {value: _sorted_row_ids(rows) for value, rows in groups.items()}
            )
            self.state[key] = block
            self._rederive(block)
        self._emitted = None

    def update_row(
        self,
        memo: MatchMemo,
        row: int,
        old_lhs: str,
        old_rhs: str,
        new_lhs: str,
        new_rhs: str,
    ) -> None:
        """Move one row whose LHS or RHS value changed to its new group."""
        old_key = memo.project(self.constrained, old_lhs)
        new_key = memo.project(self.constrained, new_lhs)
        if old_key == new_key and old_rhs == new_rhs:
            # same group (the violation payload carries no LHS values),
            # or still unmatched: nothing can have changed
            return
        if old_key is not None:
            self._remove(old_key, old_rhs, row)
        if new_key is not None:
            self._insert(new_key, new_rhs, row)

    def append_row(
        self, memo: MatchMemo, row: int, lhs_value: str, rhs_value: str
    ) -> None:
        """Post a freshly appended row."""
        key = memo.project(self.constrained, lhs_value)
        if key is not None:
            self._insert(key, rhs_value, row)

    def delete_row(
        self, memo: MatchMemo, row: int, lhs_value: str, rhs_value: str
    ) -> None:
        """Unpost a deleted row and renumber every row behind it."""
        key = memo.project(self.constrained, lhs_value)
        if key is not None:
            self._remove(key, rhs_value, row)
        for block in self.state.values():
            for rows in block.groups.values():
                _shift_down_from(rows, bisect_right(rows, row))
            if block.witness > row:
                block.witness -= 1
            if block.violations:
                block.violations = _shifted_after_delete(block.violations, row)
                block.emitted = None
        self._emitted = None

    def emit(self) -> List[Violation]:
        """The maintained violations ordered by ``(witness, row)`` — the
        blocks by witness, each block's rows ascending (a cached list
        the caller must not mutate)."""
        if self._emitted is None:
            emitted: List[Violation] = []
            violating = [block for block in self.state.values() if block.violations]
            for block in sorted(violating, key=attrgetter("witness")):
                if block.emitted is None:
                    violations = block.violations
                    block.emitted = [violations[row] for row in sorted(violations)]
                emitted.extend(block.emitted)
            self._emitted = emitted
        return self._emitted

    # -- block maintenance -------------------------------------------------------

    def _rederive(self, block: _BlockState) -> None:
        """Re-elect a block's majority and witness and rebuild its
        violations through the shared core."""
        groups = block.groups
        block.majority = majority = majority_value(groups)
        block.witness = witness = groups[majority][0]
        block.violations = {
            violation.rows[-1]: violation
            for violation in self.suspects(groups, majority, witness)
        }
        block.emitted = None
        self._emitted = None

    def _insert(self, key: Hashable, value: str, row: int) -> None:
        """Add a row (not yet in the block) to one RHS group."""
        block = self.state.get(key)
        if block is None:
            block = self.state[key] = _BlockState({value: row_ids((row,))})
            block.majority, block.witness = value, row
            return
        rows = block.groups.get(value)
        if rows is None:
            rows = block.groups[value] = row_ids()
        insort(rows, row)
        majority = block.majority
        if value == majority:
            if row < block.witness:
                self._rederive(block)  # a new witness
        elif (len(rows), value) > (len(block.groups[majority]), majority):
            self._rederive(block)  # the majority flipped to this value
        else:
            block.violations[row] = self.make_violation(
                block.witness, row, value, majority
            )
            block.emitted = self._emitted = None

    def _remove(self, key: Hashable, value: str, row: int) -> None:
        """Take a row out of its RHS group."""
        block = self.state.get(key)
        rows = block.groups.get(value) if block is not None else None
        at = bisect_left(rows, row) if rows is not None else 0
        if rows is None or at == len(rows) or rows[at] != row:
            raise DetectionError(
                f"block state out of sync: row {row} not in group {value!r} of {key!r}"
            )
        del rows[at]
        if not rows:
            del block.groups[value]
            if not block.groups:
                del self.state[key]  # a one-row block held no violations
                return
        if value != block.majority:
            del block.violations[row]  # a minority row left
            block.emitted = self._emitted = None
        elif row == block.witness or majority_value(block.groups) != value:
            self._rederive(block)  # the witness left, or the majority flipped


#: Either evaluator family (they share the entry-point protocol).
RuleEvaluator = Union[ConstantRuleEvaluator, VariableRuleEvaluator]


def make_rule_evaluator(pfd: PFD, rule_index: int, rule) -> RuleEvaluator:
    """The evaluator for one tableau rule: a wildcard RHS makes it a
    variable rule, anything else a constant rule."""
    if isinstance(rule.cell(pfd.rhs_attribute), Wildcard):
        return VariableRuleEvaluator(pfd, rule_index, rule)
    return ConstantRuleEvaluator(pfd, rule_index, rule)


def build_rule_evaluators(pfd: PFD) -> List[RuleEvaluator]:
    """One evaluator per tableau rule, in tableau order."""
    return [
        make_rule_evaluator(pfd, rule_index, rule)
        for rule_index, rule in enumerate(pfd.tableau)
    ]
