"""The rule-evaluation engine of detection.

The paper's detection semantics (Section 3) come in two families —
constant tableau rules checked row by row, and variable rules checked
per ``≡_Q`` block with majority-witness selection.  This module is the
one place in the engine those semantics live:

* :class:`ConstantRuleEvaluator` — LHS match / RHS satisfaction checks
  and per-row :class:`~repro.detection.violation.Violation` construction
  for one constant tableau rule;
* :class:`VariableRuleEvaluator` — RHS groups of a ``≡_Q`` block,
  majority tie-breaking, witness selection, and violation construction
  for one variable tableau rule.

The evaluators serve one caller, the
:class:`~repro.detection.incremental.IncrementalDetector`, whose seed
*is* detection (:class:`~repro.detection.detector.ErrorDetector` and
the session both take its report) and whose updates are the edit loop.
They keep state on distinct values rather than on rows:

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

``update_row`` takes the row's old and new LHS and RHS *values* (the
caller decodes them from its own column codes), and
``emit()`` returns the maintained violations in ascending row order,
cached until the state changes.  Seeds and updates build their
violations through the same core (``make_violation`` / ``suspects``).

Pattern verdicts and constrained projections are always read through a
:class:`~repro.perf.memo.MatchMemo` (one regex run per distinct value),
and the caller hands in value groups and blocks resolved from its own
pair groups — the evaluators only own *semantics*, never candidate
enumeration.  The literal per-row loop of Section 3 they are held to
lives in ``tests/detection_reference.py``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
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
from repro.detection.violation import Violation, ViolationKind
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


def _sort_in_place(rows: RowIds) -> None:
    """Sort a row-id array ascending in place."""
    if len(rows) > 1:
        np.frombuffer(rows, dtype=np.int32).sort()


class ConstantRuleEvaluator:
    """One constant tableau rule's violation semantics and its
    maintained ``row → Violation`` map."""

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

    # -- incremental state hooks -----------------------------------------------

    def seed_value_groups(
        self, value_groups: Iterable[Tuple[str, Sequence[int]]], memo: MatchMemo
    ) -> int:
        """(Re)build the maintained state from the in-scope rows grouped
        by RHS value; returns the number of RHS checks (one per group).

        ``value_groups`` yields ``(observed RHS value, rows holding it)``
        pairs covering the rows whose LHS satisfies the rule.  The RHS
        check runs once per *group* instead of once per row: each row of
        a group whose value fails the RHS cell is a violation.
        """
        violations: Dict[int, Violation] = {}
        checks = 0
        for observed, rows in value_groups:
            checks += 1
            if self.rhs_satisfied(memo, observed):
                continue
            for row in rows:
                violations[row] = self.make_violation(row, observed)
        self.violations = violations
        self._emitted = None
        return checks

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
        current = self.violations.get(row)
        if self.lhs_matches(memo, new_lhs) and not self.rhs_satisfied(memo, new_rhs):
            if current is not None and current.observed_value == new_rhs:
                return
            self.violations[row] = self.make_violation(row, new_rhs)
        elif current is None:
            return
        else:
            del self.violations[row]
        self._emitted = None

    def emit(self) -> List[Violation]:
        """The maintained violations, rows ascending (a cached list the
        caller must not mutate)."""
        if self._emitted is None:
            violations = self.violations
            self._emitted = [violations[row] for row in sorted(violations)]
        return self._emitted


def majority_value(groups: Mapping[str, Sequence[int]]) -> str:
    """The RHS value held by the most rows of a block; count ties go to
    the lexicographically larger value, so results are deterministic."""
    return max(groups, key=lambda value: (len(groups[value]), value))


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
    """One variable tableau rule's violation semantics and its
    maintained state: per block, the RHS groups, majority, witness and
    the minority rows' violations."""

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

    # -- incremental state hooks -----------------------------------------------

    def seed_blocks(self, blocks: Mapping[Hashable, Dict[str, RowIds]]) -> int:
        """(Re)build the maintained state from ``block key → RHS value →
        rows`` (:func:`~repro.sharding.detection.split_blocks`); returns
        the number of rows in blocks of two or more rows (the rows
        compared).

        The evaluator takes the groups and their row-id arrays over and
        sorts the arrays in place: the caller hands over blocks it no
        longer reads.
        """
        self.state = {}
        compared = 0
        for key, groups in blocks.items():
            size = 0
            for rows in groups.values():
                _sort_in_place(rows)
                size += len(rows)
            if size > 1:
                compared += size
            block = self.state[key] = _BlockState(groups)
            self._rederive(block)
        self._emitted = None
        return compared

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
