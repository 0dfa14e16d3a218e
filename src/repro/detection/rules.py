"""Single rule-evaluation engine shared by every execution strategy.

The paper's detection semantics (Section 3) come in two families —
constant tableau rules checked row by row, and variable rules checked
per ``≡_Q`` block with majority-witness selection — and every execution
strategy (scan, index, bruteforce, incremental maintenance) must emit
*identical* violations for the same table.  This module is the one place
those semantics live:

* :class:`ConstantRuleEvaluator` — LHS match / RHS satisfaction checks
  and per-row :class:`~repro.detection.violation.Violation` construction
  for one constant tableau rule;
* :class:`VariableRuleEvaluator` — RHS splitting of a ``≡_Q`` block,
  majority tie-breaking, witness selection, and violation construction
  for one variable tableau rule.

Each evaluator has two entry points.  ``emit_full`` serves batch
detection: given the rows (or blocks) in scope it yields the rule's
violations without retaining state.  The fine-grained hooks
(``seed_full``, ``reevaluate_row``, ``move_row``, ``append_row``,
``delete_row``, ``rederive_block``) serve incremental maintenance: the
evaluator keeps per-rule state current under table deltas and ``emit()``
returns the maintained violations.  Both paths share the same core
(``block_violations_for`` / ``make_violation``), so batch and
incremental runs cannot drift apart.

Pattern verdicts and constrained projections are always read through a
:class:`~repro.perf.memo.MatchMemo` (one regex run per distinct value),
and the callers hand in rows/blocks resolved via the shared
``TABLE_ARTIFACTS`` cache — the evaluators only own *semantics*, never
candidate enumeration.
"""

from __future__ import annotations

from dataclasses import replace
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
from repro.detection.blocking import (
    add_row_to_blocks,
    majority_value,
    remove_row_from_blocks,
    renumber_blocks_after_delete,
    split_block_by_rhs,
)
from repro.detection.violation import Violation, ViolationKind, ViolationReport
from repro.errors import DetectionError
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


class ConstantRuleEvaluator:
    """One constant tableau rule's violation semantics.

    Stateless when driven through :meth:`emit_full`; stateful (a
    ``row → Violation`` map) when driven through the incremental hooks.
    """

    kind = ViolationKind.CONSTANT

    __slots__ = (
        "lhs", "rhs", "lhs_cell", "rhs_cell", "expected",
        "pfd_name", "rule_index", "rule_text", "violations",
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
        rule — candidate enumeration stays with the caller/strategy).

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

    def seed_full(
        self, rows: Iterable[int], rhs_values: Sequence[str], memo: MatchMemo
    ) -> None:
        """(Re)build the maintained state from the rule's in-scope rows."""
        self.violations = {
            violation.rows[0]: violation
            for violation in self.emit_full(rows, rhs_values, memo)
        }

    def reevaluate_row(
        self, memo: MatchMemo, row: int, lhs_value: str, rhs_value: str
    ) -> None:
        """Recompute one row's membership after its LHS or RHS changed."""
        if self.lhs_matches(memo, lhs_value) and not self.rhs_satisfied(memo, rhs_value):
            self.violations[row] = self.make_violation(row, rhs_value)
        else:
            self.violations.pop(row, None)

    def append_row(
        self, memo: MatchMemo, row: int, lhs_value: str, rhs_value: str
    ) -> None:
        """Evaluate a freshly appended row (same check as a re-evaluation)."""
        self.reevaluate_row(memo, row, lhs_value, rhs_value)

    def delete_row(self, row: int) -> None:
        self.violations.pop(row, None)
        self.violations = {
            (r - 1 if r > row else r): (
                shift_violation_after_delete(v, row) if r > row else v
            )
            for r, v in self.violations.items()
        }

    def emit(self) -> Iterable[Violation]:
        for row in sorted(self.violations):
            yield self.violations[row]


class VariableRuleEvaluator:
    """One variable tableau rule's violation semantics.

    Stateless when driven through :meth:`emit_full` over derived blocks;
    stateful (``≡_Q`` blocks plus per-block violations) when driven
    through the incremental hooks.
    """

    kind = ViolationKind.VARIABLE

    __slots__ = (
        "lhs", "rhs", "constrained", "pfd_name", "rule_index", "rule_text",
        "blocks", "row_key", "block_violations",
    )

    def __init__(self, pfd: PFD, rule_index: int, rule) -> None:
        self.lhs = pfd.lhs_attribute
        self.rhs = pfd.rhs_attribute
        self.constrained = as_constrained(rule.cell(self.lhs))
        self.pfd_name = pfd.name or str(pfd.fd)
        self.rule_index = rule_index
        self.rule_text = rule.render()
        #: projection key → ascending row list (the ``≡_Q`` block)
        self.blocks: Dict[Hashable, List[int]] = {}
        #: row → its block key (rows whose projection is None are absent)
        self.row_key: Dict[int, Hashable] = {}
        #: block key → that block's current violations
        self.block_violations: Dict[Hashable, List[Violation]] = {}

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
        witness = min(groups[majority])
        violations: List[Violation] = []
        for value, value_rows in groups.items():
            if value == majority:
                continue
            for row in value_rows:
                violations.append(
                    Violation(
                        pfd_name=self.pfd_name,
                        lhs_attribute=self.lhs,
                        rhs_attribute=self.rhs,
                        kind=ViolationKind.VARIABLE,
                        rule_index=self.rule_index,
                        rule_text=self.rule_text,
                        rows=(witness, row),
                        observed_value=value,
                        expected_value=majority,
                    )
                )
        return violations

    # -- batch entry point -----------------------------------------------------

    def emit_full(
        self,
        blocks: Union[Mapping[Hashable, Sequence[int]], Iterable[Sequence[int]]],
        rhs_values: Sequence[str],
        report: Optional[ViolationReport] = None,
    ) -> Iterator[Violation]:
        """Violations of every block (a ``key → rows`` mapping or a bare
        iterable of row lists — deriving the blocks stays with the
        caller/strategy).

        With a ``report`` every multi-row block counts its size into the
        ``comparisons`` statistic, matching the cost model of the
        blocking strategies; the bruteforce path passes no report since
        its pair loop already counted.
        """
        block_lists = blocks.values() if isinstance(blocks, Mapping) else blocks
        for rows in block_lists:
            if len(rows) < 2:
                continue
            if report is not None:
                report.comparisons += len(rows)
            yield from self.block_violations_for(rows, rhs_values)

    # -- incremental state hooks -----------------------------------------------

    def seed_full(
        self, memo: MatchMemo, lhs_values: Sequence[str], rhs_values: Sequence[str]
    ) -> None:
        """(Re)build blocks, row keys, and violations from full columns."""
        self.blocks = {}
        self.row_key = {}
        self.block_violations = {}
        project = memo.projector(self.constrained)
        for row, value in enumerate(lhs_values):
            key = project(value)
            if key is None:
                continue
            self.blocks.setdefault(key, []).append(row)
            self.row_key[row] = key
        for key, rows in self.blocks.items():
            violations = self.block_violations_for(rows, rhs_values)
            if violations:
                self.block_violations[key] = violations

    def rederive_block(self, key: Hashable, rhs_values: Sequence[str]) -> None:
        """Recompute one block's violations through the shared core."""
        self.block_violations.pop(key, None)
        rows = self.blocks.get(key)
        if rows is None:
            return
        violations = self.block_violations_for(rows, rhs_values)
        if violations:
            self.block_violations[key] = violations

    def move_row(
        self,
        memo: MatchMemo,
        row: int,
        new_lhs_value: str,
        rhs_values: Sequence[str],
    ) -> None:
        """Re-home a row whose LHS value changed; re-derive both blocks."""
        old_key = self.row_key.get(row)
        new_key = memo.project(self.constrained, new_lhs_value)
        if old_key == new_key:
            # Same block (the violation payload carries no LHS values),
            # or still unmatched: nothing can have changed.
            return
        if old_key is not None:
            remove_row_from_blocks(self.blocks, old_key, row)
            self.rederive_block(old_key, rhs_values)
        if new_key is None:
            self.row_key.pop(row, None)
        else:
            add_row_to_blocks(self.blocks, new_key, row)
            self.row_key[row] = new_key
            self.rederive_block(new_key, rhs_values)

    def rhs_changed(self, row: int, rhs_values: Sequence[str]) -> None:
        key = self.row_key.get(row)
        if key is not None:
            self.rederive_block(key, rhs_values)

    def append_row(
        self,
        memo: MatchMemo,
        row: int,
        lhs_value: str,
        rhs_values: Sequence[str],
    ) -> None:
        key = memo.project(self.constrained, lhs_value)
        if key is None:
            return
        add_row_to_blocks(self.blocks, key, row)
        self.row_key[row] = key
        self.rederive_block(key, rhs_values)

    def delete_row(self, row: int, rhs_values: Sequence[str]) -> None:
        """Unpost a deleted row, renumber everything behind it, and
        re-derive the block it left (``rhs_values`` are post-delete)."""
        key = self.row_key.pop(row, None)
        if key is not None:
            remove_row_from_blocks(self.blocks, key, row)
        renumber_blocks_after_delete(self.blocks, row)
        self.row_key = {
            (r - 1 if r > row else r): k for r, k in self.row_key.items()
        }
        # Untouched blocks only need their stored row references shifted;
        # membership, majorities, and witnesses are unchanged for them.
        self.block_violations = {
            k: [shift_violation_after_delete(v, row) for v in violations]
            for k, violations in self.block_violations.items()
            if k != key
        }
        if key is not None:
            self.rederive_block(key, rhs_values)

    def emit(self) -> Iterable[Violation]:
        collected: List[Violation] = []
        for violations in self.block_violations.values():
            collected.extend(violations)
        collected.sort(key=lambda v: (v.rows, v.suspect_cell))
        return collected


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
