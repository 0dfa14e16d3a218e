"""The literal per-row detection loop of Section 3, for tests.

The engine detects over pair groups of distinct values, memoized
pattern verdicts and maintained per-rule state; this module re-derives
its violations from the paper's definitions with none of that
machinery, so a fault in the engine's rule semantics shows up as a
difference:

* a tuple ``t`` violates a **constant rule** ``(tp[A] → tp[B]=b)`` when
  ``t[A] ↦ tp[A]`` and ``t[B]`` does not satisfy ``tp[B]``;
* a **variable rule** ``(tp[A]=Q → tp[B]=⊥)`` blocks the tuples by
  their constrained projection ``t[A](Q)`` (a tuple whose value does not
  match ``Q`` is in no block); inside a block, the RHS value held by
  the most rows is the majority (count ties go to the larger value),
  its first row is the witness, and every other row is a suspect
  paired with the witness.

Every row is matched and projected on its own: no memo, no grouping of
distinct values.  A variable rule's LHS must be a constrained pattern,
a pattern (the whole value is constrained) or a constant; a wildcard
LHS raises :class:`DetectionError`, as the engine does.

:func:`violating_pairs` is the quadratic pair check the blocking avoids,
and :func:`assert_matches_pairwise` holds a variable rule's violations
to it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set

from repro.constrained.constrained_pattern import ConstrainedPattern
from repro.detection.violation import Violation, ViolationKind, ViolationReport
from repro.errors import DetectionError
from repro.patterns.pattern import Pattern
from repro.pfd.tableau import Wildcard, cell_matches, cell_to_text


def detect(table, pfds: Iterable) -> ViolationReport:
    """Every violation of ``pfds`` over ``table``, rule by rule; a
    violation found twice (by two rules of one name) is kept once."""
    report = ViolationReport(n_rows=table.n_rows)
    seen = set()
    for pfd in pfds:
        for rule_index, rule in enumerate(pfd.tableau):
            if isinstance(rule.cell(pfd.rhs_attribute), Wildcard):
                found = variable_rule_violations(table, pfd, rule_index)
            else:
                found = constant_rule_violations(table, pfd, rule_index)
            for violation in found:
                key = report.identity_key(violation)
                if key not in seen:
                    seen.add(key)
                    report.add(violation)
    return report


def constant_rule_violations(table, pfd, rule_index: int) -> List[Violation]:
    """The rows whose LHS satisfies the rule and whose RHS does not."""
    rule = pfd.tableau[rule_index]
    lhs_cell = rule.cell(pfd.lhs_attribute)
    rhs_cell = rule.cell(pfd.rhs_attribute)
    lhs = table.column(pfd.lhs_attribute)
    rhs = table.column(pfd.rhs_attribute)
    violations = []
    for row in range(table.n_rows):
        if cell_matches(lhs_cell, lhs[row]) and not cell_matches(rhs_cell, rhs[row]):
            violations.append(
                Violation(
                    pfd_name=pfd.name or str(pfd.fd),
                    lhs_attribute=pfd.lhs_attribute,
                    rhs_attribute=pfd.rhs_attribute,
                    kind=ViolationKind.CONSTANT,
                    rule_index=rule_index,
                    rule_text=rule.render(),
                    rows=(row,),
                    observed_value=rhs[row],
                    expected_value=cell_to_text(rhs_cell),
                )
            )
    return violations


def variable_rule_violations(table, pfd, rule_index: int) -> List[Violation]:
    """The minority rows of each ``≡_Q`` block, each paired with the
    block's witness."""
    rule = pfd.tableau[rule_index]
    constrained = constrained_lhs(rule.cell(pfd.lhs_attribute))
    lhs = table.column(pfd.lhs_attribute)
    rhs = table.column(pfd.rhs_attribute)
    blocks: Dict[tuple, List[int]] = {}
    for row in range(table.n_rows):
        key = constrained.project(lhs[row])
        if key is not None:
            blocks.setdefault(key, []).append(row)
    violations = []
    for rows in blocks.values():
        groups: Dict[str, List[int]] = {}
        for row in rows:
            groups.setdefault(rhs[row], []).append(row)
        majority = max(groups, key=lambda value: (len(groups[value]), value))
        witness = groups[majority][0]
        for value, value_rows in groups.items():
            if value == majority:
                continue
            for row in value_rows:
                violations.append(
                    Violation(
                        pfd_name=pfd.name or str(pfd.fd),
                        lhs_attribute=pfd.lhs_attribute,
                        rhs_attribute=pfd.rhs_attribute,
                        kind=ViolationKind.VARIABLE,
                        rule_index=rule_index,
                        rule_text=rule.render(),
                        rows=(witness, row),
                        observed_value=value,
                        expected_value=majority,
                    )
                )
    return violations


def constrained_lhs(lhs_cell) -> ConstrainedPattern:
    """A variable rule's LHS cell as the constrained pattern its blocks
    are keyed by: a plain pattern or a constant constrains the whole
    value.  A wildcard has no projection, so it is rejected."""
    if isinstance(lhs_cell, ConstrainedPattern):
        return lhs_cell
    if isinstance(lhs_cell, Pattern):
        return ConstrainedPattern.whole_value(lhs_cell)
    if isinstance(lhs_cell, str):
        return ConstrainedPattern.whole_value(Pattern.literal(lhs_cell))
    raise DetectionError(f"variable rule has an unsupported LHS cell {lhs_cell!r}")


def equivalent(constrained: ConstrainedPattern, left: str, right: str) -> bool:
    """``left ≡_Q right`` (Section 2): both values match ``Q`` and their
    constrained projections agree."""
    projection = constrained.project(left)
    return projection is not None and projection == constrained.project(right)


def violating_pairs(table, pfd, rule_index: int = 0) -> Set[FrozenSet[int]]:
    """Every row pair violating one variable tableau rule of ``pfd``: the
    pairs whose LHS values are ``≡_Q``-equivalent and whose RHS values
    differ, found by comparing every pair."""
    constrained = constrained_lhs(pfd.tableau[rule_index].cell(pfd.lhs_attribute))
    lhs = table.column(pfd.lhs_attribute)
    rhs = table.column(pfd.rhs_attribute)
    pairs = set()
    for i in range(len(lhs)):
        for j in range(i + 1, len(lhs)):
            if rhs[i] != rhs[j] and equivalent(constrained, lhs[i], lhs[j]):
                pairs.add(frozenset((i, j)))
    return pairs


def assert_matches_pairwise(report, pairs: Set[FrozenSet[int]]) -> None:
    """A variable rule's violations against its literal violating pairs.

    Each violation is a ``(witness, suspect)`` pair of the majority
    group's first row and one minority row, so: every violation is a
    violating pair; every violating pair holds a suspect (two rows of
    different RHS values cannot both be in the majority); and the rows
    the witnesses pair with are exactly the violations' rows.
    """
    suspects = {violation.rows[1] for violation in report}
    witnesses = {violation.rows[0] for violation in report}
    assert {frozenset(violation.rows) for violation in report} <= pairs
    assert all(pair & suspects for pair in pairs)
    paired = {row for pair in pairs if pair & witnesses for row in pair}
    assert paired == {row for violation in report for row in violation.rows}
