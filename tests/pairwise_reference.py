"""The literal quadratic check of a variable PFD, for tests.

Compares every pair of rows — the naive algorithm the paper's blocking
avoids — with no memo, index or blocking: a pair violates the rule when
both LHS values match its constrained pattern, their projections are
equal and their RHS values differ.
"""

from __future__ import annotations

from typing import Set, FrozenSet

from repro.detection.rules import as_constrained


def violating_pairs(table, pfd, rule_index: int = 0) -> Set[FrozenSet[int]]:
    """Every row pair violating one variable tableau rule of ``pfd``."""
    constrained = as_constrained(pfd.tableau[rule_index].cell(pfd.lhs_attribute))
    lhs = table.column(pfd.lhs_attribute)
    rhs = table.column(pfd.rhs_attribute)
    pairs = set()
    for i in range(len(lhs)):
        left = constrained.project(lhs[i])
        if left is None:
            continue
        for j in range(i + 1, len(lhs)):
            if rhs[i] != rhs[j] and constrained.project(lhs[j]) == left:
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
