"""Violations: the output of error detection.

A violation identifies the cells "that are highly likely to be erroneous
values".  For a constant PFD a violation involves two cells of a single
tuple (the matching LHS cell and the disagreeing RHS cell); for a
variable PFD it involves the four cells of a tuple pair, exactly as in
the paper's r3/r4 example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Set, Tuple


#: A cell reference: (row index, attribute name).
Cell = Tuple[int, str]


class ViolationKind:
    """String constants naming the two violation families."""

    CONSTANT = "constant"
    VARIABLE = "variable"


@dataclass(frozen=True, slots=True)
class Violation:
    """One detected violation of a PFD rule.

    Kept deliberately compact (slotted, with the cell tuples derived
    rather than stored): detection reports on large datasets hold one
    instance per violating row, and the per-instance ``__dict__`` plus
    materialized cell tuples would otherwise rival the dataset itself.
    """

    pfd_name: str
    lhs_attribute: str
    rhs_attribute: str
    kind: str
    rule_index: int
    rule_text: str
    rows: Tuple[int, ...]
    observed_value: str
    expected_value: Optional[str] = None

    @property
    def cells(self) -> Tuple[Cell, ...]:
        """Every cell participating in the violation: each involved row
        crossed with the rule's attributes (just the one cell per row
        when the rule is over a single attribute)."""
        if self.lhs_attribute == self.rhs_attribute:
            return tuple((row, self.rhs_attribute) for row in self.rows)
        return tuple(
            (row, attr)
            for row in self.rows
            for attr in (self.lhs_attribute, self.rhs_attribute)
        )

    @property
    def suspect_cell(self) -> Cell:
        """The cell the engine believes is wrong — always the RHS cell of
        the offending tuple (the last entry of ``rows``)."""
        return (self.rows[-1], self.rhs_attribute)

    def describe(self) -> str:
        """Human-readable one-liner, e.g. ``8505467600 | CA`` of Table 3."""
        # `is not None`, not truthiness: an empty-string expectation (a
        # constant rule whose RHS constant is "") must still render.
        expectation = (
            f" (expected {self.expected_value!r})" if self.expected_value is not None else ""
        )
        return (
            f"{self.pfd_name}: rows {list(self.rows)} — "
            f"{self.rhs_attribute}={self.observed_value!r}{expectation} "
            f"violates [{self.rule_text}]"
        )

    def __str__(self) -> str:
        return self.describe()


@dataclass
class ViolationReport:
    """All violations found by one detection run."""

    violations: List[Violation] = field(default_factory=list)
    n_rows: int = 0
    elapsed_seconds: float = 0.0
    comparisons: int = 0

    def add(self, violation: Violation) -> None:
        self.violations.append(violation)

    def extend(self, violations: Iterable[Violation]) -> None:
        self.violations.extend(violations)

    def __len__(self) -> int:
        return len(self.violations)

    def __iter__(self) -> Iterator[Violation]:
        return iter(self.violations)

    def is_empty(self) -> bool:
        return not self.violations

    # -- aggregations ------------------------------------------------------------

    def suspect_cells(self) -> Set[Cell]:
        """Distinct cells flagged as likely errors."""
        return {v.suspect_cell for v in self.violations}

    def suspect_rows(self) -> List[int]:
        """Rows containing at least one suspect cell, sorted."""
        return sorted({row for row, _attr in self.suspect_cells()})

    def identity_key(self, violation: Violation) -> Tuple:
        """The dedup identity of a violation: a report keeps one
        violation per key."""
        return (
            violation.pfd_name,
            violation.rule_index,
            violation.rows,
            violation.suspect_cell,
        )

    def canonical_violations(self) -> List[Violation]:
        """The violations sorted by identity key.

        Detection emits violations in traversal order, which differs
        between a from-scratch run and an incrementally maintained
        report; sorting by the (unique) identity key gives both a single
        canonical form, so equivalence is plain ``==`` on the lists.
        """
        return sorted(self.violations, key=self.identity_key)
