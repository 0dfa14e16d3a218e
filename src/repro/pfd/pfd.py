"""The PFD class: an embedded FD plus a pattern tableau.

Terminology follows Section 3 of the paper:

* a **constant PFD** has only constants (or constant patterns) in the
  RHS cells of its tableau — e.g. λ3: ``([zip = 900\\D{2}] → [city = Los
  Angeles])``;
* a **variable PFD** has the wildcard ``⊥`` in the RHS — e.g. λ5:
  ``([zip = ⟨\\D{3}⟩\\D{2}] → [city = ⊥])`` — and is enforced pairwise via
  the ``≡_Q`` equivalence on the constrained LHS pattern.
"""

from __future__ import annotations

import enum
import json
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.constrained.constrained_pattern import ConstrainedPattern
from repro.errors import ConstraintError
from repro.patterns.pattern import Pattern
from repro.pfd.fd import EmbeddedFD
from repro.pfd.tableau import (
    PatternTableau,
    TableauCell,
    TableauRow,
    WILDCARD,
    Wildcard,
    cell_is_constant,
    cell_to_text,
)


class PfdKind(enum.Enum):
    """Whether a PFD fixes its RHS to constants or uses wildcards."""

    CONSTANT = "constant"
    VARIABLE = "variable"
    MIXED = "mixed"


class PFD:
    """A pattern functional dependency ``R(X → Y, Tp)``."""

    def __init__(
        self,
        fd: EmbeddedFD,
        tableau: Optional[PatternTableau] = None,
        name: Optional[str] = None,
        relation: Optional[str] = None,
    ):
        self.fd = fd
        self.tableau = tableau if tableau is not None else PatternTableau(list(fd.attributes))
        missing = set(fd.attributes) - set(self.tableau.attributes)
        if missing:
            raise ConstraintError(
                f"tableau is missing attributes {sorted(missing)} of the embedded FD {fd}"
            )
        self.name = name
        self.relation = relation

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(
        cls,
        lhs_attribute: str,
        rhs_attribute: str,
        rows: Iterable[Mapping[str, TableauCell]] = (),
        name: Optional[str] = None,
        relation: Optional[str] = None,
    ) -> "PFD":
        """Build a constant PFD from (lhs pattern → rhs constant) rows."""
        fd = EmbeddedFD.between(lhs_attribute, rhs_attribute)
        tableau = PatternTableau([lhs_attribute, rhs_attribute])
        pfd = cls(fd, tableau, name=name, relation=relation)
        for row in rows:
            pfd.add_rule(row)
        return pfd

    @classmethod
    def variable(
        cls,
        lhs_attribute: str,
        rhs_attribute: str,
        lhs_pattern: Union[ConstrainedPattern, Pattern, str],
        name: Optional[str] = None,
        relation: Optional[str] = None,
    ) -> "PFD":
        """Build a variable PFD: LHS constrained pattern, RHS wildcard."""
        fd = EmbeddedFD.between(lhs_attribute, rhs_attribute)
        tableau = PatternTableau([lhs_attribute, rhs_attribute])
        pfd = cls(fd, tableau, name=name, relation=relation)
        pfd.add_rule({lhs_attribute: _coerce_lhs(lhs_pattern), rhs_attribute: WILDCARD})
        return pfd

    def add_rule(self, row: Mapping[str, TableauCell]) -> TableauRow:
        """Append a pattern tuple to the tableau."""
        coerced = {}
        for attribute, cell in row.items():
            if attribute == self.lhs_attribute and isinstance(cell, str):
                # LHS strings are pattern syntax; RHS strings stay constants.
                coerced[attribute] = _coerce_lhs(cell)
            else:
                coerced[attribute] = cell
        return self.tableau.add_row(coerced)

    # -- accessors --------------------------------------------------------------

    @property
    def lhs_attribute(self) -> str:
        return self.fd.lhs_attribute

    @property
    def rhs_attribute(self) -> str:
        return self.fd.rhs_attribute

    @property
    def kind(self) -> PfdKind:
        """Constant / variable / mixed classification of the tableau."""
        rhs_cells = [row.cell(self.rhs_attribute) for row in self.tableau]
        if not rhs_cells:
            return PfdKind.CONSTANT
        constant = [cell_is_constant(c) for c in rhs_cells]
        if all(constant):
            return PfdKind.CONSTANT
        if not any(constant):
            return PfdKind.VARIABLE
        return PfdKind.MIXED

    @property
    def is_constant(self) -> bool:
        return self.kind is PfdKind.CONSTANT

    @property
    def is_variable(self) -> bool:
        return self.kind is PfdKind.VARIABLE

    def constant_rules(self) -> List[TableauRow]:
        """Tableau rows whose RHS cell is a constant."""
        return [
            row
            for row in self.tableau
            if cell_is_constant(row.cell(self.rhs_attribute))
        ]

    # -- coverage ----------------------------------------------------------------

    def coverage(self, lhs_values: Sequence[str]) -> float:
        """Fraction of LHS values matching at least one tableau row's LHS
        pattern — the "minimum coverage" statistic of Section 4."""
        if not lhs_values:
            return 0.0
        matched = 0
        lhs_cells = [row.cell(self.lhs_attribute) for row in self.tableau]
        for value in lhs_values:
            for cell in lhs_cells:
                if isinstance(cell, Wildcard):
                    matched += 1
                    break
                if isinstance(cell, str):
                    if value == cell:
                        matched += 1
                        break
                elif cell.matches(value):
                    matched += 1
                    break
        return matched / len(lhs_values)

    # -- rendering -----------------------------------------------------------------

    def describe(self) -> str:
        """One-line description in the paper's λ-notation."""
        relation = self.relation or "R"
        parts = []
        for row in self.tableau:
            lhs = cell_to_text(row.cell(self.lhs_attribute))
            rhs_cell = row.cell(self.rhs_attribute)
            if isinstance(rhs_cell, Wildcard):
                parts.append(f"[{self.lhs_attribute} = {lhs}] → [{self.rhs_attribute}]")
            else:
                parts.append(
                    f"[{self.lhs_attribute} = {lhs}] → "
                    f"[{self.rhs_attribute} = {cell_to_text(rhs_cell)}]"
                )
        body = "; ".join(parts) if parts else f"[{self.lhs_attribute}] → [{self.rhs_attribute}]"
        label = f"{self.name}: " if self.name else ""
        return f"{label}{relation} ({body})"

    def __str__(self) -> str:
        return self.describe()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PFD({self.fd}, {len(self.tableau)} rules, kind={self.kind.value})"

    # -- serialization ----------------------------------------------------------------

    def to_dict(self) -> Dict:
        """JSON-friendly representation (used by the project store)."""
        rows = []
        for row in self.tableau:
            cells = {}
            for attribute in self.tableau.attributes:
                cell = row.cell(attribute)
                if isinstance(cell, Wildcard):
                    cells[attribute] = {"kind": "wildcard"}
                elif isinstance(cell, str):
                    cells[attribute] = {"kind": "constant", "value": cell}
                elif isinstance(cell, ConstrainedPattern):
                    cells[attribute] = {"kind": "constrained", "value": cell.to_text()}
                else:
                    cells[attribute] = {"kind": "pattern", "value": cell.to_text()}
            rows.append(cells)
        return {
            "name": self.name,
            "relation": self.relation,
            "lhs": self.lhs_attribute,
            "rhs": self.rhs_attribute,
            "rows": rows,
        }

    def content_key(self) -> str:
        """The rule's identity by *content* — relation, attribute pair
        and tableau, ignoring the assigned ``psiN`` name — so a rule can
        be recognised after a re-check renumbers the rule set."""
        data = self.to_dict()
        data.pop("name", None)
        return json.dumps(data, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping) -> "PFD":
        """Inverse of :meth:`to_dict`."""
        pfd = cls(
            EmbeddedFD.between(data["lhs"], data["rhs"]),
            name=data.get("name"),
            relation=data.get("relation"),
        )
        for row in data.get("rows", ()):
            cells: Dict[str, TableauCell] = {}
            for attribute, cell in row.items():
                kind = cell["kind"]
                if kind == "wildcard":
                    cells[attribute] = WILDCARD
                elif kind == "constant":
                    cells[attribute] = cell["value"]
                elif kind == "constrained":
                    cells[attribute] = ConstrainedPattern.parse(cell["value"])
                else:
                    cells[attribute] = Pattern.parse(cell["value"])
            pfd.tableau.add_row(cells)
        return pfd


def _coerce_lhs(value: Union[ConstrainedPattern, Pattern, str]) -> TableauCell:
    """LHS cells given as strings are parsed as (constrained) patterns."""
    if isinstance(value, (ConstrainedPattern, Pattern)):
        return value
    if isinstance(value, Wildcard):
        return value
    if "⟨" in value or "<" in value:
        return ConstrainedPattern.parse(value)
    return Pattern.parse(value)
