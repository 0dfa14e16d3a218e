"""Pattern tableaux.

A tableau ``Tp`` has one column per attribute of the embedded FD and any
number of rows (pattern tuples).  A cell is either a constrained pattern
that values of the attribute must match, a literal constant (a degenerate
pattern), or the unnamed wildcard ``⊥`` which matches anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.constrained.constrained_pattern import ConstrainedPattern
from repro.errors import ConstraintError
from repro.patterns.pattern import Pattern


class Wildcard:
    """The unnamed variable ``⊥`` used as a tableau wildcard."""

    _instance: Optional["Wildcard"] = None

    def __new__(cls) -> "Wildcard":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊥"

    def __str__(self) -> str:
        return "⊥"


#: Singleton wildcard value.
WILDCARD = Wildcard()

#: What a tableau cell may hold.
TableauCell = Union[Wildcard, str, Pattern, ConstrainedPattern]


def cell_matches(cell: TableauCell, value: str) -> bool:
    """Whether a value satisfies a tableau cell."""
    if isinstance(cell, Wildcard):
        return True
    if isinstance(cell, str):
        return value == cell
    if isinstance(cell, Pattern):
        return cell.matches(value)
    if isinstance(cell, ConstrainedPattern):
        return cell.matches(value)
    raise ConstraintError(f"unsupported tableau cell {cell!r}")


def cell_to_text(cell: TableauCell) -> str:
    """Render a tableau cell for display and serialization."""
    if isinstance(cell, Wildcard):
        return "⊥"
    if isinstance(cell, str):
        return cell
    return cell.to_text()


def cell_is_constant(cell: TableauCell) -> bool:
    """Whether the cell pins the attribute to specific value(s) rather than
    acting as a wildcard."""
    return not isinstance(cell, Wildcard)


@dataclass(frozen=True)
class TableauRow:
    """One pattern tuple ``tp`` of a tableau: attribute name → cell."""

    cells: Tuple[Tuple[str, TableauCell], ...]

    @classmethod
    def of(cls, mapping: Mapping[str, TableauCell]) -> "TableauRow":
        return cls(tuple(mapping.items()))

    def as_dict(self) -> Dict[str, TableauCell]:
        return dict(self.cells)

    def cell(self, attribute: str) -> TableauCell:
        for name, cell in self.cells:
            if name == attribute:
                return cell
        raise ConstraintError(f"tableau row has no cell for attribute {attribute!r}")

    def attributes(self) -> List[str]:
        return [name for name, _cell in self.cells]

    def render(self) -> str:
        """``pattern → pattern`` style rendering used in Table 3."""
        return ", ".join(f"{name}={cell_to_text(cell)}" for name, cell in self.cells)

    def __str__(self) -> str:
        return self.render()


class PatternTableau:
    """An ordered collection of tableau rows over a fixed attribute list."""

    def __init__(self, attributes: Sequence[str], rows: Iterable[TableauRow] = ()):
        if not attributes:
            raise ConstraintError("a tableau needs at least one attribute")
        self._attributes = list(attributes)
        self._rows: List[TableauRow] = []
        for row in rows:
            self.add_row(row)

    @property
    def attributes(self) -> List[str]:
        return list(self._attributes)

    @property
    def rows(self) -> List[TableauRow]:
        return list(self._rows)

    def add_row(self, row: Union[TableauRow, Mapping[str, TableauCell]]) -> TableauRow:
        """Append a pattern tuple; missing attributes default to ``⊥``."""
        if isinstance(row, TableauRow):
            mapping = row.as_dict()
        else:
            mapping = dict(row)
        unknown = set(mapping) - set(self._attributes)
        if unknown:
            raise ConstraintError(
                f"tableau row mentions unknown attributes {sorted(unknown)}; "
                f"tableau is over {self._attributes}"
            )
        full = {name: mapping.get(name, WILDCARD) for name in self._attributes}
        normalized = TableauRow.of(full)
        self._rows.append(normalized)
        return normalized

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[TableauRow]:
        return iter(self._rows)

    def __getitem__(self, index: int) -> TableauRow:
        return self._rows[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PatternTableau):
            return NotImplemented
        return self._attributes == other._attributes and self._rows == other._rows

    def render(self) -> str:
        """Multi-line rendering used by the Figure 4 report."""
        header = " | ".join(self._attributes)
        lines = [header, "-" * len(header)]
        for row in self._rows:
            lines.append(" | ".join(cell_to_text(row.cell(a)) for a in self._attributes))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PatternTableau({self._attributes}, {len(self._rows)} rows)"
