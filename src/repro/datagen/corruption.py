"""Error injection with ground-truth tracking.

Every generator produces a clean table and then corrupts a controlled
fraction of cells through :class:`ErrorInjector`, which records exactly
which cells were touched.  Three corruption families are supported,
chosen to exercise different detectors:

* **swap** — replace the value with a *different but well-formed* value
  of the same domain (a valid state paired with the wrong area code).
  Only dependency-based detectors can catch these.
* **typo** — drop, duplicate or transpose a character ("Chicag",
  "Chciago").  Syntactic outlier detectors can catch many of these.
* **case** — lower-case a character of an otherwise upper-case code
  ("lL" for "IL"), reproducing the Table 3 examples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence, Set, Tuple

from repro.dataset.table import Table

Cell = Tuple[int, str]


@dataclass
class CorruptionSpec:
    """How to corrupt one attribute."""

    attribute: str
    error_rate: float
    kind: str = "swap"  # swap | typo | case
    #: value pool for swap corruption; defaults to the column's own values
    alternatives: Optional[Sequence[str]] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.error_rate <= 1.0:
            raise ValueError(f"error_rate must be in [0, 1], got {self.error_rate}")
        if self.kind not in ("swap", "typo", "case"):
            raise ValueError(f"unknown corruption kind {self.kind!r}")


@dataclass
class GeneratedDataset:
    """A generated table together with its ground truth."""

    name: str
    table: Table
    clean_table: Table
    error_cells: Set[Cell] = field(default_factory=set)
    description: str = ""

    @property
    def n_errors(self) -> int:
        return len(self.error_cells)


def _typo(value: str, rng: random.Random) -> str:
    """Introduce a single-character typo, guaranteed to change the value."""
    if not value:
        return "?"
    for _ in range(10):
        choice = rng.choice(("drop", "dup", "swap"))
        position = rng.randrange(len(value))
        if choice == "drop" and len(value) > 1:
            candidate = value[:position] + value[position + 1 :]
        elif choice == "dup":
            candidate = value[:position] + value[position] + value[position:]
        else:
            if len(value) < 2:
                continue
            position = rng.randrange(len(value) - 1)
            candidate = (
                value[:position]
                + value[position + 1]
                + value[position]
                + value[position + 2 :]
            )
        if candidate != value:
            return candidate
    return value + "~"


def _case_flip(value: str, rng: random.Random) -> str:
    """Lower-case one upper-case character (or upper-case a lower one)."""
    letters = [i for i, c in enumerate(value) if c.isalpha()]
    if not letters:
        return _typo(value, rng)
    position = rng.choice(letters)
    char = value[position]
    flipped = char.lower() if char.isupper() else char.upper()
    if flipped == char:
        return _typo(value, rng)
    return value[:position] + flipped + value[position + 1 :]


class ErrorInjector:
    """Applies corruption specs to a table, recording the touched cells."""

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)

    def corrupt(
        self, table: Table, specs: Sequence[CorruptionSpec]
    ) -> Tuple[Table, Set[Cell]]:
        """Return a corrupted copy of the table and the affected cells."""
        dirty = table.copy()
        error_cells: Set[Cell] = set()
        for spec in specs:
            error_cells |= self._apply(dirty, table, spec)
        return dirty, error_cells

    def _apply(self, dirty: Table, clean: Table, spec: CorruptionSpec) -> Set[Cell]:
        values = clean.column(spec.attribute)
        candidates = [row for row, value in enumerate(values) if value != ""]
        n_errors = int(round(spec.error_rate * len(candidates)))
        if spec.error_rate > 0 and n_errors == 0 and candidates:
            n_errors = 1
        rows = self.rng.sample(candidates, min(n_errors, len(candidates)))
        pool = list(spec.alternatives) if spec.alternatives else sorted(set(values))
        touched: Set[Cell] = set()
        for row in rows:
            original = values[row]
            corrupted = self._corrupt_value(original, spec, pool)
            if corrupted == original:
                continue
            dirty.set_cell(row, spec.attribute, corrupted)
            touched.add((row, spec.attribute))
        return touched

    def _corrupt_value(self, value: str, spec: CorruptionSpec, pool: Sequence[str]) -> str:
        if spec.kind == "swap":
            alternatives = [v for v in pool if v != value and v != ""]
            if not alternatives:
                return _typo(value, self.rng)
            return self.rng.choice(alternatives)
        if spec.kind == "typo":
            return _typo(value, self.rng)
        return _case_flip(value, self.rng)
