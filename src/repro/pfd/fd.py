"""Functional dependencies and embedded FDs.

The embedded FD of a PFD is a classical FD ``X → Y`` over the schema; it
names the attributes the tableau's patterns apply to.  The same class is
reused by the baseline FD/CFD miners.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from repro.errors import ConstraintError


@dataclass(frozen=True)
class FunctionalDependency:
    """A classical FD ``lhs → rhs`` over attribute names."""

    lhs: Tuple[str, ...]
    rhs: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.lhs or not self.rhs:
            raise ConstraintError("an FD needs non-empty LHS and RHS attribute sets")
        overlap = set(self.lhs) & set(self.rhs)
        if overlap:
            raise ConstraintError(f"attributes {sorted(overlap)} appear on both sides")

    @classmethod
    def of(cls, lhs: Iterable[str] | str, rhs: Iterable[str] | str) -> "FunctionalDependency":
        """Build an FD, accepting single attribute names or iterables."""
        if isinstance(lhs, str):
            lhs = (lhs,)
        if isinstance(rhs, str):
            rhs = (rhs,)
        return cls(tuple(lhs), tuple(rhs))

    @property
    def attributes(self) -> Tuple[str, ...]:
        return self.lhs + self.rhs

    def __str__(self) -> str:
        return f"{', '.join(self.lhs)} -> {', '.join(self.rhs)}"


class EmbeddedFD(FunctionalDependency):
    """The FD embedded in a PFD.

    The paper's discovery algorithm only considers single-attribute
    LHS/RHS dependencies (``A → B``); this subclass enforces that and
    exposes convenience accessors for the two attribute names.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.lhs) != 1 or len(self.rhs) != 1:
            raise ConstraintError(
                "an embedded FD relates exactly one LHS attribute to one RHS "
                f"attribute, got {self.lhs} -> {self.rhs}"
            )

    @property
    def lhs_attribute(self) -> str:
        return self.lhs[0]

    @property
    def rhs_attribute(self) -> str:
        return self.rhs[0]

    @classmethod
    def between(cls, lhs: str, rhs: str) -> "EmbeddedFD":
        return cls((lhs,), (rhs,))
