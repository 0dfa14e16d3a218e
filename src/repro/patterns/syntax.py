"""Abstract syntax for the restricted pattern language.

A pattern is a sequence of :class:`Element` objects.  Each element pairs
an *atom* — either a literal character (:class:`Literal`) or a character
class (:class:`ClassAtom`) — with a :class:`Quantifier`.  The grammar has
no alternation and no nested quantifiers, matching the paper's
restriction ("we do not consider recursive patterns such as ``(α+)*``").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.errors import PatternSyntaxError
from repro.patterns.alphabet import CharClass, classify_char

#: Characters that must be escaped with a backslash when they appear as
#: literals in the concrete syntax.
ESCAPED_LITERALS = {" ", "\\", "{", "}", "+", "*"}


@dataclass(frozen=True)
class Literal:
    """A literal character atom, e.g. the ``9`` in ``900\\D{2}``."""

    char: str

    def __post_init__(self) -> None:
        if len(self.char) != 1:
            raise PatternSyntaxError(
                f"literal atom must be a single character, got {self.char!r}"
            )

    def matches_char(self, char: str) -> bool:
        return char == self.char

    def to_text(self) -> str:
        if self.char in ESCAPED_LITERALS:
            return "\\" + self.char
        return self.char

    @property
    def char_class(self) -> CharClass:
        """The generalization-tree class this literal belongs to."""
        return classify_char(self.char)


@dataclass(frozen=True)
class ClassAtom:
    """A character-class atom, e.g. ``\\LU`` or ``\\D``."""

    char_class: CharClass

    def matches_char(self, char: str) -> bool:
        return self.char_class.contains_char(char)

    def to_text(self) -> str:
        return self.char_class.token


Atom = Union[Literal, ClassAtom]


@dataclass(frozen=True)
class Quantifier:
    """Repetition bounds for an atom.

    ``minimum`` repetitions and ``maximum`` repetitions; ``maximum`` of
    ``None`` means unbounded.  The concrete forms are:

    * exactly one — ``Quantifier(1, 1)`` (no suffix)
    * ``{N}``     — ``Quantifier(N, N)``
    * ``{N,M}``   — ``Quantifier(N, M)``
    * ``+``       — ``Quantifier(1, None)``
    * ``*``       — ``Quantifier(0, None)``
    """

    minimum: int
    maximum: Optional[int]

    def __post_init__(self) -> None:
        if self.minimum < 0:
            raise PatternSyntaxError(f"quantifier minimum must be >= 0, got {self.minimum}")
        if self.maximum is not None and self.maximum < self.minimum:
            raise PatternSyntaxError(
                f"quantifier maximum {self.maximum} is below minimum {self.minimum}"
            )

    @property
    def is_single(self) -> bool:
        return self.minimum == 1 and self.maximum == 1

    @property
    def is_star(self) -> bool:
        return self.minimum == 0 and self.maximum is None

    @property
    def is_plus(self) -> bool:
        return self.minimum == 1 and self.maximum is None

    def to_text(self) -> str:
        if self.is_single:
            return ""
        if self.is_star:
            return "*"
        if self.is_plus:
            return "+"
        if self.maximum == self.minimum:
            return "{%d}" % self.minimum
        if self.maximum is None:
            return "{%d,}" % self.minimum
        return "{%d,%d}" % (self.minimum, self.maximum)


#: The implicit "exactly one" quantifier.
ONE = Quantifier(1, 1)
STAR = Quantifier(0, None)
PLUS = Quantifier(1, None)


@dataclass(frozen=True)
class Element:
    """One quantified atom within a pattern."""

    atom: Atom
    quantifier: Quantifier = ONE

    def to_text(self) -> str:
        return self.atom.to_text() + self.quantifier.to_text()

    @property
    def min_length(self) -> int:
        """Minimum number of characters this element can consume."""
        return self.quantifier.minimum

    @property
    def max_length(self) -> Optional[int]:
        """Maximum number of characters, or None when unbounded."""
        return self.quantifier.maximum

    def matches_char(self, char: str) -> bool:
        """Whether the underlying atom accepts a single character."""
        return self.atom.matches_char(char)
