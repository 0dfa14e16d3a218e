"""The generalization tree (Figure 1 of the paper).

The tree is defined over an alphabet Σ.  Each leaf is a character; each
intermediate node generalizes its children:

* ``\\A``  (All)    — any character
* ``\\LU`` (Upper)  — upper-case letters ``A``–``Z``
* ``\\LL`` (Lower)  — lower-case letters ``a``–``z``
* ``\\D``  (Digit)  — digits ``0``–``9``
* ``\\S``  (Symbol) — everything else (punctuation, whitespace, …)

The tree supports the two operations the rest of the system needs:
classifying a character into its immediate parent class, and testing
whether a character belongs to a class (used by the matcher).
"""

from __future__ import annotations

import enum
from typing import Dict


class CharClass(enum.Enum):
    """An intermediate node of the generalization tree."""

    ANY = "A"
    UPPER = "LU"
    LOWER = "LL"
    DIGIT = "D"
    SYMBOL = "S"

    @property
    def token(self) -> str:
        """The token used in the paper's pattern syntax, e.g. ``\\LU``."""
        return "\\" + self.value

    def contains_char(self, char: str) -> bool:
        """Whether a single character belongs to this class."""
        if len(char) != 1:
            return False
        if self is CharClass.ANY:
            return True
        if self is CharClass.UPPER:
            return "A" <= char <= "Z"
        if self is CharClass.LOWER:
            return "a" <= char <= "z"
        if self is CharClass.DIGIT:
            return "0" <= char <= "9"
        return not (
            "A" <= char <= "Z" or "a" <= char <= "z" or "0" <= char <= "9"
        )


#: The leaf classes in class-id order: a shape table
#: (:class:`repro.kernels.encoder.ShapeTable`) stores ``LEAF_CLASSES[i]``
#: as id ``i`` and its bitmask bit as ``1 << i``.
LEAF_CLASSES = (CharClass.UPPER, CharClass.LOWER, CharClass.DIGIT, CharClass.SYMBOL)


def _classify_char_slow(char: str) -> CharClass:
    if "A" <= char <= "Z":
        return CharClass.UPPER
    if "a" <= char <= "z":
        return CharClass.LOWER
    if "0" <= char <= "9":
        return CharClass.DIGIT
    return CharClass.SYMBOL


#: Classification table, pre-filled for the Latin-1 range and extended
#: on demand — classification is a leaf operation of every generalization
#: and runs once per character of every profiled value.
_CLASS_BY_CHAR: Dict[str, CharClass] = {
    chr(code): _classify_char_slow(chr(code)) for code in range(256)
}


def classify_char(char: str) -> CharClass:
    """Return the immediate parent class of a character in the tree."""
    cached = _CLASS_BY_CHAR.get(char)
    if cached is not None:
        return cached
    if len(char) != 1:
        raise ValueError(f"classify_char expects a single character, got {char!r}")
    cached = _CLASS_BY_CHAR[char] = _classify_char_slow(char)
    return cached
