"""``Tokenize`` — the value decomposition of the discovery algorithm
(Figure 2, lines 6–7).

Tokens are whitespace-delimited words; their *position* is the token
index starting at 0, exactly as the demo GUI displays it
("pattern::position, frequency").  :func:`tokenize` splits one value
into :class:`Token` objects with their offsets.  Profiling and
discovery never tokenize value by value: they decompose a whole encoded
column at once with :func:`repro.kernels.tokenize.batch_tokenize` (the
same split, keyed by ``normalized or text``), which also yields the
paper's ``NGrams`` (character substrings keyed by their starting
offset) and leading n-grams, and keeps no per-value memo;
``tests/figure2_reference.py`` spells the three modes out literally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

_PUNCTUATION_STRIP = ".,;:!?\"'()[]{}"


@dataclass(frozen=True)
class Token:
    """A token or n-gram extracted from a cell value.

    Attributes
    ----------
    text:
        The raw token text.
    position:
        Token index (token mode) or character offset (n-gram mode).
    start:
        Character offset of the token within the original value.
    normalized:
        Token text with leading/trailing punctuation stripped; discovery
        keys on this so that ``"Donald"`` and ``"Donald,"`` group
        together.
    """

    text: str
    position: int
    start: int
    normalized: str

    @property
    def is_numeric(self) -> bool:
        return self.normalized.isdigit() and bool(self.normalized)


def _normalize(text: str) -> str:
    return text.strip(_PUNCTUATION_STRIP)


def tokenize(value: str) -> List[Token]:
    """Split a value into whitespace-delimited tokens with positions."""
    tokens: List[Token] = []
    position = 0
    offset = 0
    length = len(value)
    while offset < length:
        while offset < length and value[offset].isspace():
            offset += 1
        if offset >= length:
            break
        start = offset
        while offset < length and not value[offset].isspace():
            offset += 1
        text = value[start:offset]
        tokens.append(Token(text, position, start, _normalize(text)))
        position += 1
    return tokens
