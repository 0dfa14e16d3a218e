"""``Tokenize`` — the value decomposition of the discovery algorithm
(Figure 2, lines 6–7).

Tokens are whitespace-delimited words; their *position* is the token
index starting at 0, exactly as the demo GUI displays it
("pattern::position, frequency").  Discovery decomposes a whole encoded
column at once with :func:`repro.kernels.tokenize.batch_tokenize`, which
also yields the paper's ``NGrams`` (character substrings keyed by their
starting offset) and leading n-grams; ``tests/figure2_reference.py``
spells the three modes out literally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

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


@lru_cache(maxsize=131072)
def cached_tokenize(value: str) -> Tuple[Token, ...]:
    """Memoized :func:`tokenize` for hot loops.

    Column values repeat heavily (within a column and across the many
    candidate dependencies sharing an LHS column), so tokenization is
    memoized per distinct value.  Returns an immutable tuple — callers
    must not mutate it.
    """
    return tuple(tokenize(value))
