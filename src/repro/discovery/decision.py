"""The pattern tuples of the decision function ``f`` (Figure 2, lines 10–12).

An inverted-list entry — the rows carrying one (token, position) key of
the LHS — forms a pattern tuple when its rows have enough support, agree
on one RHS constant up to the allowed-violation ratio ρ, and an LHS
pattern built around the token still matches them.  The mining kernel
(:func:`repro.kernels.mine.mine_constant_kernel`) decides the entries;
this module holds what it emits, :class:`PatternTupleCandidate`, and
the pattern it builds for a token entry, :func:`contains_token_pattern`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.kernels.tokenize import _PUNCTUATION_STRIP, _WORDS
from repro.patterns.pattern import Pattern


@dataclass
class PatternTupleCandidate:
    """A tableau row the decision function produced, with its statistics.

    It covers the tuples whose LHS value is one of ``lhs_values``: the
    values carrying ``source_token`` at ``source_position`` that
    ``lhs_pattern`` matches, in first-appearance order.  Covered tuples
    are always whole values, so the row keeps values, not row ids
    (mining never needs them).
    """

    lhs_pattern: Pattern
    rhs_constant: str
    support: int
    agreement: float
    lhs_values: Tuple[str, ...]
    source_token: str
    source_position: int

    @property
    def pattern_text(self) -> str:
        return self.lhs_pattern.to_text()

    def render(self) -> str:
        """``pattern::position, frequency`` — the GUI display format."""
        return f"{self.pattern_text}::{self.source_position}, {self.support}"


def contains_token_pattern(
    token: str, position: int, covered_values: Sequence[str]
) -> Optional[Pattern]:
    """A ``\\A*<sep>token\\A*`` pattern for word tokens.

    The separator context (the punctuation/space run immediately
    before the token, e.g. ``", "`` in ``"Holloway, Donald E."``) is
    included literally when all covered values share it, matching the
    tableau shapes shown in Table 3 of the paper.  ``None`` when a value
    does not carry the token at ``position``.  The result depends on the
    set of covered values only, not on their order or repetitions.
    """
    separators = set()
    has_suffix = False
    for value in covered_values:
        found = None
        for index, word in enumerate(_WORDS.finditer(value)):
            if index == position:
                text = word.group()
                if text.strip(_PUNCTUATION_STRIP) == token or text == token:
                    found = word
                break
        if found is None:
            return None
        start = found.start()
        sep_start = start
        while sep_start > 0 and not value[sep_start - 1].isalnum():
            sep_start -= 1
        separators.add(value[sep_start:start])
        if found.end() < len(value) or found.group() != token:
            has_suffix = True
    separator = separators.pop() if len(separators) == 1 else ""
    elements = Pattern([])
    if position > 0:
        elements = elements.concat(Pattern.any_string())
    if separator and position > 0:
        elements = elements.concat(Pattern.literal(separator))
    elements = elements.concat(Pattern.literal(token))
    if has_suffix or position == 0:
        elements = elements.concat(Pattern.any_string())
    return elements
