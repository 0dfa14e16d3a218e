"""Variable PFDs (λ4 / λ5 of the paper).

A variable PFD asserts that tuples agreeing on a *constrained part* of
the LHS value agree on the RHS value.  Two families are searched, chosen
by the LHS column's shape:

* **constrained prefixes** for single-token, code-like columns — "the
  first 3 digits of a 5-digit zip code determine the city" (λ5);
* **constrained tokens** for multi-token text columns — "one's first
  name determines one's gender" (λ4).

For each candidate constraint the rows are blocked by the constrained
projection and the blocks' agreement on the RHS value is measured; the
most general candidate (shortest prefix / earliest usable token) whose
agreement and coverage clear the thresholds is kept.  The search runs
in :func:`repro.kernels.mine.mine_variable_kernel`; this module holds
what it emits, :class:`VariableCandidate`, and the pattern it builds for
a constrained token, :func:`token_constraint_pattern`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import List, Sequence

from repro.constrained.constrained_pattern import (
    ConstrainedPattern,
    constrained_word_sequence,
)
from repro.kernels.encoder import ShapeTable
from repro.patterns.generalize import generalize
from repro.patterns.pattern import Pattern


@dataclass
class VariableCandidate:
    """A variable-PFD candidate with its quality statistics."""

    constrained_pattern: ConstrainedPattern
    coverage: float
    agreement: float
    n_blocks: int
    n_multi_blocks: int
    description: str

    @property
    def pattern_text(self) -> str:
        return self.constrained_pattern.to_text()


def token_constraint_pattern(
    word_lists: Sequence[Sequence[str]], position: int
) -> ConstrainedPattern:
    """The constrained word-sequence pattern for a token position.

    ``word_lists`` holds the whitespace-split words of the usable
    values.  Word patterns for positions 0..position are generalized
    from the observed words (``\\A+`` where their shapes differ);
    positions after the constrained one collapse into the trailing
    ``\\A*``.  The result depends on the set of word lists only, not on
    their order or repetitions.
    """
    # one shape table over the distinct words up to the position
    columns = [[words[word_index] for words in word_lists] for word_index in range(position + 1)]
    words = list(dict.fromkeys(chain.from_iterable(columns)))
    codes = {word: code for code, word in enumerate(words)}
    shapes = ShapeTable(words)
    word_patterns: List[Pattern] = []
    for column in columns:
        generalized = generalize(shapes, list({codes[word] for word in column}))
        if generalized is None:
            generalized = Pattern.parse("\\A+")
        word_patterns.append(generalized)
    return constrained_word_sequence(word_patterns, position)
