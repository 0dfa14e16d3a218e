"""Learning patterns from data values.

The discovery algorithm never enumerates the full pattern space.  It
works upward from concrete values using the generalization tree: each
character is replaced by its class, consecutive equal classes collapse
into quantified runs, and runs learned from several values merge their
repetition counts.  This module provides those operations plus the
per-column :class:`PatternHistogram` that backs the profiling view
(Figure 3 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.patterns.alphabet import CharClass, classify_char
from repro.patterns.pattern import Pattern
from repro.patterns.syntax import ClassAtom, Element, Literal, ONE, Quantifier


@lru_cache(maxsize=131072)
def _class_runs(value: str) -> Tuple[Tuple[CharClass, int], ...]:
    """Collapse a string into runs of (character class, length).

    Memoized per distinct value: run decomposition is recomputed for
    every value of every profiled column and every generalized group.
    """
    runs: List[Tuple[CharClass, int]] = []
    for char in value:
        char_class = classify_char(char)
        if runs and runs[-1][0] is char_class:
            runs[-1] = (char_class, runs[-1][1] + 1)
        else:
            runs.append((char_class, 1))
    return tuple(runs)


@lru_cache(maxsize=131072)
def signature_of(value: str) -> Tuple[CharClass, ...]:
    """The sequence of character classes of a value's runs.

    Two values with the same signature generalize to the same run
    structure; the signature is the grouping key used when merging values
    into a single pattern.  Memoized per distinct value alongside
    :func:`_class_runs`.
    """
    return tuple(char_class for char_class, _length in _class_runs(value))


@lru_cache(maxsize=65536)
def _generalize_string_cached(value: str, level: int) -> Pattern:
    if level <= 0:
        return Pattern.literal(value)
    if level >= 3:
        return Pattern.any_string()
    elements: List[Element] = []
    for char_class, length in _class_runs(value):
        if level == 1:
            quantifier = ONE if length == 1 else Quantifier(length, length)
        else:
            quantifier = Quantifier(1, None) if length >= 1 else ONE
        elements.append(Element(ClassAtom(char_class), quantifier))
    return Pattern(elements)


def generalize_string(value: str, level: int = 1) -> Pattern:
    """Generalize one value to a pattern at the requested level.

    Levels correspond to walking up the generalization lattice:

    * 0 — the literal value itself (most specific).
    * 1 — class runs with exact repetition counts, e.g. ``90001`` →
      ``\\D{5}`` and ``John`` → ``\\LU\\LL{3}``.
    * 2 — class runs with ``+`` quantifiers, e.g. ``\\LU\\LL+``.
    * 3 — the most general pattern ``\\A*``.

    Memoized per (value, level); patterns are immutable, so the shared
    instances are safe to reuse anywhere.
    """
    return _generalize_string_cached(value, level)


def generalize_strings(values: Sequence[str]) -> Optional[Pattern]:
    """Least-general pattern (within the run lattice) covering all values.

    Returns None when the values do not share a run signature — callers
    then either split the values by signature or fall back to ``\\A*``.
    Empty input also returns None.
    """
    values = [v for v in values]
    if not values:
        return None
    signatures = {signature_of(v) for v in values}
    if len(signatures) != 1:
        return None
    signature = next(iter(signatures))
    per_run_lengths: List[List[int]] = [[] for _ in signature]
    for value in values:
        for i, (_cls, length) in enumerate(_class_runs(value)):
            per_run_lengths[i].append(length)
    elements: List[Element] = []
    for char_class, lengths in zip(signature, per_run_lengths):
        low, high = min(lengths), max(lengths)
        if low == high:
            quantifier = ONE if low == 1 else Quantifier(low, low)
        else:
            quantifier = Quantifier(low, high)
        elements.append(Element(ClassAtom(char_class), quantifier))
    return Pattern(elements)


def generalize_with_literal_prefix(values: Sequence[str], prefix_length: int) -> Optional[Pattern]:
    """Pattern keeping the first ``prefix_length`` characters literal.

    All values must share that literal prefix; the suffixes are
    generalized with :func:`generalize_strings`.  This is how constant
    PFD tableau patterns such as ``850\\D{7}`` and ``6060\\D`` are formed:
    a shared literal prefix followed by a generalized remainder.
    """
    if not values:
        return None
    prefix = values[0][:prefix_length]
    if len(prefix) < prefix_length:
        return None
    if any(not v.startswith(prefix) for v in values):
        return None
    suffixes = [v[prefix_length:] for v in values]
    if all(s == "" for s in suffixes):
        return Pattern.literal(prefix)
    suffix_pattern = generalize_strings(suffixes)
    if suffix_pattern is None:
        if any(s == "" for s in suffixes):
            return None
        suffix_pattern = Pattern.any_string()
    return Pattern.literal(prefix).concat(suffix_pattern)


@dataclass
class PatternCount:
    """One row of a pattern histogram."""

    pattern: Pattern
    count: int
    examples: List[str]

    @property
    def text(self) -> str:
        return self.pattern.to_text()


#: Example values kept per histogram row.
_MAX_EXAMPLES = 3


class PatternHistogram:
    """Distribution of generalized patterns over a column.

    This is the data behind the "Profiling and Listing the Patterns in
    the Data" screen (Figure 3): every value is generalized to its
    level-1 pattern and the histogram counts how many values share each
    pattern.
    """

    def __init__(self, values: Iterable[str], level: int = 1):
        # Generalize once per *distinct* value: duplicate values map to the
        # same pattern, and real columns are dominated by repeats.  The
        # first-seen iteration order of the per-value counter keeps the
        # example lists identical to a plain one-pass scan.
        by_value: Dict[str, int] = {}
        total = 0
        for value in values:
            by_value[value] = by_value.get(value, 0) + 1
            total += 1
        self._init_from_counts(by_value, total, level)

    @classmethod
    def from_counts(cls, value_counts: Mapping[str, int], level: int = 1) -> "PatternHistogram":
        """Build a histogram from pre-aggregated value → multiplicity counts.

        With ``value_counts`` in first-seen order (a plain dict filled by
        a forward scan — e.g. accumulated shard by shard), the result is
        identical to profiling the expanded value stream: counts, entry
        order, and example lists all match.
        """
        self = cls.__new__(cls)
        self._init_from_counts(value_counts, sum(value_counts.values()), level)
        return self

    def _init_from_counts(self, by_value: Mapping[str, int], total: int, level: int) -> None:
        counts: Dict[str, PatternCount] = {}
        for value, occurrences in by_value.items():
            pattern = generalize_string(value, level=level)
            key = pattern.to_text()
            entry = counts.get(key)
            if entry is None:
                counts[key] = PatternCount(pattern, occurrences, [value])
            else:
                entry.count += occurrences
                if len(entry.examples) < _MAX_EXAMPLES and value not in entry.examples:
                    entry.examples.append(value)
        self._counts = counts
        self._total = total
        self.level = level

    @property
    def total(self) -> int:
        """Number of values profiled."""
        return self._total

    def __len__(self) -> int:
        return len(self._counts)

    def entries(self) -> List[PatternCount]:
        """Histogram rows, most frequent first."""
        return sorted(self._counts.values(), key=lambda e: (-e.count, e.text))
