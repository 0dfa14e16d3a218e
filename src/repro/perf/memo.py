"""Per-distinct-value match memoization shared across rules.

Detection evaluates every rule's LHS pattern against a column's distinct
values, and many rules touch the same column (every constant rule of a
tableau, plus the variable rules over the same attribute).  The
``MatchMemo`` caches two verdicts per (pattern, value) pair:

* ``matches`` — does the value match the pattern (``s ↦ P``);
* ``project`` — the constrained projection ``s(Q)`` used for blocking.

Verdicts are pure functions of the immutable pattern and the value, so
one memo can safely be shared by all rules, all detectors, and all
discovery decisions in the process.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

_MISS = object()

#: Patterns whose verdicts a memo keeps; the oldest is evicted first.
MAX_PATTERNS = 2048


class MatchMemo:
    """Caches per-distinct-value match verdicts keyed by pattern."""

    __slots__ = ("enabled", "hits", "misses", "_matches", "_projections")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self._matches: Dict[Hashable, Dict[str, bool]] = {}
        self._projections: Dict[Hashable, Dict[str, Optional[Tuple[str, ...]]]] = {}

    # -- verdicts --------------------------------------------------------------

    def matches(self, pattern, value: str) -> bool:
        """Memoized ``pattern.matches(value)``.

        Works for :class:`~repro.patterns.pattern.Pattern` and
        :class:`~repro.constrained.constrained_pattern.ConstrainedPattern`
        alike — anything hashable with a ``matches`` method.
        """
        if not self.enabled:
            return pattern.matches(value)
        per_pattern = self._table_for(self._matches, pattern)
        verdict = per_pattern.get(value, _MISS)
        if verdict is not _MISS:
            self.hits += 1
            return verdict
        self.misses += 1
        verdict = pattern.matches(value)
        per_pattern[value] = verdict
        return verdict

    def project(self, constrained, value: str) -> Optional[Tuple[str, ...]]:
        """Memoized constrained projection (``None`` when no match)."""
        if not self.enabled:
            return constrained.project(value)
        per_pattern = self._table_for(self._projections, constrained)
        projection = per_pattern.get(value, _MISS)
        if projection is not _MISS:
            self.hits += 1
            return projection
        self.misses += 1
        projection = constrained.project(value)
        per_pattern[value] = projection
        return projection

    # -- bound helpers ---------------------------------------------------------

    def matcher(self, pattern):
        """A ``value → bool`` callable bound to the pattern's verdict table.

        Hashes the pattern once instead of once per value — the right
        shape for tight per-row loops.  Only misses are counted in the
        statistics (hits ≈ calls − misses on bound helpers).
        """
        if not self.enabled:
            return pattern.matches
        table = self._table_for(self._matches, pattern)
        compute = pattern.matches

        def matches(value: str) -> bool:
            verdict = table.get(value, _MISS)
            if verdict is _MISS:
                self.misses += 1
                verdict = table[value] = compute(value)
            return verdict

        return matches

    def projector(self, constrained):
        """A ``value → projection`` callable bound to the pattern's table.

        The per-row analogue of :meth:`project`; see :meth:`matcher`.
        """
        if not self.enabled:
            return constrained.project
        table = self._table_for(self._projections, constrained)
        compute = constrained.project

        def project(value: str) -> Optional[Tuple[str, ...]]:
            projection = table.get(value, _MISS)
            if projection is _MISS:
                self.misses += 1
                projection = table[value] = compute(value)
            return projection

        return project

    def match_table(self, pattern) -> Optional[Dict[str, bool]]:
        """The pattern's raw verdict table, or None when the memo is off.

        The batch matcher (:mod:`repro.kernels.match`) reads and writes
        this table directly so one kernel pass over a column's distinct
        values shares its verdicts with every scalar ``matches`` call —
        the same store, whichever path computed the verdict first.
        Callers must only insert correct ``pattern.matches(value)``
        verdicts.
        """
        if not self.enabled:
            return None
        return self._table_for(self._matches, pattern)

    def count_batch(self, hits: int, misses: int) -> None:
        """Fold one batch lookup into the hit/miss statistics."""
        self.hits += hits
        self.misses += misses

    # -- bookkeeping -----------------------------------------------------------

    def _table_for(self, store: Dict[Hashable, Dict], pattern) -> Dict:
        table = store.get(pattern)
        if table is None:
            if len(store) >= MAX_PATTERNS:
                # FIFO eviction of the oldest pattern's verdicts
                del store[next(iter(store))]
            table = store[pattern] = {}
        return table

    def clear(self) -> None:
        self._matches.clear()
        self._projections.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict:
        return {
            "patterns": len(self._matches) + len(self._projections),
            "values": sum(len(t) for t in self._matches.values())
            + sum(len(t) for t in self._projections.values()),
            "hits": self.hits,
            "misses": self.misses,
        }


#: The process-wide memo shared by detection and discovery hot paths.
MATCH_MEMO = MatchMemo()
