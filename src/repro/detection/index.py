"""Per-column pattern index.

"For better performance, we create an index supporting regular
expressions for each column present on the LHS of the PFDs.  In this
case, the search for violations will be limited to those tuples that
match tp[A]."  This module implements that index with three
accelerations:

* matching is evaluated once per *distinct* value rather than once per
  row (columns such as city or gender have few distinct values), and the
  verdicts are memoized in the shared :class:`~repro.perf.memo.MatchMemo`
  so every rule touching the column reuses them;
* patterns with a literal prefix (``850\\D{7}``, ``6060\\D``) are answered
  from a sorted array of distinct values via binary search on the prefix,
  so only values sharing the prefix are regex-tested;
* row lists are stored and returned as immutable tuples — lookups hand
  out references, never copies.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.constrained.constrained_pattern import ConstrainedPattern
from repro.kernels.match import batch_matching_values
from repro.patterns.pattern import Pattern
from repro.perf.memo import MatchMemo, MATCH_MEMO


def narrow_candidates_by_prefix(
    sorted_values: Sequence[str],
    pattern: Union[Pattern, ConstrainedPattern],
) -> Sequence[str]:
    """Distinct values (from an ascending list) that could match the
    pattern, narrowed to the slice sharing its literal prefix.

    Shared by :class:`PatternColumnIndex` and the sharded engine's merged
    distinct-value statistics: patterns with a literal prefix
    (``850\\D{7}``) are answered with two binary searches, so only values
    starting with the prefix are regex-tested.
    """
    prefix = ""
    if isinstance(pattern, Pattern):
        prefix = pattern.literal_prefix()
    elif isinstance(pattern, ConstrainedPattern):
        prefix = pattern.segments[0].pattern.literal_prefix()
    if not prefix:
        return sorted_values
    low = bisect.bisect_left(sorted_values, prefix)
    # The upper bound is the prefix with its last character bumped —
    # every string starting with the prefix sorts below it.
    upper_key = prefix[:-1] + chr(ord(prefix[-1]) + 1)
    high = bisect.bisect_left(sorted_values, upper_key)
    return sorted_values[low:high]


class PatternColumnIndex:
    """An index over one column answering "which rows match this pattern?"."""

    def __init__(self, values: Sequence[str]):
        self._n_rows = len(values)
        rows_by_value: Dict[str, List[int]] = {}
        for row, value in enumerate(values):
            rows_by_value.setdefault(value, []).append(row)
        #: value → immutable tuple of row indexes (shared, never copied)
        self._rows_by_value: Dict[str, Tuple[int, ...]] = {
            value: tuple(rows) for value, rows in rows_by_value.items()
        }
        self._sorted_values: List[str] = sorted(self._rows_by_value)
        #: statistics: how many distinct values were regex-tested by the
        #: last lookup (used by the strategy-comparison benchmark)
        self.last_candidates_tested = 0

    # -- stats ---------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_distinct(self) -> int:
        return len(self._sorted_values)

    def rows_of_value(self, value: str) -> Tuple[int, ...]:
        """Rows holding exactly ``value`` (a shared immutable tuple)."""
        return self._rows_by_value.get(value, ())

    # -- lookups -----------------------------------------------------------------

    def _candidate_values(self, pattern: Union[Pattern, ConstrainedPattern]) -> Sequence[str]:
        """Distinct values that could match, narrowed by literal prefix."""
        return narrow_candidates_by_prefix(self._sorted_values, pattern)

    def matching_values(
        self,
        pattern: Union[Pattern, ConstrainedPattern],
        memo: Optional[MatchMemo] = None,
    ) -> List[str]:
        """Distinct values matching the pattern (memoized verdicts).

        Plain patterns run through the vectorized batch matcher
        (identical verdicts, same memo tables); constrained patterns use
        the scalar matcher.
        """
        memo = MATCH_MEMO if memo is None else memo
        candidates = self._candidate_values(pattern)
        self.last_candidates_tested = len(candidates)
        if isinstance(pattern, Pattern):
            return batch_matching_values(pattern, candidates, memo=memo)
        matches = memo.matcher(pattern)
        return [value for value in candidates if matches(value)]

    def matching_rows(
        self,
        pattern: Union[Pattern, ConstrainedPattern],
        memo: Optional[MatchMemo] = None,
    ) -> List[int]:
        """Row indexes whose value matches the pattern, sorted."""
        rows: List[int] = []
        for value in self.matching_values(pattern, memo):
            rows.extend(self._rows_by_value[value])
        rows.sort()
        return rows

    def matching_constant(self, constant: str) -> Tuple[int, ...]:
        """Rows equal to a constant (degenerate pattern)."""
        return self.rows_of_value(constant)

    # -- partial updates ----------------------------------------------------------
    #
    # The delta-aware artifact cache patches a live index under table
    # deltas instead of rebuilding it: an edit moves one row between two postings,
    # an append adds one posting entry, a delete removes one and renumbers
    # the rows behind it.  Pattern verdicts are *not* stored here (they
    # live in the MatchMemo keyed by value), so no regex ever reruns.

    def _add_row(self, value: str, row: int) -> None:
        rows = self._rows_by_value.get(value)
        if rows is None:
            self._rows_by_value[value] = (row,)
            bisect.insort(self._sorted_values, value)
            return
        at = bisect.bisect_left(rows, row)
        self._rows_by_value[value] = rows[:at] + (row,) + rows[at:]

    def _remove_row(self, value: str, row: int) -> None:
        rows = self._rows_by_value.get(value)
        if rows is None or row not in rows:
            raise ValueError(
                f"index out of sync: row {row} not posted under value {value!r}"
            )
        if len(rows) == 1:
            del self._rows_by_value[value]
            at = bisect.bisect_left(self._sorted_values, value)
            del self._sorted_values[at]
            return
        self._rows_by_value[value] = tuple(r for r in rows if r != row)

    def apply_edit(self, row: int, old: str, new: str) -> None:
        """Move one row between value postings after a cell edit."""
        if old == new:
            return
        self._remove_row(old, row)
        self._add_row(new, row)

    def apply_append(self, row: int, value: str) -> None:
        """Post a freshly appended row (``row`` must be the new last row)."""
        if row != self._n_rows:
            raise ValueError(
                f"appended row {row} is not the next row of a {self._n_rows}-row index"
            )
        self._add_row(value, row)
        self._n_rows += 1

    def apply_delete(self, row: int, old: str) -> None:
        """Unpost a deleted row and renumber the rows behind it."""
        self._remove_row(old, row)
        self._n_rows -= 1
        self._rows_by_value = {
            value: tuple(r if r < row else r - 1 for r in rows)
            for value, rows in self._rows_by_value.items()
        }
