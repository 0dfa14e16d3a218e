"""The pair groups of one rule pair: detection's sufficient statistic.

The statistic is the **pair groups** of one ``(LHS, RHS)`` attribute
pair: the nested map ``LHS value → RHS value → [global row ids]``.
Constant rules need the rows per (matching LHS value, observed RHS
value), and variable rules derive their ``≡_Q`` blocks by projecting
each distinct LHS value once.

The session's detector seeds from it (and so does
:class:`~repro.detection.detector.ErrorDetector`, over its table as
one shard), built with one
:func:`~repro.kernels.groupby.pair_groups_kernel` call over the two
columns' table-wide encodings (the ones discovery factorized), so no
per-shard partials exist and nothing is merged.
:func:`extract_pair_groups` is the scalar reference the kernel must
reproduce, orders included.  Row lists are compact ``array('i')``
sequences (see :mod:`repro.dataset.rowids`).
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Sequence, Union

from repro.constrained.constrained_pattern import ConstrainedPattern
from repro.dataset.rowids import RowIds, row_ids
from repro.kernels.match import batch_matching_values
from repro.patterns.pattern import Pattern
from repro.perf.memo import MatchMemo
from repro.pfd.tableau import Wildcard

#: LHS value → RHS value → ascending global row ids (``array('i')``).
PairGroups = Dict[str, Dict[str, RowIds]]


def extract_pair_groups(
    lhs_values: Sequence[str],
    rhs_values: Sequence[str],
    offset: int,
) -> PairGroups:
    """The pair groups of two aligned value sequences, rows numbered from
    ``offset`` (the scalar reference of the groupby kernel)."""
    groups: PairGroups = {}
    for local_row, (lhs_value, rhs_value) in enumerate(zip(lhs_values, rhs_values)):
        by_rhs = groups.get(lhs_value)
        if by_rhs is None:
            by_rhs = groups[lhs_value] = {}
        rows = by_rhs.get(rhs_value)
        if rows is None:
            by_rhs[rhs_value] = row_ids((offset + local_row,))
        else:
            rows.append(offset + local_row)
    return groups


def narrow_candidates_by_prefix(
    sorted_values: Sequence[str],
    pattern: Union[Pattern, ConstrainedPattern],
) -> Sequence[str]:
    """Distinct values (from an ascending list) that could match the
    pattern, narrowed to the slice sharing its literal prefix.

    Patterns with a literal prefix (``850\\D{7}``) are answered with two
    binary searches, so only values starting with the prefix are
    regex-tested.
    """
    prefix = ""
    if isinstance(pattern, Pattern):
        prefix = pattern.literal_prefix()
    elif isinstance(pattern, ConstrainedPattern):
        prefix = pattern.segments[0].pattern.literal_prefix()
    if not prefix:
        return sorted_values
    low = bisect.bisect_left(sorted_values, prefix)
    # Every string starting with the prefix sorts below the prefix with
    # its last bumpable character bumped; trailing U+10FFFF cannot be
    # bumped, and a prefix of nothing else has no upper bound.
    stem = prefix.rstrip(chr(0x10FFFF))
    if not stem:
        return sorted_values[low:]
    upper_key = stem[:-1] + chr(ord(stem[-1]) + 1)
    high = bisect.bisect_left(sorted_values, upper_key, lo=low)
    return sorted_values[low:high]


class MergedPairGroups:
    """The table-wide pair groups of one attribute pair, plus the sorted
    distinct-LHS-value array that answers pattern lookups."""

    __slots__ = ("groups", "sorted_values")

    def __init__(self, groups: PairGroups):
        self.groups = groups
        self.sorted_values: List[str] = sorted(groups)

    @property
    def n_distinct(self) -> int:
        return len(self.sorted_values)

    def matching_values(self, lhs_cell, memo: MatchMemo) -> List[str]:
        """Distinct LHS values satisfying a rule's LHS cell.

        Patterns are narrowed by literal prefix and memo-tested once per
        distinct value (the verdict store the edit loop's updates
        read too); a plain-string cell is a dictionary hit; a wildcard cell
        matches everything (as ``cell_matches`` defines).  Plain
        patterns run through the batch matcher (identical verdicts, same
        memo tables).
        """
        if isinstance(lhs_cell, Pattern):
            candidates = narrow_candidates_by_prefix(self.sorted_values, lhs_cell)
            return batch_matching_values(lhs_cell, candidates, memo=memo)
        if isinstance(lhs_cell, ConstrainedPattern):
            candidates = narrow_candidates_by_prefix(self.sorted_values, lhs_cell)
            matches = memo.matcher(lhs_cell)
            return [value for value in candidates if matches(value)]
        if isinstance(lhs_cell, Wildcard):
            return list(self.sorted_values)
        return [lhs_cell] if lhs_cell in self.groups else []
