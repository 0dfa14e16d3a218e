"""The pair groups of one rule pair: detection's sufficient statistic.

The statistic is the **pair groups** of one ``(LHS, RHS)`` attribute
pair: the nested map ``LHS value → RHS value → [global row ids]``.
Constant rules need the rows per (matching LHS value, observed RHS
value), and variable rules derive their ``≡_Q`` blocks by projecting
each distinct LHS value once.

Sharded detection builds it with one
:func:`~repro.kernels.groupby.pair_groups_kernel` call over the two
columns' table-wide encodings (the ones discovery factorized), so no
per-shard partials exist and nothing is merged.
:func:`extract_pair_groups` is the scalar reference the kernel must
reproduce, orders included.  Row lists are compact ``array('i')``
sequences (see :mod:`repro.dataset.rowids`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.constrained.constrained_pattern import ConstrainedPattern
from repro.dataset.rowids import RowIds, row_ids
from repro.detection.index import narrow_candidates_by_prefix
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


class MergedPairGroups:
    """The table-wide pair groups of one attribute pair, plus the sorted
    distinct-LHS-value array that answers pattern lookups."""

    __slots__ = ("groups", "sorted_values", "last_candidates_tested")

    def __init__(self, groups: PairGroups):
        self.groups = groups
        self.sorted_values: List[str] = sorted(groups)
        #: distinct values regex-tested by the last lookup (cost statistic)
        self.last_candidates_tested = 0

    @property
    def n_distinct(self) -> int:
        return len(self.sorted_values)

    def matching_values(self, lhs_cell, memo: MatchMemo) -> List[str]:
        """Distinct LHS values satisfying a rule's LHS cell.

        Patterns are narrowed by literal prefix and memo-tested once per
        distinct value (the same verdict store the monolithic index
        uses); a plain-string cell is a dictionary hit; a wildcard cell
        matches everything (as ``cell_matches`` defines).  Plain
        patterns run through the batch matcher (identical verdicts, same
        memo tables).
        """
        if isinstance(lhs_cell, Pattern):
            candidates = narrow_candidates_by_prefix(self.sorted_values, lhs_cell)
            self.last_candidates_tested = len(candidates)
            return batch_matching_values(lhs_cell, candidates, memo=memo)
        if isinstance(lhs_cell, ConstrainedPattern):
            candidates = narrow_candidates_by_prefix(self.sorted_values, lhs_cell)
            self.last_candidates_tested = len(candidates)
            matches = memo.matcher(lhs_cell)
            return [value for value in candidates if matches(value)]
        if isinstance(lhs_cell, Wildcard):
            self.last_candidates_tested = 0
            return list(self.sorted_values)
        self.last_candidates_tested = 1
        return [lhs_cell] if lhs_cell in self.groups else []
