"""Mergeable per-shard sufficient statistics.

The sharded engines never ship whole shards between pipeline stages;
they extract small, *mergeable* statistics per shard and reduce them:

The statistic is the **pair groups** of one ``(LHS, RHS)`` attribute
pair: the nested map ``LHS value → RHS value → [global row ids]``.  It
is the sufficient statistic of batch detection: constant rules need the
rows per (matching LHS value, observed RHS value), and variable rules
derive their cross-shard ``≡_Q`` blocks by projecting each distinct LHS
value once.  Merging is nested dict union with list concatenation;
because shards are reduced in row order, each ``(LHS value, RHS
value)`` row list stays ascending.

Pair groups are built from dicts of strings plus compact
``array('i')`` row-id sequences (see :mod:`repro.dataset.rowids`), so
they cross process boundaries cheaply when the shard fan-out runs on
``concurrent.futures`` workers — and stay small enough to hold for a
whole out-of-core run without approaching the materialized table's
footprint.

They are also **invertible**: because one shard's global row ids form a
contiguous range, a shard's contribution occupies a contiguous slice of
every merged row list.  :func:`unmerge_pair_groups` /
:func:`merge_into_pair_groups` exploit that to retract one shard's
statistic and insert a replacement —
``merged = base − old_delta + new_delta`` — which is what lets the rule
maintainer (:mod:`repro.discovery.maintenance`) treat an edit batch from
the shard overlay as a *delta shard* instead of re-merging everything.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Sequence, Tuple

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
    """One shard's pair groups for one attribute pair, rows globalized by
    ``offset`` (one pass over the shard)."""
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


def merge_pair_groups(shard_groups: Sequence[PairGroups]) -> "MergedPairGroups":
    """Reduce per-shard pair groups (in shard order) into one merged
    statistic.  Row lists concatenate ascending because every shard's
    global ids exceed the previous shard's."""
    merged: PairGroups = {}
    for groups in shard_groups:
        for lhs_value, by_rhs in groups.items():
            merged_rhs = merged.get(lhs_value)
            if merged_rhs is None:
                merged[lhs_value] = {
                    rhs_value: row_ids(rows) for rhs_value, rows in by_rhs.items()
                }
                continue
            for rhs_value, rows in by_rhs.items():
                existing = merged_rhs.get(rhs_value)
                if existing is None:
                    merged_rhs[rhs_value] = row_ids(rows)
                else:
                    existing.extend(rows)
    return MergedPairGroups(merged)


def unmerge_pair_groups(
    merged: "MergedPairGroups", shard_groups: PairGroups
) -> None:
    """Retract one shard's contribution from a merged statistic, in place.

    ``shard_groups`` must be the pair groups *as extracted from that
    shard* (same offset, same contents) — exactly what
    :func:`extract_pair_groups` produced when the shard was merged.
    Because a shard's global row ids are a contiguous range, its rows
    occupy a contiguous slice of each merged row list; the slice is cut
    out with two bisects, keeping the remaining lists ascending.  Groups
    emptied by the retraction are pruned (and ``sorted_values`` shrinks
    with them), so the result is indistinguishable from a merge that
    never saw the shard.
    """
    groups = merged.groups
    values_changed = False
    for lhs_value, by_rhs in shard_groups.items():
        merged_rhs = groups[lhs_value]
        for rhs_value, rows in by_rhs.items():
            existing = merged_rhs[rhs_value]
            lo = bisect_left(existing, rows[0])
            hi = bisect_right(existing, rows[-1], lo=lo)
            del existing[lo:hi]
            if not existing:
                del merged_rhs[rhs_value]
        if not merged_rhs:
            del groups[lhs_value]
            values_changed = True
    if values_changed:
        merged.sorted_values = sorted(groups)


def merge_into_pair_groups(
    merged: "MergedPairGroups", shard_groups: PairGroups
) -> None:
    """Insert one shard's contribution into a merged statistic, in place.

    The inverse of :func:`unmerge_pair_groups`: each row list lands as a
    contiguous slice at its bisected position (the shard's global-id
    range is disjoint from every other shard's), so row lists stay
    ascending and ``unmerge → merge_into`` round-trips to an equal
    statistic.  New distinct LHS values re-sort ``sorted_values``.
    """
    groups = merged.groups
    values_changed = False
    for lhs_value, by_rhs in shard_groups.items():
        merged_rhs = groups.get(lhs_value)
        if merged_rhs is None:
            groups[lhs_value] = {
                rhs_value: row_ids(rows) for rhs_value, rows in by_rhs.items()
            }
            values_changed = True
            continue
        for rhs_value, rows in by_rhs.items():
            existing = merged_rhs.get(rhs_value)
            if existing is None:
                merged_rhs[rhs_value] = row_ids(rows)
            else:
                position = bisect_left(existing, rows[0])
                existing[position:position] = row_ids(rows)
    if values_changed:
        merged.sorted_values = sorted(groups)


class MergedPairGroups:
    """The cross-shard pair groups of one attribute pair, plus the sorted
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


# -- tree reduction ----------------------------------------------------------------
#
# The left folds above reduce one shard at a time on the driver — fine
# for a handful of shards, serial coordination for hundreds.  The tree
# variants below reduce *adjacent* partials pairwise, level by level:
# adjacent partials cover adjacent contiguous global-row ranges, so
# every pairwise merge concatenates a strictly lower id range with a
# strictly higher one and row lists stay ascending at every level.
# Merging adjacent pairs is therefore order-insensitive with respect to
# the fold: the result is value-equal to the left fold over the same
# shards (proven by the randomized equivalence tests in
# tests/sharding/test_tree_merge.py).
#
# Level-0 inputs are never mutated — they may be cached per-shard
# artifacts (``TABLE_ARTIFACTS``, the worker pool's warm cache) —
# so the first merge touching a partial copies it; intermediate results
# are owned by the reduction and merged in place.  An optional
# ``merge_map`` hook (same shape as the engines' shard map) runs each
# level's independent pairwise merges through a fan-out.


def _merge_adjacent_pair_groups(payload) -> PairGroups:
    """Merge two adjacent pair-group partials (module-level so a process
    fan-out can pickle it).  ``owns_left`` says whether ``left`` is an
    intermediate the reduction owns (mutable) or a level-0 input (copy)."""
    left, right, owns_left = payload
    if owns_left:
        merged = left
    else:
        merged = {
            lhs_value: {rhs_value: row_ids(rows) for rhs_value, rows in by_rhs.items()}
            for lhs_value, by_rhs in left.items()
        }
    for lhs_value, by_rhs in right.items():
        merged_rhs = merged.get(lhs_value)
        if merged_rhs is None:
            merged[lhs_value] = {
                rhs_value: row_ids(rows) for rhs_value, rows in by_rhs.items()
            }
            continue
        for rhs_value, rows in by_rhs.items():
            existing = merged_rhs.get(rhs_value)
            if existing is None:
                merged_rhs[rhs_value] = row_ids(rows)
            else:
                existing.extend(rows)
    return merged


def _tree_reduce(partials: List, merge_adjacent, merge_map) -> Tuple[object, bool]:
    """Reduce partials pairwise until one remains.  Returns ``(result,
    owned)`` — ``owned`` is ``False`` only for a single-partial input,
    where the result still aliases the caller's level-0 data."""
    owned = [False] * len(partials)
    while len(partials) > 1:
        payloads = [
            (partials[i], partials[i + 1], owned[i])
            for i in range(0, len(partials) - 1, 2)
        ]
        if merge_map is not None and len(payloads) > 1:
            level = list(merge_map(merge_adjacent, payloads))
        else:
            level = [merge_adjacent(payload) for payload in payloads]
        next_owned = [True] * len(level)
        if len(partials) % 2:
            level.append(partials[-1])
            next_owned.append(owned[-1])
        partials, owned = level, next_owned
    return partials[0], owned[0]


def tree_merge_pair_groups(
    shard_groups: Sequence[PairGroups], merge_map=None
) -> "MergedPairGroups":
    """Tree-reduce per-shard pair groups (in shard order) into one merged
    statistic, value-equal to :func:`merge_pair_groups`.  The level-0
    partials are left untouched (they may be cached), and ``merge_map``
    optionally fans each level's independent pairwise merges out."""
    partials = list(shard_groups)
    if not partials:
        return MergedPairGroups({})
    result, owned = _tree_reduce(partials, _merge_adjacent_pair_groups, merge_map)
    if not owned:
        result = {
            lhs_value: {rhs_value: row_ids(rows) for rhs_value, rows in by_rhs.items()}
            for lhs_value, by_rhs in result.items()
        }
    return MergedPairGroups(result)
