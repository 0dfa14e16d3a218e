"""What the session's detector seeds from on a sharded table.

Detection is the preprocessing phase of the edit loop: the
:class:`~repro.detection.incremental.IncrementalDetector` builds its
per-rule state once from the sharded view, and its report is the
detection report.  The functions here enumerate that state's inputs
from the pair groups of each rule's attribute pair (see
:mod:`repro.sharding.stats`) instead of per-row scans:

* each pair's groups are one
  :func:`~repro.kernels.groupby.pair_groups_kernel` call over the two
  columns' table-wide encodings — the ones discovery left behind, or
  one shard-major pass when detection runs cold — built once per view
  (the rule maintainer carries the clean ones across a re-check);
* **constant rules** match the rule's LHS cell once per distinct value
  (literal-prefix narrowed, memo-backed) and take the ``(LHS value, RHS
  value)`` groups of the matching values (:func:`value_groups`);
* **variable rules** project each distinct LHS value once; groups of
  values sharing a projection key are reduced into one ``≡_Q`` block,
  already split by RHS value (:func:`split_blocks`).

This is detection's one route: an
:class:`~repro.detection.detector.ErrorDetector` seeds the same way over
its table as one shard.  The violations are built by the evaluators in
:mod:`repro.detection.rules`; the differential and shard-invariance
suites hold them, canonically, to the literal per-row Section 3 loop of
``tests/detection_reference.py``, at every shard size.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, Sequence, Tuple

from repro.dataset.rowids import RowIds, row_ids
from repro.detection.rules import ConstantRuleEvaluator, VariableRuleEvaluator
from repro.kernels.groupby import pair_groups_kernel
from repro.perf.memo import MatchMemo
from repro.sharding.sharded_table import ShardedTable
from repro.sharding.stats import MergedPairGroups

#: key → RHS value → global rows: one rule's cross-shard ``≡_Q`` blocks,
#: pre-split by RHS value.
SplitBlocks = Dict[Hashable, Dict[str, RowIds]]


def pair_groups(sharded: ShardedTable, lhs: str, rhs: str) -> MergedPairGroups:
    """The pair groups of one attribute pair, grouped from the two
    columns' encodings once per view (kept in
    :attr:`ShardedTable.pair_groups`)."""
    merged = sharded.pair_groups.get((lhs, rhs))
    if merged is None:
        encodings = sharded.column_encodings([lhs, rhs])
        merged = sharded.pair_groups[(lhs, rhs)] = MergedPairGroups(
            pair_groups_kernel(encodings[lhs], encodings[rhs])
        )
    return merged


def value_groups(
    sharded: ShardedTable, evaluator: ConstantRuleEvaluator, memo: MatchMemo
) -> Iterator[Tuple[str, Sequence[int]]]:
    """``(observed RHS value, rows)`` pairs of the rows in a constant
    rule's scope: the pair groups of the LHS values its LHS cell
    matches (the rows are the kept statistic's own; callers that
    keep them must copy)."""
    merged = pair_groups(sharded, evaluator.lhs, evaluator.rhs)
    for lhs_value in merged.matching_values(evaluator.lhs_cell, memo):
        yield from merged.groups[lhs_value].items()


def split_blocks(
    sharded: ShardedTable, evaluator: VariableRuleEvaluator, memo: MatchMemo
) -> SplitBlocks:
    """A variable rule's ``≡_Q`` blocks, split by RHS value.

    One projection per distinct LHS value (memo-backed, so every rule
    and every run shares the verdict); values sharing a projection key
    pour their per-RHS-value row lists into one block.  The row lists
    are fresh (never the kept statistic's), so the caller may keep and
    change them; those of one (key, RHS value) group may interleave
    across source LHS values and are not sorted.
    """
    merged = pair_groups(sharded, evaluator.lhs, evaluator.rhs)
    project = memo.projector(evaluator.constrained)
    blocks: SplitBlocks = {}
    for lhs_value, by_rhs in merged.groups.items():
        key = project(lhs_value)
        if key is None:
            continue
        bucket = blocks.get(key)
        if bucket is None:
            bucket = blocks[key] = {}
        for rhs_value, rows in by_rhs.items():
            existing = bucket.get(rhs_value)
            if existing is None:
                bucket[rhs_value] = row_ids(rows)
            else:
                existing.extend(rows)
    return blocks
