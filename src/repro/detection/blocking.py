"""Blocking for variable-PFD detection.

The brute-force check of a variable PFD compares all pairs of tuples
matching the LHS pattern — quadratic in the worst case.  "The quadratic
time complexity can be avoided using blocking": tuples are first grouped
by the constrained projection of their LHS value (the ``≡_Q``
equivalence class), and only tuples inside the same block need to be
compared; within a block the RHS values either all agree (no violation)
or can be split by value, which is linear per block.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.constrained.constrained_pattern import ConstrainedPattern
from repro.perf.memo import MatchMemo


def block_by_key(
    rows: Sequence[int],
    values: Sequence[str],
    key: Callable[[str], Optional[Hashable]],
) -> Dict[Hashable, List[int]]:
    """Group rows by an arbitrary key of their value.

    Rows whose key is None (the value does not participate) are dropped.
    """
    blocks: Dict[Hashable, List[int]] = {}
    for row in rows:
        block_key = key(values[row])
        if block_key is None:
            continue
        blocks.setdefault(block_key, []).append(row)
    return blocks


def block_by_projection(
    rows: Sequence[int],
    values: Sequence[str],
    pattern: ConstrainedPattern,
    memo: Optional[MatchMemo] = None,
) -> Dict[Tuple[str, ...], List[int]]:
    """Group rows by the constrained projection ``s(Q)`` of their value.

    With a ``memo`` the projection regex runs once per distinct value
    instead of once per row (and the verdicts are shared with every
    other rule over the same pattern).
    """
    if memo is not None:
        return block_by_key(rows, values, memo.projector(pattern))
    return block_by_key(rows, values, pattern.blocking_key)


def split_block_by_rhs(
    block_rows: Sequence[int], rhs_values: Sequence[str]
) -> Dict[str, List[int]]:
    """Split one block by the RHS value of its rows."""
    groups: Dict[str, List[int]] = {}
    for row in block_rows:
        groups.setdefault(rhs_values[row], []).append(row)
    return groups


def majority_value(groups: Dict[str, List[int]]) -> str:
    """The RHS value held by the largest share of a block (ties broken
    lexicographically so results are deterministic)."""
    return max(groups, key=lambda value: (len(groups[value]), value))
