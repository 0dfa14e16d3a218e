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

from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.constrained.constrained_pattern import ConstrainedPattern
from repro.perf.memo import MatchMemo


def block_by_key(
    groups: Mapping[str, Sequence[int]],
    key: Callable[[str], Optional[Hashable]],
) -> Dict[Hashable, List[int]]:
    """Pour the rows of each distinct value (``value → rows``, as
    :meth:`~repro.dataset.table.Table.group_rows` returns them) into
    the block of the value's key; the key runs once per distinct value.

    Values whose key is None (the value does not participate) are
    dropped.  Each block's rows are ascending, and with the groups in
    first-appearance order the blocks come in the order of their first
    row — what keying the rows one by one would yield.
    """
    blocks: Dict[Hashable, List[int]] = {}
    for value, rows in groups.items():
        block_key = key(value)
        if block_key is not None:
            blocks.setdefault(block_key, []).extend(rows)
    for rows in blocks.values():
        rows.sort()
    return blocks


def block_by_projection(
    groups: Mapping[str, Sequence[int]],
    pattern: ConstrainedPattern,
    memo: Optional[MatchMemo] = None,
) -> Dict[Tuple[str, ...], List[int]]:
    """Group rows by the constrained projection ``s(Q)`` of their value
    (see :func:`block_by_key`).

    With a ``memo`` the projection verdicts are shared with every other
    rule over the same pattern.
    """
    if memo is not None:
        return block_by_key(groups, memo.projector(pattern))
    return block_by_key(groups, pattern.blocking_key)


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
