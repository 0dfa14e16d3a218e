"""Read a sharded table's logical values shard by shard, through its
store (the tests' reference for what a view holds)."""

from __future__ import annotations

from typing import List, Tuple


def column_of(sharded, name: str) -> List[str]:
    """One logical column, concatenated across the shards in order."""
    return [value for _offset, shard in sharded.iter_shards() for value in shard.column_ref(name)]


def rows_of(sharded) -> List[Tuple[str, ...]]:
    """Every logical row, in order."""
    return [row for _offset, shard in sharded.iter_shards() for row in shard.iter_rows()]
