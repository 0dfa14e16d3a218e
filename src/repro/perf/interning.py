"""Token-interning pool.

The inverted-index build extracts the same token strings over and over —
once per row they occur in, once per candidate dependency whose LHS
column contains them.  Interning collapses equal token strings to a
single object so dictionary keys compare by identity first and the
postings lists do not hold thousands of duplicate string objects.

``sys.intern`` is deliberately not used: it pins strings for the process
lifetime, while this pool can be cleared between workloads.
"""

from __future__ import annotations

from typing import Dict


class InternPool:
    """A clearable string-interning pool."""

    __slots__ = ("_pool",)

    def __init__(self) -> None:
        self._pool: Dict[str, str] = {}

    def intern(self, value: str) -> str:
        """The canonical shared instance of ``value``."""
        return self._pool.setdefault(value, value)

    def __len__(self) -> int:
        return len(self._pool)

    def __contains__(self, value: str) -> bool:
        return value in self._pool

    def clear(self) -> None:
        self._pool.clear()
