"""TANE-style functional dependency discovery.

This is the classical baseline the paper contrasts PFDs with: FDs relate
*entire* attribute values, so they cannot express "the first three digits
of the zip code determine the city".  The miner implements the core of
TANE — level-wise search over the attribute-set lattice with stripped
partitions and partition products — restricted to small LHS sizes, plus a
g3-based approximate mode so dependencies that almost hold on dirty data
can still be found.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.dataset.table import Table
from repro.pfd.fd import FunctionalDependency

#: A stripped partition: equivalence classes of size >= 2, as row-index tuples.
StrippedPartition = Tuple[Tuple[int, ...], ...]


def stripped_partition(table: Table, attributes: Sequence[str]) -> StrippedPartition:
    """The stripped partition of a set of attributes.

    Rows are grouped by their combined value on ``attributes``; singleton
    groups are dropped ("stripped") because they can never witness a
    violation.
    """
    groups: Dict[Tuple[str, ...], List[int]] = {}
    columns = [table.column_ref(a) for a in attributes]
    for row in range(table.n_rows):
        key = tuple(column[row] for column in columns)
        groups.setdefault(key, []).append(row)
    return tuple(
        tuple(rows) for rows in groups.values() if len(rows) >= 2
    )


def refines(lhs_partition: StrippedPartition, rhs_column: Sequence[str]) -> bool:
    """Whether every LHS equivalence class agrees on the RHS value."""
    for cls in lhs_partition:
        first = rhs_column[cls[0]]
        for row in cls[1:]:
            if rhs_column[row] != first:
                return False
    return True


def g3_error_of_partition(lhs_partition: StrippedPartition, rhs_column: Sequence[str], n_rows: int) -> float:
    """Minimum fraction of rows to remove so the FD holds."""
    if n_rows == 0:
        return 0.0
    violating = 0
    for cls in lhs_partition:
        counts: Dict[str, int] = {}
        for row in cls:
            value = rhs_column[row]
            counts[value] = counts.get(value, 0) + 1
        violating += len(cls) - max(counts.values())
    return violating / n_rows


@dataclass
class FdDiscoveryConfig:
    """Parameters of the FD miner."""

    max_lhs_size: int = 2
    #: maximum g3 error for an (approximate) FD to be reported; 0 = exact
    max_error: float = 0.0
    #: skip columns that are keys (every value distinct) as RHS
    skip_unique_rhs: bool = True

    def __post_init__(self) -> None:
        if self.max_lhs_size < 1:
            raise ValueError("max_lhs_size must be >= 1")
        if not 0.0 <= self.max_error < 1.0:
            raise ValueError("max_error must be in [0, 1)")


@dataclass
class DiscoveredFd:
    """An FD with its measured g3 error."""

    fd: FunctionalDependency
    error: float

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.fd} (g3={self.error:.4f})"


class TaneDiscoverer:
    """Level-wise FD discovery over the attribute lattice."""

    def __init__(self, config: Optional[FdDiscoveryConfig] = None):
        self.config = config or FdDiscoveryConfig()

    def discover(self, table: Table) -> List[DiscoveredFd]:
        """All minimal (approximate) FDs with LHS size up to the limit."""
        config = self.config
        attributes = table.column_names()
        results: List[DiscoveredFd] = []
        #: RHS attributes already determined by some subset of a given LHS —
        #: used to keep only minimal dependencies.
        determined_by: Dict[FrozenSet[str], set] = {}

        unique_columns = {
            name
            for name in attributes
            if len(set(table.column_ref(name))) == table.n_rows and table.n_rows > 1
        }

        partition_cache: Dict[FrozenSet[str], StrippedPartition] = {}

        def partition_of(attrs: FrozenSet[str]) -> StrippedPartition:
            if attrs not in partition_cache:
                partition_cache[attrs] = stripped_partition(table, sorted(attrs))
            return partition_cache[attrs]

        for size in range(1, config.max_lhs_size + 1):
            for lhs in combinations(attributes, size):
                lhs_set = frozenset(lhs)
                inherited = set()
                for attr in lhs:
                    smaller = lhs_set - {attr}
                    if smaller:
                        inherited |= determined_by.get(smaller, set())
                determined_by.setdefault(lhs_set, set()).update(inherited)
                lhs_partition = partition_of(lhs_set)
                for rhs in attributes:
                    if rhs in lhs_set or rhs in determined_by[lhs_set]:
                        continue
                    if config.skip_unique_rhs and rhs in unique_columns:
                        continue
                    rhs_column = table.column_ref(rhs)
                    if config.max_error == 0.0:
                        holds = refines(lhs_partition, rhs_column)
                        error = 0.0 if holds else 1.0
                    else:
                        error = g3_error_of_partition(
                            lhs_partition, rhs_column, table.n_rows
                        )
                        holds = error <= config.max_error
                    if holds:
                        determined_by[lhs_set].add(rhs)
                        results.append(
                            DiscoveredFd(
                                FunctionalDependency.of(lhs, rhs),
                                error=error if config.max_error > 0 else 0.0,
                            )
                        )
        return results


def discover_fds(table: Table, config: Optional[FdDiscoveryConfig] = None) -> List[DiscoveredFd]:
    """Convenience wrapper around :class:`TaneDiscoverer`."""
    return TaneDiscoverer(config).discover(table)
