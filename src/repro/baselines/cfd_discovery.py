"""Constant conditional functional dependency (CFD) discovery.

CFDs (Fan et al., TODS 2008) extend FDs with a tableau of *constant*
conditions — e.g. ``([zip = 90001] → [city = Los Angeles])``.  They are
the closest prior art to constant PFDs, but their tableau cells are whole
attribute values, not patterns, so a CFD needs one rule per zip code
where a PFD needs one rule per zip-code *prefix*.  The miner below
follows the CFDMiner idea restricted to single-attribute LHSs: a constant
rule is emitted for every frequent LHS value whose rows (mostly) agree on
the RHS value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dataset.table import Table


@dataclass(frozen=True)
class CfdRule:
    """One constant rule ``lhs_value → rhs_value``."""

    lhs_value: str
    rhs_value: str
    support: int
    confidence: float


@dataclass
class CFD:
    """A constant CFD over one attribute pair with its rule tableau."""

    lhs_attribute: str
    rhs_attribute: str
    rules: List[CfdRule] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rules)

    def describe(self) -> str:
        body = "; ".join(
            f"[{self.lhs_attribute}={rule.lhs_value}] → [{self.rhs_attribute}={rule.rhs_value}]"
            for rule in self.rules[:3]
        )
        suffix = f" … ({len(self.rules)} rules)" if len(self.rules) > 3 else ""
        return body + suffix


@dataclass
class CfdDiscoveryConfig:
    """Parameters of the constant-CFD miner."""

    min_support: int = 2
    min_confidence: float = 0.95
    #: LHS columns with more distinct values than this are skipped (a CFD
    #: tableau with one rule per distinct key value is not a useful rule).
    max_lhs_distinct_ratio: float = 0.9

    def __post_init__(self) -> None:
        if self.min_support < 1:
            raise ValueError("min_support must be >= 1")
        if not 0.0 < self.min_confidence <= 1.0:
            raise ValueError("min_confidence must be in (0, 1]")


def discover_constant_cfds(
    table: Table, config: Optional[CfdDiscoveryConfig] = None
) -> List[CFD]:
    """Mine constant CFDs for every ordered attribute pair."""
    config = config or CfdDiscoveryConfig()
    cfds: List[CFD] = []
    names = table.column_names()
    for lhs in names:
        lhs_values = table.column_ref(lhs)
        non_empty = [v for v in lhs_values if v != ""]
        if not non_empty:
            continue
        if len(set(non_empty)) / len(non_empty) > config.max_lhs_distinct_ratio:
            continue
        for rhs in names:
            if rhs == lhs:
                continue
            cfd = _mine_pair(table, lhs, rhs, config)
            if cfd.rules:
                cfds.append(cfd)
    return cfds


def _mine_pair(table: Table, lhs: str, rhs: str, config: CfdDiscoveryConfig) -> CFD:
    lhs_values = table.column_ref(lhs)
    rhs_values = table.column_ref(rhs)
    by_lhs: Dict[str, Dict[str, int]] = {}
    for lhs_value, rhs_value in zip(lhs_values, rhs_values):
        if lhs_value == "" or rhs_value == "":
            continue
        by_lhs.setdefault(lhs_value, {})
        by_lhs[lhs_value][rhs_value] = by_lhs[lhs_value].get(rhs_value, 0) + 1
    cfd = CFD(lhs_attribute=lhs, rhs_attribute=rhs)
    for lhs_value, counts in sorted(by_lhs.items()):
        support = sum(counts.values())
        if support < config.min_support:
            continue
        top_value = max(counts, key=lambda v: (counts[v], v))
        confidence = counts[top_value] / support
        if confidence < config.min_confidence:
            continue
        cfd.rules.append(
            CfdRule(
                lhs_value=lhs_value,
                rhs_value=top_value,
                support=support,
                confidence=confidence,
            )
        )
    return cfd
