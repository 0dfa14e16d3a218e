"""Candidate dependency generation (Figure 2, line 1).

``CandidateDependencies(T)`` profiles the table and returns the ordered
attribute pairs ``A → B`` on which PFD discovery is attempted.  The
pruning rules follow the paper's description plus the obvious
generalizations needed to make them work on arbitrary tables:

* columns holding pure numeric measures are dropped, unless their values
  share a strong syntactic shape (zip codes and phone numbers are
  numeric but are exactly the kind of column PFDs thrive on);
* columns where essentially every value is distinct *and* no dominant
  pattern exists are dropped (free-text, UUIDs without structure);
* completely empty columns are dropped;
* the RHS additionally must not be (near-)unique per row, because then no
  two tuples could ever agree on it and no dependency is learnable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.dataset.profiling import ColumnProfile, TableProfile, profile_table
from repro.dataset.table import Table
from repro.discovery.config import DiscoveryConfig
from repro.pfd.fd import EmbeddedFD

#: LHS columns mined per table, the most promising first: a safety valve
#: for very wide tables
MAX_CANDIDATE_COLUMNS = 24


@dataclass(frozen=True)
class CandidateDependency:
    """A candidate ``A → B`` plus the token mode chosen for ``A``."""

    fd: EmbeddedFD
    lhs_mode: str

    @property
    def lhs(self) -> str:
        return self.fd.lhs_attribute

    @property
    def rhs(self) -> str:
        return self.fd.rhs_attribute

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.lhs} -> {self.rhs} [{self.lhs_mode}]"


def _lhs_mode_for(profile: ColumnProfile, config: DiscoveryConfig) -> str:
    """Pick the extraction mode for an LHS column.

    The paper: "n-grams are mainly used to extract patterns from
    attributes that contain [a] single token which could be a code or
    [an] id"; multi-token text attributes use whitespace tokens.
    """
    if config.token_mode != "auto":
        return config.token_mode
    if profile.is_single_token:
        return "prefix"
    return "token"


def _rhs_is_learnable(profile: ColumnProfile, n_rows: int) -> bool:
    """Whether a column can appear on the RHS of a discovered PFD."""
    if profile.n_values == profile.n_empty:
        return False
    non_empty = profile.n_values - profile.n_empty
    if non_empty < 2:
        return False
    # A (near-)unique RHS can never be agreed upon by two tuples.
    return profile.distinct_ratio < 0.9


def candidate_dependencies(
    table: Table,
    config: Optional[DiscoveryConfig] = None,
    profile: Optional[TableProfile] = None,
) -> List[CandidateDependency]:
    """All candidate dependencies of a table, most promising first."""
    config = config or DiscoveryConfig()
    profile = profile or profile_table(table)
    lhs_columns = profile.pfd_candidate_columns()[:MAX_CANDIDATE_COLUMNS]
    candidates: List[CandidateDependency] = []
    for lhs in lhs_columns:
        lhs_profile = profile[lhs]
        mode = _lhs_mode_for(lhs_profile, config)
        for rhs in table.column_names():
            if rhs == lhs:
                continue
            if not _rhs_is_learnable(profile[rhs], table.n_rows):
                continue
            candidates.append(
                CandidateDependency(EmbeddedFD.between(lhs, rhs), lhs_mode=mode)
            )
    # Most promising first: low-cardinality RHS columns (few distinct
    # values, e.g. state or gender) yield dependencies with higher
    # support, so try them before high-cardinality ones.
    candidates.sort(key=lambda c: profile[c.rhs].n_distinct)
    return candidates
