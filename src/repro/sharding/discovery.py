"""Sharded PFD discovery: merged column encodings, one rule set.

Discovery over a :class:`~repro.sharding.sharded_table.ShardedTable`
runs the monolithic discoverer's mining loop over the table-wide column
encodings (:meth:`~repro.sharding.sharded_table.ShardedTable.column_encodings`).
Profiling builds every column's encoding in one shard-major pass and
profiles from it; the view keeps both (its ``table_profile`` and
``encodings`` fields), so discovery after profiling reads no shard, and
a cold discovery reads each shard once.  Factorizing shard by shard
assigns codes in first-appearance order across the whole column, and
global tuple ids are shard offset + local row, so the merged encoding
is exactly the monolithic one and the discovered rule set is
*identical* to a single-shard run: same
candidates, same support counts, same accepted tableaux, same PFD names
and order.  The differential suite in ``tests/sharding`` asserts this
across generators and shard sizes.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.discovery.candidates import candidate_dependencies
from repro.discovery.config import DiscoveryConfig
from repro.discovery.discoverer import DiscoveryResult, PfdDiscoverer, new_mining_state
from repro.pfd.pfd import PFD
from repro.sharding.sharded_table import ShardedTable


def drop_mining_artifacts(sharded: ShardedTable) -> None:
    """Release the O(n) mining inputs nothing after discovery reads: the
    per-code arrays the miners derived from the column encodings.
    Every column's codes stay: they are the maintained state that
    detection groups rule pairs from, the edit loop seeds from, and a
    re-check patches and profiles from."""
    for encoding in sharded.encodings.values():
        encoding.release_derived()


class ShardedDiscoverer:
    """Discovers PFDs from a sharded table."""

    def __init__(self, config: Optional[DiscoveryConfig] = None):
        #: the monolithic driver supplies the mining loop and the
        #: assemble stage — one pipeline, two feeders
        self.discoverer = PfdDiscoverer(config)
        self.config = self.discoverer.config

    def discover(self, sharded: ShardedTable, relation: Optional[str] = None) -> List[PFD]:
        """Discover PFDs and return just the PFD list."""
        return self.discover_with_report(sharded, relation=relation).pfds

    def discover_with_report(
        self, sharded: ShardedTable, relation: Optional[str] = None
    ) -> DiscoveryResult:
        """Run the full pipeline over shards and return PFDs plus stats."""
        started = time.perf_counter()
        timers = self.discoverer.timers
        with timers.stage("profile"):
            # the session's profiling step already built it for this
            # view; only a cold run profiles here
            profile = sharded.profile()
        with timers.stage("candidates"):
            candidates = candidate_dependencies(sharded, self.config, profile)
        state = new_mining_state()
        with timers.stage("mine"):
            reports = self.discoverer.mine_candidates(
                candidates, sharded.column_encodings, state
            )
        with timers.stage("assemble"):
            pfds = self.discoverer.assemble_pfds(candidates, reports, relation)
        # a bounded-memory session carries past discovery only the
        # column codes (the rest rebuilds on demand)
        drop_mining_artifacts(sharded)
        return DiscoveryResult(
            pfds=pfds,
            reports=reports,
            profile=profile,
            config=self.config,
            elapsed_seconds=time.perf_counter() - started,
            mining_state=state,
        )
