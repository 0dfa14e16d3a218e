"""Sharded PFD discovery: per-shard statistics, one merged rule set.

Discovery over a :class:`~repro.sharding.sharded_table.ShardedTable`
extracts the expensive per-shard statistics — the single-pass column
tokenizations of Figure 2's inverted-list build — shard by shard
(optionally on worker processes), merges them by concatenation, and runs
the unchanged miners and decision function on the merged statistics.
Because merging reproduces the monolithic tokenization exactly (global
tuple ids are shard offset + local row, which is where concatenation
puts them), the discovered rule set is *identical* to a single-shard
run: same candidates, same inverted-entry support counts, same accepted
tableaux, same PFD names and order.  The differential suite in
``tests/sharding`` asserts this across generators and shard sizes.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.discovery.candidates import CandidateDependency, candidate_dependencies
from repro.discovery.config import DiscoveryConfig
from repro.discovery.decision import DecisionFunction
from repro.discovery.discoverer import (
    DiscoveryResult,
    PfdDiscoverer,
    _mine_candidate_encoded,
    _mine_candidate_values,
)
from repro.discovery.inverted_index import ColumnTokenization
from repro.kernels.runtime import kernels_enabled
from repro.kernels.tokenize import batch_tokenize, tokenization_from_encoding
from repro.pfd.pfd import PFD
from repro.sharding.sharded_table import ShardedTable
from repro.sharding.stats import tree_merge_tokenizations


class ShardedDiscoverer:
    """Discovers PFDs from a sharded table, shard by shard."""

    def __init__(
        self,
        config: Optional[DiscoveryConfig] = None,
        decision: Optional[DecisionFunction] = None,
        shard_map: Optional[Callable] = None,
    ):
        #: the monolithic driver supplies the miners, the decision
        #: function, and the assemble stage — one pipeline, two feeders
        self.discoverer = PfdDiscoverer(config, decision)
        self.config = self.discoverer.config
        #: how to apply the per-shard extraction: ``None`` stays
        #: in-process (sharing one distinct-value cache across shards),
        #: anything else is :func:`repro.engine.pool.make_shard_map`'s
        #: pooled fan-out
        self._shard_map = shard_map

    def discover(self, sharded: ShardedTable, relation: Optional[str] = None) -> List[PFD]:
        """Discover PFDs and return just the PFD list."""
        return self.discover_with_report(sharded, relation=relation).pfds

    def discover_with_report(
        self,
        sharded: ShardedTable,
        relation: Optional[str] = None,
        candidates: Optional[Sequence[CandidateDependency]] = None,
    ) -> DiscoveryResult:
        """Run the full pipeline over shards and return PFDs plus stats."""
        started = time.perf_counter()
        timers = self.discoverer.timers
        with timers.stage("profile"):
            # the session's profiling step already built it for these
            # shard versions; only a cold run profiles here
            profile = sharded.profile()
        if candidates is None:
            with timers.stage("candidates"):
                candidates = candidate_dependencies(sharded, self.config, profile)
        candidates = list(candidates)
        with timers.stage("mine"):
            reports = self._mine_merged(sharded, candidates)
        with timers.stage("assemble"):
            pfds = self.discoverer.assemble_pfds(candidates, reports, relation)
        return DiscoveryResult(
            pfds=pfds,
            reports=reports,
            profile=profile,
            config=self.config,
            elapsed_seconds=time.perf_counter() - started,
        )

    # -- merged statistics --------------------------------------------------------

    def _mine_merged(
        self, sharded: ShardedTable, candidates: Sequence[CandidateDependency]
    ) -> List:
        """The Figure 2 loop over merged columns and merged tokenizations.

        Mirrors ``PfdDiscoverer._mine_serial`` exactly, with the LHS
        tokenization assembled from per-shard extractions instead of one
        monolithic pass.
        """
        if kernels_enabled(self.config.use_kernels):
            return self._mine_merged_kernel(sharded, candidates)
        timers = self.discoverer.timers
        tokenizations: Dict[Tuple[str, str], ColumnTokenization] = {}
        reports = []
        for candidate in candidates:
            tokenization = None
            if self.config.discover_constant:
                key = (candidate.lhs, candidate.lhs_mode)
                tokenization = tokenizations.get(key)
                if tokenization is None:
                    with timers.stage("tokenize"):
                        tokenization = tokenizations[key] = self._merged_tokenization(
                            sharded, candidate.lhs, candidate.lhs_mode
                        )
            reports.append(
                _mine_candidate_values(
                    candidate,
                    sharded.column_concat(candidate.lhs),
                    sharded.column_concat(candidate.rhs),
                    self.config,
                    self.discoverer.constant_miner,
                    self.discoverer.variable_miner,
                    tokenization=tokenization,
                    timers=timers,
                )
            )
        self._drop_mining_artifacts(sharded)
        return reports

    def _mine_merged_kernel(
        self, sharded: ShardedTable, candidates: Sequence[CandidateDependency]
    ) -> List:
        """The columnar mining loop over merged columns.

        Encodings (built shard-major, every needed column in one pass)
        and distinct-level triples are merged-table artifacts (cached
        until a shard mutates); the loop body and the
        scalar-fallback rule are shared with the monolithic kernel path,
        so sharded and monolithic runs stay byte-identical.
        """
        timers = self.discoverer.timers
        triples: Dict[Tuple[str, str], list] = {}
        reports = []
        with timers.stage("tokenize"):
            # every column the candidates touch, in one pass over the shards
            encodings = sharded.column_encodings(
                [name for candidate in candidates for name in (candidate.lhs, candidate.rhs)]
            )
        for candidate in candidates:
            lhs_encoding = encodings[candidate.lhs]
            rhs_encoding = encodings[candidate.rhs]
            with timers.stage("tokenize"):
                candidate_triples = None
                if self.config.discover_constant:
                    key = (candidate.lhs, candidate.lhs_mode)
                    candidate_triples = triples.get(key)
                    if candidate_triples is None:
                        candidate_triples = triples[key] = sharded.merged_artifact(
                            (
                                "kernel_triples",
                                candidate.lhs,
                                candidate.lhs_mode,
                                self.config.ngram_size,
                            ),
                            lambda: batch_tokenize(
                                lhs_encoding,
                                candidate.lhs_mode,
                                self.config.ngram_size,
                            ),
                        )
            report = _mine_candidate_encoded(
                candidate,
                lhs_encoding,
                rhs_encoding,
                candidate_triples,
                self.config,
                self.discoverer.constant_miner,
                self.discoverer.variable_miner,
                timers=timers,
            )
            if report is None:
                tokenization = None
                if self.config.discover_constant:
                    tokenization = tokenization_from_encoding(
                        lhs_encoding,
                        candidate.lhs_mode,
                        self.config.ngram_size,
                        candidate_triples,
                    )
                report = _mine_candidate_values(
                    candidate,
                    sharded.column_concat(candidate.lhs),
                    sharded.column_concat(candidate.rhs),
                    self.config,
                    self.discoverer.constant_miner,
                    self.discoverer.variable_miner,
                    tokenization=tokenization,
                    timers=timers,
                )
            reports.append(report)
        self._drop_mining_artifacts(sharded)
        return reports

    @staticmethod
    def _drop_mining_artifacts(sharded: ShardedTable) -> None:
        """Release the O(n) merged statistics that exist only to feed the
        miners; a bounded-memory session must not carry them past
        discovery (they rebuild on demand if discovery reruns)."""
        sharded.drop_merged_artifacts(
            "column_concat",
            "column_encoding",
            "kernel_triples",
            "merged_tokenization",
        )

    def _merged_tokenization(
        self, sharded: ShardedTable, column: str, mode: str
    ) -> ColumnTokenization:
        """One column's tokenization, extracted shard by shard and merged
        (cached on the sharded table until a shard mutates)."""
        return sharded.merged_artifact(
            ("merged_tokenization", column, mode, self.config.ngram_size),
            lambda: self._extract_and_merge(sharded, column, mode),
        )

    def _extract_and_merge(
        self, sharded: ShardedTable, column: str, mode: str
    ) -> ColumnTokenization:
        timers = self.discoverer.timers
        ngram_size = self.config.ngram_size
        if self._shard_map is not None and sharded.n_shards > 1:
            # warm-cacheable fan-out: keyed by shard version, so a
            # repeated run over unchanged shards skips the shard load and
            # the process round-trip (payloads build lazily, only for
            # cache misses)
            versions = sharded.versions()
            keys = [
                ("shard_tokens", sharded.version_space, index, versions[index],
                 column, mode, ngram_size)
                for index in range(sharded.n_shards)
            ]
            shard_rows = self._shard_map(
                _extract_shard_tokens,
                keys=keys,
                payload_for=lambda index: (
                    sharded.store.get(index).column_ref(column),
                    mode,
                    ngram_size,
                ),
            )
        else:
            # One distinct-value cache across shards: a value recurring in
            # many shards is tokenized once, like the monolithic pass.
            value_cache: Dict[str, tuple] = {}
            shard_rows = [
                ColumnTokenization.extract(
                    shard.column_ref(column), mode, ngram_size, value_cache=value_cache
                ).row_tokens
                for _offset, shard in sharded.iter_shards()
            ]
        with timers.stage("merge"):
            return tree_merge_tokenizations(mode, ngram_size, shard_rows)


def _extract_shard_tokens(payload) -> list:
    """Worker entry point for the tokenization fan-out (module-level so
    it is picklable by ``ProcessPoolExecutor``)."""
    values, mode, ngram_size = payload
    return ColumnTokenization.extract(values, mode, ngram_size).row_tokens
