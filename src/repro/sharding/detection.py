"""Shard-parallel violation detection with merge-time block reduction.

The sharded detector runs the *same* rule semantics as every other
strategy — violations are constructed by the shared evaluators in
:mod:`repro.detection.rules` — but enumerates candidates from merged
per-shard pair groups (see :mod:`repro.sharding.stats`) instead of
per-row scans:

* each shard contributes one ``LHS value → RHS value → rows`` map per
  attribute pair (the shard fan-out stage; runs on worker processes when
  the engine injects a pooled ``shard_map``);
* the maps are reduced in shard order, giving the global distinct-value
  statistics;
* **constant rules** match the rule's LHS cell once per merged distinct
  value (literal-prefix narrowed, memo-backed) and check the RHS once
  per ``(LHS value, RHS value)`` group;
* **variable rules** project each merged distinct LHS value once; groups
  of values sharing a projection key are reduced into one cross-shard
  ``≡_Q`` block, already split by RHS value, and emitted through the
  evaluator's group core.

Emitted violations are canonically equal to a monolithic run (any
strategy); the differential suite in ``tests/sharding`` asserts it.  The
cost model is distinct-value-level, so the ``comparisons`` statistic is
not comparable with the row-level strategies.
"""

from __future__ import annotations

import time
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.dataset.rowids import RowIds, row_ids
from repro.detection.rules import (
    ConstantRuleEvaluator,
    VariableRuleEvaluator,
    make_rule_evaluator,
)
from repro.detection.violation import ViolationReport
from repro.kernels.groupby import pair_groups_kernel
from repro.perf import TABLE_ARTIFACTS
from repro.perf.memo import MatchMemo, MATCH_MEMO
from repro.perf.timers import StageTimers
from repro.pfd.pfd import PFD
from repro.sharding.sharded_table import ShardedTable
from repro.sharding.stats import (
    MergedPairGroups,
    PairGroups,
    merge_into_pair_groups,
    tree_merge_pair_groups,
)

#: the strategy label sharded reports carry
SHARDED_STRATEGY = "sharded"

#: key → RHS value → global rows: one rule's cross-shard ``≡_Q`` blocks,
#: pre-split by RHS value.
SplitBlocks = Dict[Hashable, Dict[str, RowIds]]


class ShardedDetector:
    """Applies PFDs to a :class:`ShardedTable` and reports violations.

    Per-shard pair groups are cached in the shared ``TABLE_ARTIFACTS``
    cache (keyed by each shard's mutation version) and the merged
    statistics on the sharded table itself, so repeated runs over an
    unchanged sharded table skip straight to emission.
    """

    def __init__(
        self,
        sharded: ShardedTable,
        memo: Optional[MatchMemo] = None,
        shard_map: Optional[Callable] = None,
    ):
        self.sharded = sharded
        self.memo = MATCH_MEMO if memo is None else memo
        #: how to apply the per-shard extraction: ``None`` stays
        #: in-process; anything else is
        #: :func:`repro.engine.pool.make_shard_map`'s pooled fan-out
        self._shard_map = shard_map
        #: wall-clock accumulated per detection stage across runs
        self.timers = StageTimers()

    # -- public API -----------------------------------------------------------

    def detect(self, pfd: PFD) -> ViolationReport:
        """Detect all violations of one PFD."""
        started = time.perf_counter()
        report = ViolationReport(
            n_rows=self.sharded.n_rows, strategy=SHARDED_STRATEGY
        )
        for rule_index, rule in enumerate(pfd.tableau):
            evaluator = make_rule_evaluator(pfd, rule_index, rule)
            if isinstance(evaluator, VariableRuleEvaluator):
                self._detect_variable_rule(report, evaluator)
            else:
                self._detect_constant_rule(report, evaluator)
        report.elapsed_seconds = time.perf_counter() - started
        return report

    def detect_all(self, pfds: Iterable[PFD]) -> ViolationReport:
        """Detect violations of every PFD and merge the reports."""
        pfds = list(pfds)
        self.warm_pair_groups(
            (pfd.lhs_attribute, pfd.rhs_attribute) for pfd in pfds
        )
        merged = ViolationReport(
            n_rows=self.sharded.n_rows, strategy=SHARDED_STRATEGY
        )
        for pfd in pfds:
            merged = merged.merged_with(self.detect(pfd))
        merged.strategy = SHARDED_STRATEGY
        return merged

    # -- merged statistics -------------------------------------------------------

    def pair_groups(self, lhs: str, rhs: str) -> MergedPairGroups:
        """The merged pair groups of one attribute pair (cached on the
        sharded table until a shard mutates)."""
        return self.sharded.merged_artifact(
            ("merged_pair_groups", lhs, rhs),
            lambda: self._merge_pair_groups(lhs, rhs),
        )

    def warm_pair_groups(self, pairs: Iterable[Tuple[str, str]]) -> None:
        """Batch-build the merged pair groups of several attribute pairs
        in **one** shard-major pass.

        The per-pair path scans every shard once *per pair* — on an
        out-of-core store whose LRU holds fewer shards than the table,
        that re-fetches and re-parses each shard for every pair.  This
        warm-up inverts the loops: while shard N is resident (and the
        prefetching reader is already fetching shard N+1), the statistics
        of *every* pending pair are extracted from it, so each shard
        object crosses the store exactly once per run.  Each partial
        folds into its pair's accumulator immediately (value-equal to
        the per-pair merges), and the results are primed into the same
        merged-artifact slots.  Pairs already cached,
        single-shard tables, and pooled fan-outs (whose per-pair maps are
        warm-cached by shard version instead) are left to the existing
        path.
        """
        pending: List[Tuple[str, str]] = []
        for pair in pairs:
            if pair in pending:
                continue
            if self.sharded.peek_merged_artifact(("merged_pair_groups",) + pair) is None:
                pending.append(pair)
        if len(pending) < 2 or self.sharded.n_shards < 2 or self._shard_map is not None:
            return
        # fold each shard's partial into its pair's accumulator the moment
        # it is extracted (ascending shard order, so the incremental
        # insert reduces to the same append-concatenation as the merges):
        # partials die with their shard, keeping the resident set bounded
        # even when every pair is warmed at once
        accumulators: Dict[Tuple[str, str], MergedPairGroups] = {
            pair: MergedPairGroups({}) for pair in pending
        }
        for offset, shard in self.sharded.iter_shards():
            for lhs, rhs in pending:
                with self.timers.stage("pair_groups"):
                    partial = self._shard_pair_groups(shard, offset, lhs, rhs)
                with self.timers.stage("merge"):
                    merge_into_pair_groups(accumulators[(lhs, rhs)], partial)
        for (lhs, rhs), merged in accumulators.items():
            self.sharded.prime_merged_artifact(
                ("merged_pair_groups", lhs, rhs), merged
            )

    def _merge_pair_groups(self, lhs: str, rhs: str) -> MergedPairGroups:
        with self.timers.stage("pair_groups"):
            if self._shard_map is not None and self.sharded.n_shards > 1:
                # warm-cacheable fan-out: keyed by shard version, so
                # repeated runs over unchanged shards skip the shard load
                # and the process round-trip; payloads are built lazily,
                # only for cache misses
                sharded = self.sharded
                versions = sharded.versions()
                keys = [
                    ("shard_pair_groups", sharded.version_space, index,
                     versions[index], lhs, rhs, sharded.offset_of(index))
                    for index in range(sharded.n_shards)
                ]
                shard_groups = self._shard_map(
                    _extract_shard,
                    keys=keys,
                    payload_for=lambda index: (
                        sharded.store.get(index).column_ref(lhs),
                        sharded.store.get(index).column_ref(rhs),
                        sharded.offset_of(index),
                    ),
                )
            else:
                shard_groups = [
                    self._shard_pair_groups(shard, offset, lhs, rhs)
                    for offset, shard in self.sharded.iter_shards()
                ]
        with self.timers.stage("merge"):
            # the pairwise tree levels fan out over the same pool
            merge_map = self._shard_map if len(shard_groups) > 2 else None
            return tree_merge_pair_groups(shard_groups, merge_map=merge_map)

    def _shard_pair_groups(
        self, shard, offset: int, lhs: str, rhs: str
    ) -> PairGroups:
        """One shard's statistic, cached per (shard version, pair, offset)."""
        return TABLE_ARTIFACTS.get(
            shard,
            ("shard_pair_groups", lhs, rhs, offset),
            lambda: pair_groups_kernel(
                shard.column_ref(lhs), shard.column_ref(rhs), offset
            ),
        )

    # -- constant rules -----------------------------------------------------------

    def _detect_constant_rule(
        self, report: ViolationReport, evaluator: ConstantRuleEvaluator
    ) -> None:
        merged = self.pair_groups(evaluator.lhs, evaluator.rhs)
        matching = merged.matching_values(evaluator.lhs_cell, self.memo)
        report.comparisons += merged.last_candidates_tested
        report.extend(
            evaluator.emit_value_groups(
                self._value_groups(merged, matching), self.memo, report
            )
        )

    @staticmethod
    def _value_groups(
        merged: MergedPairGroups, matching: Sequence[str]
    ) -> Iterator[Tuple[str, Sequence[int]]]:
        """``(observed RHS value, rows)`` pairs of the matching LHS values."""
        for lhs_value in matching:
            yield from merged.groups[lhs_value].items()

    # -- variable rules ------------------------------------------------------------

    def _detect_variable_rule(
        self, report: ViolationReport, evaluator: VariableRuleEvaluator
    ) -> None:
        blocks = self.sharded.merged_artifact(
            ("sharded_blocks", evaluator.lhs, evaluator.rhs, evaluator.constrained),
            lambda: self._reduce_blocks(evaluator),
        )
        for groups in blocks.values():
            if len(groups) < 2:
                continue
            report.comparisons += len(groups)
            report.extend(evaluator.violations_for_groups(groups))

    def _reduce_blocks(self, evaluator: VariableRuleEvaluator) -> SplitBlocks:
        """Reduce the merged pair groups into cross-shard ``≡_Q`` blocks.

        One projection per merged distinct LHS value (memo-backed, so
        every rule and every run shares the verdict); values sharing a
        projection key pour their per-RHS-value row lists into one
        block.  Row lists of a single (key, RHS value) group may
        interleave across source LHS values, which is why the witness
        semantics in :meth:`VariableRuleEvaluator.violations_for_groups`
        take ``min()`` rather than "first".
        """
        merged = self.pair_groups(evaluator.lhs, evaluator.rhs)
        project = self.memo.projector(evaluator.constrained)
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
                    # copy: block buckets must not alias the statistic's rows
                    bucket[rhs_value] = row_ids(rows)
                else:
                    existing.extend(rows)
        return blocks


def _extract_shard(payload) -> PairGroups:
    """Worker entry point for the shard fan-out (module-level so it is
    picklable by ``ProcessPoolExecutor``)."""
    return pair_groups_kernel(*payload)
