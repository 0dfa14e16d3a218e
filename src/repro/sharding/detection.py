"""Sharded violation detection over the table-wide column encodings.

The sharded detector runs the *same* rule semantics as
:class:`~repro.detection.detector.ErrorDetector` — violations are
constructed by the shared evaluators in
:mod:`repro.detection.rules` — but enumerates candidates from the pair
groups of each rule's attribute pair (see :mod:`repro.sharding.stats`)
instead of per-row scans:

* the rule columns' encodings come from
  :meth:`~repro.sharding.sharded_table.ShardedTable.column_encodings` —
  the ones discovery left behind, or one shard-major pass when
  detection runs cold;
* each pair's groups are one
  :func:`~repro.kernels.groupby.pair_groups_kernel` call over the two
  encodings, cached on the sharded table until a shard mutates;
* **constant rules** match the rule's LHS cell once per distinct value
  (literal-prefix narrowed, memo-backed) and check the RHS once per
  ``(LHS value, RHS value)`` group;
* **variable rules** project each distinct LHS value once; groups of
  values sharing a projection key are reduced into one ``≡_Q`` block,
  already split by RHS value, and emitted through the evaluator's group
  core.

Emitted violations are canonically equal to an ``ErrorDetector`` run;
the differential suite in ``tests/sharding`` asserts it.  The cost model
counts distinct values and groups, so the ``comparisons`` statistic is
not comparable with ``ErrorDetector``'s.
"""

from __future__ import annotations

import time
from typing import Dict, Hashable, Iterable, Iterator, Optional, Sequence, Tuple

from repro.dataset.rowids import RowIds, row_ids
from repro.detection.rules import (
    ConstantRuleEvaluator,
    VariableRuleEvaluator,
    make_rule_evaluator,
)
from repro.detection.violation import ViolationReport
from repro.kernels.groupby import pair_groups_kernel
from repro.perf.memo import MatchMemo, MATCH_MEMO
from repro.perf.timers import StageTimers
from repro.pfd.pfd import PFD
from repro.sharding.sharded_table import ShardedTable
from repro.sharding.stats import MergedPairGroups

#: the strategy label sharded reports carry
SHARDED_STRATEGY = "sharded"

#: key → RHS value → global rows: one rule's cross-shard ``≡_Q`` blocks,
#: pre-split by RHS value.
SplitBlocks = Dict[Hashable, Dict[str, RowIds]]


class ShardedDetector:
    """Applies PFDs to a :class:`ShardedTable` and reports violations.

    Encodings, pair groups and variable-rule blocks are cached on the
    sharded table itself (keyed by the shard versions), so repeated runs
    over an unchanged sharded table skip straight to emission.
    """

    def __init__(self, sharded: ShardedTable, memo: Optional[MatchMemo] = None):
        self.sharded = sharded
        self.memo = MATCH_MEMO if memo is None else memo
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
        # every rule column in one call: zero shard reads when discovery
        # left the encodings, one shard-major pass when it did not
        with self.timers.stage("encode"):
            self.sharded.column_encodings(
                [name for pfd in pfds for name in (pfd.lhs_attribute, pfd.rhs_attribute)]
            )
        # every report first: the merge's dedup keys then do not sit
        # between the pair-group and block artifacts the PFDs build,
        # which would raise the process's memory high-water mark
        return ViolationReport.merge(
            [self.detect(pfd) for pfd in pfds],
            n_rows=self.sharded.n_rows,
            strategy=SHARDED_STRATEGY,
        )

    # -- pair groups -------------------------------------------------------

    def pair_groups(self, lhs: str, rhs: str) -> MergedPairGroups:
        """The pair groups of one attribute pair, grouped from the two
        columns' encodings (cached on the sharded table until a shard
        mutates)."""
        return self.sharded.merged_artifact(
            ("merged_pair_groups", lhs, rhs),
            lambda: self._build_pair_groups(lhs, rhs),
        )

    def _build_pair_groups(self, lhs: str, rhs: str) -> MergedPairGroups:
        encodings = self.sharded.column_encodings([lhs, rhs])
        with self.timers.stage("pair_groups"):
            return MergedPairGroups(pair_groups_kernel(encodings[lhs], encodings[rhs]))

    # -- constant rules -----------------------------------------------------------

    def value_groups(
        self, evaluator: ConstantRuleEvaluator
    ) -> Iterator[Tuple[str, Sequence[int]]]:
        """``(observed RHS value, rows)`` pairs of the rows in a constant
        rule's scope: the pair groups of the LHS values its LHS cell
        matches (the rows are the cached statistic's own; callers that
        keep them must copy)."""
        merged = self.pair_groups(evaluator.lhs, evaluator.rhs)
        matching = merged.matching_values(evaluator.lhs_cell, self.memo)
        return self._value_groups(merged, matching)

    def _detect_constant_rule(
        self, report: ViolationReport, evaluator: ConstantRuleEvaluator
    ) -> None:
        value_groups = self.value_groups(evaluator)
        report.comparisons += self.pair_groups(
            evaluator.lhs, evaluator.rhs
        ).last_candidates_tested
        report.extend(evaluator.emit_value_groups(value_groups, self.memo, report))

    @staticmethod
    def _value_groups(
        merged: MergedPairGroups, matching: Sequence[str]
    ) -> Iterator[Tuple[str, Sequence[int]]]:
        """``(observed RHS value, rows)`` pairs of the matching LHS values."""
        for lhs_value in matching:
            yield from merged.groups[lhs_value].items()

    # -- variable rules ------------------------------------------------------------

    def blocks(self, evaluator: VariableRuleEvaluator) -> SplitBlocks:
        """A variable rule's ``≡_Q`` blocks, split by RHS value (cached on
        the sharded table until a shard mutates; callers that keep or
        change them must copy)."""
        return self.sharded.merged_artifact(
            ("sharded_blocks", evaluator.lhs, evaluator.rhs, evaluator.constrained),
            lambda: self._reduce_blocks(evaluator),
        )

    def _detect_variable_rule(
        self, report: ViolationReport, evaluator: VariableRuleEvaluator
    ) -> None:
        for groups in self.blocks(evaluator).values():
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

