"""Incremental rule maintenance: edit batches as delta shards.

PR 2 made *violations* incremental; this module does the same for the
mined *rule set*.  A re-check after an interactive edit batch used to
re-run full discovery — re-profiling every column, re-tokenizing every
LHS, re-mining every candidate — even though a batch of cell repairs
touches a handful of shards and a couple of columns.

:class:`RuleMaintainer` keeps the baseline of the last sharded discovery
run (the sealed view, its shard versions, the per-candidate reports, the
per-column profiles) and, given the freshly sealed view of the edited
overlay, maintains the rule set instead of recomputing it:

1. **Dirty shards** are the version diff between the two seals
   (:meth:`~repro.sharding.sharded_table.ShardedTable.dirty_shards`) —
   overlay seals are snapshots, so untouched shards keep identical
   versions across seals.
2. **Changed columns** are found by comparing each dirty shard's old and
   new contents column-wise (prefiltered to the columns the overlay
   actually edited), which also recognizes edits that restored the
   original value.
3. **Profiles** are rebuilt for changed columns only; clean columns
   reuse their baseline :class:`~repro.dataset.profiling.ColumnProfile`
   (so candidate generation sees byte-identical inputs).
4. **Candidates** are recomputed from the updated profile — the same
   deterministic :func:`~repro.discovery.candidates.candidate_dependencies`
   full discovery runs.
5. **Mining** runs only for candidates touching a changed column (or
   new to the candidate set), through the mining loop full discovery
   runs (:meth:`~repro.discovery.discoverer.PfdDiscoverer.mine_candidates`).
   A candidate's report is a pure function of its two column value
   sequences, so clean candidates reuse their baseline report and the
   assembled rule set is *identical* to a full re-discovery (the
   differential gate in ``tests/discovery/test_maintenance.py`` asserts
   this).

The table-wide column encodings carry the maintained state forward:
the new view starts with the old view's encodings of every clean column
(so re-mining encodes only the changed columns) and with the pair
groups of rule pairs over clean columns; pairs touching a changed column
are regrouped on demand from the new encodings by the detection run
that follows a re-check.

Structural changes (appends, deletes, repartitions) shift global row
ids and change *every* column's value sequence, which would dirty every
candidate — exactly a full re-discovery.  :meth:`RuleMaintainer.maintain`
returns ``None`` for those; the caller falls back to the full pipeline
and re-seeds (the planner records the fallback as a plan decision).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.dataset.profiling import ColumnProfileBuilder, TableProfile
from repro.discovery.candidates import CandidateDependency, candidate_dependencies
from repro.discovery.config import DiscoveryConfig
from repro.discovery.decision import DecisionFunction
from repro.discovery.discoverer import (
    DependencyReport,
    DiscoveryResult,
    PfdDiscoverer,
)
from repro.sharding.discovery import drop_mining_artifacts
from repro.sharding.overlay import OverlayShardStore
from repro.sharding.sharded_table import ShardedTable

#: a report is keyed by what determines it: the attribute pair plus the
#: LHS token mode (the mode can flip when the LHS profile changes)
ReportKey = Tuple[str, str, str]


def _report_key(candidate: CandidateDependency) -> ReportKey:
    return (candidate.lhs, candidate.rhs, candidate.lhs_mode)


class RuleMaintainer:
    """Maintains a discovered rule set under overlay edit batches.

    Sits beside :class:`~repro.detection.incremental.IncrementalDetector`
    in the session: the detector keeps the *violations* current per
    edit, the maintainer keeps the *rules* current per re-check.  Seed
    it with a sharded discovery run (:meth:`seed`), then hand each
    re-check's freshly sealed view to :meth:`maintain`.
    """

    def __init__(
        self,
        config: Optional[DiscoveryConfig] = None,
        decision: Optional[DecisionFunction] = None,
    ):
        #: supplies the mining loop and the assemble stage — the same
        #: pipeline full discovery runs
        self.discoverer = PfdDiscoverer(config, decision)
        self.config = self.discoverer.config
        self.timers = self.discoverer.timers
        self._view: Optional[ShardedTable] = None
        self._versions: Tuple[int, ...] = ()
        self._row_counts: List[int] = []
        self._n_rows = 0
        self._reports: Dict[ReportKey, DependencyReport] = {}
        self._profiles: Dict[str, object] = {}

    @property
    def seeded(self) -> bool:
        """Whether a baseline discovery run has been adopted."""
        return self._view is not None

    def seed(self, view: ShardedTable, result: DiscoveryResult) -> None:
        """Adopt a sharded discovery run over ``view`` as the baseline.

        Cheap — stores references and the shard-version snapshot.
        """
        self._view = view
        self._versions = view.versions()
        self._row_counts = list(view.shard_row_counts())
        self._n_rows = view.n_rows
        self._reports = {
            _report_key(report.candidate): report for report in result.reports
        }
        self._profiles = dict(result.profile.columns)

    def reset(self) -> None:
        """Drop the baseline (e.g. when the dataset is replaced)."""
        self._view = None
        self._versions = ()
        self._row_counts = []
        self._reports = {}
        self._profiles = {}

    # -- the maintenance pass ---------------------------------------------------

    def maintain(
        self, view: ShardedTable, relation: Optional[str] = None
    ) -> Optional[DiscoveryResult]:
        """Bring the rule set up to date with a freshly sealed view.

        Returns the maintained :class:`DiscoveryResult` — identical to a
        full re-discovery over ``view`` — and advances the baseline to
        it.  Returns ``None`` when the baseline does not align
        (unseeded, a different base dataset, a repartition, or a
        structural change such as appends/deletes, where every candidate
        would re-mine anyway): the caller runs full discovery instead
        and re-seeds.
        """
        started = time.perf_counter()
        old_view = self._view
        if old_view is None:
            return None
        if view.column_names() != old_view.column_names():
            return None
        if view.version_space != old_view.version_space:
            # different base shards (repartition, reload): the version
            # spaces are not comparable, no diff is possible
            return None
        new_counts = view.shard_row_counts()
        if new_counts != self._row_counts:
            # appends/deletes shift global row ids and change every
            # column's value sequence — a full re-mine in disguise
            return None

        dirty = view.dirty_shards(self._versions)
        changed_columns = self._diff_columns(view, dirty)
        self._carry_clean_artifacts(view, changed_columns)

        with self.timers.stage("profile"):
            profile = self._maintained_profile(view, changed_columns)
        with self.timers.stage("candidates"):
            candidates = candidate_dependencies(view, self.config, profile)

        with self.timers.stage("mine"):
            # clean candidate: same value sequences, same report
            baselines = [
                None
                if candidate.lhs in changed_columns or candidate.rhs in changed_columns
                else self._reports.get(_report_key(candidate))
                for candidate in candidates
            ]
            remined = iter(
                self.discoverer.mine_candidates(
                    [c for c, baseline in zip(candidates, baselines) if baseline is None],
                    view.column_encodings,
                    view.merged_artifact,
                )
            )
            reports: List[DependencyReport] = [
                next(remined) if baseline is None else baseline
                for baseline in baselines
            ]
        with self.timers.stage("assemble"):
            pfds = self.discoverer.assemble_pfds(candidates, reports, relation)
        # same memory hygiene as the sharded discoverer
        drop_mining_artifacts(view, pfds)

        # advance the baseline to the maintained state
        self._view = view
        self._versions = view.versions()
        self._row_counts = new_counts
        self._reports = {
            _report_key(report.candidate): report for report in reports
        }
        self._profiles = dict(profile.columns)

        return DiscoveryResult(
            pfds=pfds,
            reports=reports,
            profile=profile,
            config=self.config,
            elapsed_seconds=time.perf_counter() - started,
        )

    # -- change detection -------------------------------------------------------

    def _diff_columns(self, view: ShardedTable, dirty: Sequence[int]) -> Set[str]:
        """The columns whose contents changed in some dirty shard.

        The overlay's edited-column sets prefilter the comparison (only
        columns with at least one edit can differ between seals); the
        element-wise check then drops edits that restored the original
        value, so a reverted batch dirties nothing.
        """
        names = view.column_names()
        new_store = view.store
        old_view = self._view
        changed: Set[str] = set()
        for index in dirty:
            if isinstance(new_store, OverlayShardStore):
                compare = [
                    names[j] for j in sorted(new_store.edited_columns(index))
                ]
            else:
                compare = names
            old_shard = old_view.store.get(index)
            new_shard = view.store.get(index)
            for name in compare:
                if name not in changed and (
                    old_shard.column_ref(name) != new_shard.column_ref(name)
                ):
                    changed.add(name)
        return changed

    # -- maintained statistics --------------------------------------------------

    def _carry_clean_artifacts(
        self, view: ShardedTable, changed_columns: Set[str]
    ) -> None:
        """Move the old view's encodings of clean columns, and the pair
        groups of pairs over clean columns, onto the new view.

        A clean column's values are the same on both seals, so its
        encoding — and any pair groups built only from clean encodings —
        equal what the new view would build.  Primed before mining, they
        leave the re-mine to encode only the changed columns, and the
        re-detection to regroup only the pairs touching one.  The old
        view releases both kinds: what moved now belongs to the new
        view, and the rest describes a state no later op reads.
        """
        old_view = self._view
        if view is old_view:
            return  # nothing changed; the artifacts are already in place
        carried = ("column_encoding", "merged_pair_groups")
        for prefix in carried:
            for key in old_view.merged_artifact_keys(prefix):
                # key[1:] names the artifact's columns
                artifact = old_view.peek_merged_artifact(key)
                if artifact is not None and changed_columns.isdisjoint(key[1:]):
                    view.prime_merged_artifact(key, artifact)
        old_view.drop_merged_artifacts(*carried)

    # -- maintained profile -----------------------------------------------------

    def _maintained_profile(
        self, view: ShardedTable, changed_columns: Set[str]
    ) -> TableProfile:
        """Baseline profiles for clean columns, a streaming rebuild for
        changed ones — assembled in schema order so candidate generation
        sees exactly what a full re-profile would."""
        columns = {}
        for name in view.column_names():
            if name in changed_columns or name not in self._profiles:
                builder = ColumnProfileBuilder(name)
                for _offset, shard in view.iter_shards():
                    builder.add(shard.column_ref(name))
                columns[name] = builder.finish()
            else:
                columns[name] = self._profiles[name]
        return TableProfile(n_rows=view.n_rows, columns=columns)
