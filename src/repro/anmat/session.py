"""The ANMAT workflow as a single session object.

The demo walks the user through: select/create a project → upload a
dataset → set minimum coverage and allowed violations → the system
profiles the data and extracts PFDs → the user inspects tableaux and
confirms the dependencies that are valid → the confirmed rules are run
over the data and violations are reported.  :class:`AnmatSession`
exposes each of those steps as a method and enforces their order.

After detection the session supports an interactive **edit loop**:
:meth:`edit_cell` / :meth:`apply_repair` mutate the table and update the
violation report *in place* through an
:class:`~repro.detection.incremental.IncrementalDetector` instead of
re-scanning the whole table — the session moves to ``EDITING`` and a
:meth:`run_detection` (full re-check) returns it to ``DETECTED``.

Discovery and detection are executed through the pluggable execution
engine (:mod:`repro.engine`): the session builds an
:class:`~repro.engine.plan.ExecutionPlan` from its config and upload
kind and hands it to the matching backend — serial, or sharded (the
one route for ``n_workers``; its detection fans out over the session's
worker pool) — so the session itself carries no routing branches.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.anmat.project import Project
from repro.dataset.csvio import iter_csv_chunks
from repro.dataset.profiling import TableProfile
from repro.dataset.table import Table
from repro.detection.incremental import IncrementalDetector
from repro.detection.repair import RepairSuggestion, suggest_repairs
from repro.detection.violation import ViolationReport
from repro.discovery.config import DiscoveryConfig
from repro.discovery.discoverer import DiscoveryResult
from repro.discovery.maintenance import RuleMaintainer
from repro.engine import (
    DEFAULT_SHARD_ROWS,
    DataSource,
    ExecutionBackend,
    ExecutionPlan,
    build_executor,
    plan_detection,
    plan_discovery,
)
from repro.engine.worker_pool import WorkerPool
from repro.errors import ProjectError
from repro.pfd.pfd import PFD
from repro.sharding.sharded_table import ShardedTable
from repro.sharding.store import ShardStore, make_shard_store


def _rule_key(pfd: "PFD") -> str:
    """A PFD's identity by *content* — attribute pair plus tableau,
    ignoring the assigned ``psiN`` name — so confirmations can survive a
    re-check that renumbers the rule set."""
    data = pfd.to_dict()
    data.pop("name", None)
    return json.dumps(data, sort_keys=True)


class SessionState(enum.Enum):
    """Where in the workflow a session currently is."""

    CREATED = "created"
    LOADED = "loaded"
    PROFILED = "profiled"
    DISCOVERED = "discovered"
    DETECTED = "detected"
    EDITING = "editing"


@dataclass
class AnmatSession:
    """One dataset's journey through the ANMAT pipeline."""

    dataset_name: str
    #: the row-addressable logical dataset: a :class:`Table` for
    #: monolithic loads, a :class:`~repro.sharding.overlay.ShardOverlay`
    #: for sharded uploads (same read/mutation interface; the shard
    #: bytes stay on their store)
    table: Optional[Table] = None
    project: Optional[Project] = None
    config: DiscoveryConfig = field(default_factory=DiscoveryConfig)
    state: SessionState = SessionState.CREATED
    profile: Optional[TableProfile] = None
    discovery: Optional[DiscoveryResult] = None
    confirmed_names: List[str] = field(default_factory=list)
    violations: Optional[ViolationReport] = None
    #: the plan of the most recent discovery/detection run (``--explain-plan``
    #: and tests introspect it)
    last_plan: Optional[ExecutionPlan] = field(default=None, repr=False)
    #: the rules of the last run_detection, driving the edit loop
    _detection_rules: List[PFD] = field(default_factory=list, repr=False)
    _incremental: Optional[IncrementalDetector] = field(default=None, repr=False)
    #: maintains the rule set across :meth:`recheck` calls — seeded by
    #: every sharded discovery run, dropped with the dataset
    _maintainer: Optional[RuleMaintainer] = field(default=None, repr=False)
    #: the dataset as the engine sees it: a monolithic table, or a
    #: never-materialized shard-store source
    _source: Optional[DataSource] = field(default=None, repr=False)
    #: the session's persistent worker pool: lazily created by the first
    #: detection plan that fans out, reused by every later detection
    #: (including the one a recheck runs), closed with the session
    _worker_pool: Optional[WorkerPool] = field(default=None, repr=False)

    # -- step 1: load ------------------------------------------------------------

    def load_table(self, table: Union["Table", "ShardedTable"]) -> "AnmatSession":
        """Attach ("upload") the dataset to the session.

        A :class:`ShardedTable` (e.g. from the chunked CSV reader, or
        built over a spill/object :class:`ShardStore`) is accepted too —
        and is **never materialized**: the session's ``table`` becomes a
        row-addressable :class:`~repro.sharding.overlay.ShardOverlay`
        over the shard store, which profiling views, repairs, and the
        edit loop all read and mutate through, while the shard bytes
        stay wherever the store keeps them.

        Any edit loop over a previously loaded table is dropped — its
        detector would otherwise keep mutating the *old* table — and the
        previous dataset's shard store is closed (spill files and object
        roots are released as soon as they are unreachable, not at
        interpreter exit).
        """
        if self._source is not None:
            self._source.close()
        if self._worker_pool is not None:
            # a new dataset restarts shard indexes and versions from
            # scratch; stale warm-cache entries must not hit for it
            self._worker_pool.clear_warm_cache()
        if isinstance(table, ShardedTable):
            self._source = DataSource.from_sharded(table)
        else:
            self._source = DataSource(table)
        self.table = self._source.view
        self.violations = None
        self._detection_rules = []
        self._incremental = None
        self._maintainer = None
        self.state = SessionState.LOADED
        if self.project is not None:
            self.project.add_dataset(self.dataset_name, self.table)
        return self

    def upload_csv(
        self,
        path: Union[str, Path],
        shard_rows: int = 0,
        store: Optional[ShardStore] = None,
        **csv_kwargs,
    ) -> "AnmatSession":
        """Stream a CSV upload chunk-wise into a shard store and load it.

        The streaming-ingest entry point: :func:`iter_csv_chunks` parses
        the document in bounded-memory chunks and each chunk is appended
        to ``store`` as it arrives — with a spill/object store the
        *parse* never holds more than one chunk (plus the store's small
        LRU) in memory.  The closing :meth:`load_table` keeps the
        dataset on that store: the session reads through a shard
        overlay, so with a disk-backed store the resident footprint is
        bounded by the store's LRU (plus its interned distinct values),
        not the dataset.  ``store`` defaults to the backend
        ``config.store`` names (``memory``/``spill``/``object``, rooted
        at ``config.spill_dir``); ``shard_rows`` falls back to
        ``config.shard_rows``, then to the engine default; extra keyword
        arguments reach the CSV reader (``delimiter``, ``header``,
        ``column_names``, ...).

        The upload adopts the store either way: on success the session's
        :meth:`close` releases it, and when the upload *fails* partway —
        a malformed CSV, an object put that exhausts its retries — the
        store is closed before the error surfaces, so spill directories
        and object roots never leak off the error path (with or without
        the session used as a context manager).
        """
        if shard_rows <= 0:
            shard_rows = self.config.shard_rows or DEFAULT_SHARD_ROWS
        if store is None:
            store = make_shard_store(
                self.config.store,
                self.config.spill_dir,
                object_url=self.config.object_url,
            )
        try:
            sharded = ShardedTable.from_chunks(
                iter_csv_chunks(path, shard_rows, **csv_kwargs), store=store
            )
        except BaseException:
            # the half-filled store is unusable; release it now rather
            # than leaking its root until interpreter exit
            store.close()
            raise
        return self.load_table(sharded)

    def set_parameters(
        self,
        min_coverage: Optional[float] = None,
        allowed_violation_ratio: Optional[float] = None,
    ) -> "AnmatSession":
        """Set the two user-facing parameters of Section 4."""
        overrides = {}
        if min_coverage is not None:
            overrides["min_coverage"] = min_coverage
        if allowed_violation_ratio is not None:
            overrides["allowed_violation_ratio"] = allowed_violation_ratio
        if overrides:
            self.config = self.config.with_overrides(**overrides)
        return self

    # -- step 2: profile ------------------------------------------------------------

    def run_profiling(self) -> TableProfile:
        """Profile every column (the Figure 3 view).

        Sharded uploads are profiled shard-major through the streaming
        column builders — one resident shard at a time, identical output
        to profiling the materialized table."""
        self._require_table()
        self.profile = self._source.profile()
        self.state = SessionState.PROFILED
        return self.profile

    # -- step 3: discover -------------------------------------------------------------

    def plan_discovery(self) -> ExecutionPlan:
        """The :class:`ExecutionPlan` a :meth:`run_discovery` would run."""
        self._require_table()
        return plan_discovery(
            self.table.n_rows,
            self.config,
            sharded_upload=self._source.is_sharded_upload,
            upload_shard_rows=self._source.upload_shard_rows,
        )

    def run_discovery(self) -> DiscoveryResult:
        """Extract PFDs from the dataset (the Figure 4 view).

        The run is resolved by the execution engine's planner —
        ``config.shard_rows``, ``config.n_workers`` or a sharded upload
        route it through the sharded backend, anything else runs the
        serial engine — and executed by the matching backend; results
        are identical across backends.
        """
        plan = self.plan_discovery()
        if self.profile is None:
            self.run_profiling()
        self.discovery = build_executor(plan).run_discovery(
            plan, self._source, relation=self.dataset_name
        )
        self.last_plan = plan
        self._seed_maintainer(plan, self.discovery)
        # By default every discovered dependency is pending confirmation,
        # and any report/edit loop over the previous rule set is dropped.
        self.confirmed_names = []
        self.violations = None
        self._detection_rules = []
        self._incremental = None
        self.state = SessionState.DISCOVERED
        if self.project is not None:
            self.project.save_pfds(self.dataset_name, self.discovery.pfds)
        return self.discovery

    def plan_recheck(self) -> ExecutionPlan:
        """The :class:`ExecutionPlan` a :meth:`recheck` would run.

        A re-check plan records ``plan.rule_maintenance``:
        ``incremental`` when a sharded discovery baseline is seeded,
        ``full`` otherwise.
        """
        self._require_table()
        return plan_discovery(
            self.table.n_rows,
            self.config,
            sharded_upload=self._source.is_sharded_upload,
            upload_shard_rows=self._source.upload_shard_rows,
            recheck=True,
            maintainable=self._maintainer is not None and self._maintainer.seeded,
        )

    def recheck(self) -> DiscoveryResult:
        """Bring the rule set up to date after an edit batch.

        The edit loop keeps the *violations* current per edit
        (:meth:`edit_cell`); this is its counterpart for the *rules*.
        The planner resolves how (``plan.rule_maintenance``): with a
        seeded sharded baseline the
        :class:`~repro.discovery.maintenance.RuleMaintainer` re-mines
        only the candidates whose columns the edit batch changed; a
        structural change (appended/deleted rows) or a monolithic run
        falls back to full re-discovery (recorded on the plan's
        decisions).  Either way the resulting rule set is identical to
        discovering from scratch.

        The plan inherits the upload's shard size exactly like the
        discovery plan does, so a re-check never silently re-shards a
        custom-sharded upload at the default size.

        Confirmations survive by rule content: dependencies whose
        tableau is unchanged stay confirmed (whatever their new number),
        and when a detection run existed the surviving confirmations are
        re-detected (session back to ``DETECTED``).  If no confirmation
        survives, violations are cleared and the session returns to
        ``DISCOVERED`` awaiting fresh confirmations.
        """
        self._require_table()
        if self.discovery is None:
            raise ProjectError(
                "no discovery run to re-check; call run_discovery() first"
            )
        plan = self.plan_recheck()
        confirmed_keys = [_rule_key(pfd) for pfd in self.confirmed_pfds()]
        had_detection = bool(self._detection_rules)
        result: Optional[DiscoveryResult] = None
        if plan.rule_maintenance == "incremental":
            result = self._maintainer.maintain(
                self._source.sharded_view(plan.shard_rows),
                relation=self.dataset_name,
            )
            if result is None:
                plan.rule_maintenance = "full"
                plan.decisions.append(
                    "the edit batch changed the dataset structurally (or the "
                    "rule baseline no longer aligns); falling back to full "
                    "re-discovery"
                )
        if result is None:
            result = build_executor(plan).run_discovery(
                plan, self._source, relation=self.dataset_name
            )
            self._seed_maintainer(plan, result)
        self.discovery = result
        self._incremental = None
        self._detection_rules = []
        # re-confirm by content: a rule that survived the re-check stays
        # confirmed under its new name
        survivors = {_rule_key(pfd): pfd.name for pfd in result.pfds}
        self.confirmed_names = [
            survivors[key] for key in confirmed_keys if key in survivors
        ]
        if self.project is not None:
            self.project.save_pfds(
                self.dataset_name, result.pfds, self.confirmed_names
            )
        if had_detection and self.confirmed_names:
            self.run_detection()
        else:
            self.violations = None
            self.state = SessionState.DISCOVERED
        # the re-check plan (not the inner detection plan) is what
        # --explain-plan and tests should see as the run that just happened
        self.last_plan = plan
        return result

    def _seed_maintainer(self, plan: ExecutionPlan, result: DiscoveryResult) -> None:
        """Adopt a sharded discovery run as the rule-maintenance baseline
        (monolithic runs have no shard versions to diff — drop any stale
        baseline instead)."""
        if plan.backend == ExecutionBackend.SHARDED:
            self._maintainer = RuleMaintainer(self.config)
            self._maintainer.seed(
                self._source.sharded_view(plan.shard_rows), result
            )
        else:
            self._maintainer = None

    def discovered_pfds(self) -> List[PFD]:
        if self.discovery is None:
            return []
        return list(self.discovery.pfds)

    # -- step 4: confirm ---------------------------------------------------------------

    def confirm(self, names: Iterable[str]) -> List[str]:
        """Mark dependencies (by PFD name) as confirmed by the user.

        Atomic: the full name list is validated before any state is
        touched, so an unknown name leaves ``confirmed_names`` (and the
        saved project) exactly as they were.
        """
        names = list(names)
        available = {pfd.name for pfd in self.discovered_pfds()}
        unknown = [name for name in names if name not in available]
        if unknown:
            raise ProjectError(
                f"cannot confirm unknown PFD{'s' if len(unknown) > 1 else ''} "
                f"{', '.join(repr(n) for n in unknown)}"
            )
        for name in names:
            if name not in self.confirmed_names:
                self.confirmed_names.append(name)
        if self.project is not None and self.discovery is not None:
            self.project.save_pfds(
                self.dataset_name, self.discovery.pfds, self.confirmed_names
            )
        return names

    def confirm_all(self) -> List[str]:
        """Confirm every discovered dependency."""
        return self.confirm([pfd.name for pfd in self.discovered_pfds() if pfd.name])

    def confirmed_pfds(self) -> List[PFD]:
        return [
            pfd
            for pfd in self.discovered_pfds()
            if pfd.name in self.confirmed_names
        ]

    # -- step 5: detect -----------------------------------------------------------------

    def plan_detection(self) -> ExecutionPlan:
        """The :class:`ExecutionPlan` a :meth:`run_detection` would run."""
        self._require_table()
        return plan_detection(
            self.table.n_rows,
            self.config,
            sharded_upload=self._source.is_sharded_upload,
            upload_shard_rows=self._source.upload_shard_rows,
        )

    def run_detection(self, pfds: Optional[Sequence[PFD]] = None) -> ViolationReport:
        """Run the confirmed PFDs (or ``pfds``) over the data (the
        Figure 5 view).

        The engine's planner resolves the run: a sharded dataset goes
        shard-parallel (canonically equal violations), a monolithic one
        runs the serial engine.  The edit loop maintains violations
        monolithically either way.
        """
        self._require_table()
        rules = list(pfds) if pfds is not None else self.confirmed_pfds()
        if not rules:
            raise ProjectError(
                "no confirmed PFDs to run; call run_discovery() and confirm() first"
            )
        plan = self.plan_detection()
        self.violations = build_executor(plan).run_detection(
            plan, self._source, rules, pool=self._pool_for(plan)
        )
        self.last_plan = plan
        self._detection_rules = rules
        self._incremental = None  # a fresh full run supersedes any edit loop
        self.state = SessionState.DETECTED
        self._save_results()
        return self.violations

    def repair_suggestions(self) -> List[RepairSuggestion]:
        """Repair suggestions for the last detection run."""
        if self.violations is None:
            return []
        return suggest_repairs(self.violations)

    # -- step 6: edit loop ------------------------------------------------------------

    def edit_cell(self, row: int, attribute: str, value: object) -> ViolationReport:
        """Fix one cell and update the violation report *in place*.

        The first edit after a detection run attaches an
        :class:`IncrementalDetector` over the confirmed rules (reusing
        the cached per-table artifacts of that run); subsequent edits
        cost one delta application each instead of a full re-scan.  The
        session moves to ``EDITING``; :meth:`run_detection` performs a
        full re-check and returns it to ``DETECTED``.

        Project results are *not* rewritten per edit (that disk write
        would dwarf the incremental update); they are persisted by the
        closing :meth:`run_detection` re-check.
        """
        self._require_table()
        if self.violations is None or not self._detection_rules:
            raise ProjectError(
                "no detection run to maintain; call run_detection() before editing"
            )
        if self._incremental is None:
            self._incremental = IncrementalDetector(self.table, self._detection_rules)
        self._incremental.set_cell(row, attribute, value)
        self.violations = self._incremental.report()
        self.state = SessionState.EDITING
        return self.violations

    def apply_repair(self, suggestion: RepairSuggestion) -> ViolationReport:
        """Apply one repair suggestion through the edit loop."""
        return self.edit_cell(suggestion.row, suggestion.attribute, suggestion.suggested_value)

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        """Release the dataset's backing shard store.

        Spill directories and object roots are freed here instead of at
        interpreter exit; in-memory datasets make this a no-op.  The
        session object stays usable — loading another table reopens it.
        Idempotent, and also invoked when the session is used as a
        context manager.
        """
        if self._worker_pool is not None:
            self._worker_pool.close()
            self._worker_pool = None
        if self._source is not None:
            self._source.close()
            self._source = None
        self.table = None
        self._incremental = None
        self._maintainer = None

    def __enter__(self) -> "AnmatSession":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- summary ----------------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """A dictionary summarizing the session (used by the CLI)."""
        return {
            "dataset": self.dataset_name,
            "state": self.state.value,
            "n_rows": self.table.n_rows if self.table is not None else 0,
            "n_pfds": len(self.discovered_pfds()),
            "n_confirmed": len(self.confirmed_names),
            "n_violations": len(self.violations) if self.violations is not None else 0,
            "min_coverage": self.config.min_coverage,
            "allowed_violation_ratio": self.config.allowed_violation_ratio,
        }

    # -- helpers -----------------------------------------------------------------------

    def _require_table(self) -> None:
        if self.table is None:
            raise ProjectError(
                f"session {self.dataset_name!r} has no table; call load_table() first"
            )

    def _pool_for(self, plan: ExecutionPlan) -> Optional[WorkerPool]:
        """The persistent worker pool serving this plan, or ``None`` for
        plans without workers.  Created lazily on the first fanning-out
        plan, reused until :meth:`close`; a changed ``n_workers``
        rebuilds it at the new width."""
        if plan.n_workers <= 1:
            return None
        if (
            self._worker_pool is not None
            and self._worker_pool.n_workers != plan.n_workers
        ):
            self._worker_pool.close()
            self._worker_pool = None
        if self._worker_pool is None:
            self._worker_pool = WorkerPool(plan.n_workers)
        return self._worker_pool

    def _save_results(self) -> None:
        if self.project is None or self.violations is None:
            return
        self.project.save_results(
            self.dataset_name,
            {
                "dataset": self.dataset_name,
                "n_rows": self.table.n_rows,
                "n_violations": len(self.violations),
                "suspect_rows": self.violations.suspect_rows(),
                "strategy": self.violations.strategy,
            },
        )
