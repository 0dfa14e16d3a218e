"""The ANMAT workflow as a single session object.

The demo walks the user through: select/create a project → upload a
dataset → set minimum coverage and allowed violations → the system
profiles the data and extracts PFDs → the user inspects tableaux and
confirms the dependencies that are valid → the confirmed rules are run
over the data and violations are reported.  :class:`AnmatSession`
exposes each of those steps as a method and enforces their order.

Detection builds the session's one detector, an
:class:`~repro.detection.incremental.IncrementalDetector`, whose report
is the detection report.  The session then supports an interactive
**edit loop**: :meth:`edit_cell` / :meth:`apply_repair` mutate the
table and that detector updates the violation report *in place*
instead of re-scanning the whole table — the session moves to
``EDITING``.  A :meth:`recheck` hands that detector over to the
surviving rules and a :meth:`run_detection` (a fresh detector) returns
it to ``DETECTED``.

Every dataset runs on one engine.  :meth:`AnmatSession.load_table` cuts
a :class:`Table` into shards once — ``config.shard_rows`` rows each (the
engine default when unset), on the store ``config.store`` names — just
as :meth:`AnmatSession.upload_csv` does with a CSV upload, and the cut is
never redone.  From then on the dataset is a
:class:`~repro.sharding.overlay.ShardOverlay` over its shards: profiling,
:class:`~repro.discovery.discoverer.PfdDiscoverer`, the detector's
seed and the :class:`~repro.discovery.maintenance.RuleMaintainer` of
:meth:`recheck` all read the overlay's sealed view, and the edit loop
writes to the overlay.  Discovery and a maintained re-check run one
pipeline body; a re-check re-discovers in full only when the session
holds no seeded maintainer.  Results do not depend on the shard size.
Each run records an :class:`~repro.engine.plan.ExecutionPlan` for
``--explain-plan``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro.anmat.project import Project
from repro.dataset.csvio import iter_csv_chunks
from repro.dataset.profiling import TableProfile
from repro.dataset.table import Table
from repro.detection.incremental import IncrementalDetector
from repro.detection.repair import RepairSuggestion, suggest_repairs
from repro.detection.violation import ViolationReport
from repro.discovery.config import DiscoveryConfig
from repro.discovery.discoverer import DiscoveryResult, PfdDiscoverer
from repro.discovery.maintenance import RuleMaintainer
from repro.engine import DEFAULT_SHARD_ROWS, ExecutionPlan, plan_run
from repro.errors import ProjectError
from repro.pfd.pfd import PFD
from repro.sharding.overlay import ShardOverlay
from repro.sharding.sharded_table import ShardedTable
from repro.sharding.store import ShardStore, make_shard_store


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
    #: the row-addressable logical dataset: an overlay over the shards
    #: the dataset was cut into at load (the :class:`Table` read and
    #: mutation interface; the shard bytes stay on their store)
    table: Optional[ShardOverlay] = None
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
    #: the detector of the last detection (its ``pfds`` are the rules
    #: detected); its report is ``violations``
    _incremental: Optional[IncrementalDetector] = field(default=None, repr=False)
    #: maintains the rule set across :meth:`recheck` calls — seeded by
    #: every discovery run, dropped with the dataset
    _maintainer: Optional[RuleMaintainer] = field(default=None, repr=False)

    # -- step 1: load ------------------------------------------------------------

    def load_table(self, table: Union["Table", "ShardedTable"]) -> "AnmatSession":
        """Attach ("upload") the dataset to the session.

        A :class:`Table` is cut into shards of ``config.shard_rows`` rows
        (the engine default when unset) on the store ``config.store``
        names, once; the session works on those shards from then on, so
        later changes to the caller's table do not reach it — edit
        through ``session.table`` or :meth:`edit_cell`.  A
        :class:`ShardedTable` (e.g. from the chunked CSV reader, or built
        over a spill/object :class:`ShardStore`) is adopted as it is cut.
        Either way the dataset is **never materialized**: the session's
        ``table`` is a row-addressable
        :class:`~repro.sharding.overlay.ShardOverlay` over the shard
        store, which profiling views, repairs, and the edit loop all read
        and mutate through, while the shard bytes stay wherever the store
        keeps them.

        Any edit loop over a previously loaded table is dropped — its
        detector would otherwise keep mutating the *old* table — and the
        previous dataset's shard store is closed (spill files and object
        roots are released as soon as they are unreachable, not at
        interpreter exit).
        """
        if not isinstance(table, ShardedTable):
            table = self._seal(
                lambda store: ShardedTable.from_table(
                    table, self.config.shard_rows or DEFAULT_SHARD_ROWS, store=store
                )
            )
        if self.table is not None:
            self.table.close()
        self.table = ShardOverlay(table)
        self.violations = None
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
        return self.load_table(
            self._seal(
                lambda store: ShardedTable.from_chunks(
                    iter_csv_chunks(path, shard_rows, **csv_kwargs), store=store
                ),
                store,
            )
        )

    def _seal(
        self,
        fill: Callable[[ShardStore], ShardedTable],
        store: Optional[ShardStore] = None,
    ) -> ShardedTable:
        """Cut an upload into ``store`` (default: the one ``config.store``
        names) through ``fill``, closing the store if the cut fails."""
        if store is None:
            store = make_shard_store(
                self.config.store,
                self.config.spill_dir,
                object_url=self.config.object_url,
            )
        try:
            return fill(store)
        except BaseException:
            # the half-filled store is unusable; release it now rather
            # than leaking its root until interpreter exit
            store.close()
            raise

    def set_parameters(
        self,
        min_coverage: Optional[float] = None,
        allowed_violation_ratio: Optional[float] = None,
    ) -> "AnmatSession":
        """Set the two user-facing parameters of Section 4.

        A change drops the rule maintainer: its baseline was mined under
        the old parameters, so the next :meth:`recheck` re-discovers in
        full."""
        overrides = {}
        if min_coverage is not None:
            overrides["min_coverage"] = min_coverage
        if allowed_violation_ratio is not None:
            overrides["allowed_violation_ratio"] = allowed_violation_ratio
        config = self.config.with_overrides(**overrides)
        if config != self.config:
            self.config = config
            self._maintainer = None
        return self

    # -- step 2: profile ------------------------------------------------------------

    def run_profiling(self) -> TableProfile:
        """Profile every column (the Figure 3 view).

        Every column is encoded in one shard-major pass — one resident
        shard at a time — and profiled from its encoding, with output
        identical to profiling the materialized table.  The profile and
        the encodings are kept on the sealed view, where discovery
        finds them again without reading a shard."""
        self._require_table()
        self.profile = self.table.as_sharded().profile()
        self.state = SessionState.PROFILED
        return self.profile

    # -- step 3: discover -------------------------------------------------------------

    def plan_discovery(self) -> ExecutionPlan:
        """The :class:`ExecutionPlan` a :meth:`run_discovery` would run."""
        return self._plan("discovery")

    def run_discovery(self) -> DiscoveryResult:
        """Extract PFDs from the dataset (the Figure 4 view).

        The sharded discoverer mines the shards' table-wide column
        encodings; the rules are identical to a monolithic
        :class:`~repro.discovery.discoverer.PfdDiscoverer` run.  The run
        seeds the rule maintainer that :meth:`recheck` uses.
        """
        plan = self.plan_discovery()
        if self.profile is None:
            self.run_profiling()
        view = self.table.as_sharded()
        self.discovery = self._discover(view)
        self.last_plan = plan
        self._maintainer = self._seeded_maintainer(view, self.discovery)
        # By default every discovered dependency is pending confirmation,
        # and any report/edit loop over the previous rule set is dropped.
        self.confirmed_names = []
        self.violations = None
        self._incremental = None
        self.state = SessionState.DISCOVERED
        if self.project is not None:
            self.project.save_pfds(self.dataset_name, self.discovery.pfds)
        return self.discovery

    def plan_recheck(self) -> ExecutionPlan:
        """The :class:`ExecutionPlan` a :meth:`recheck` would run.

        A re-check plan records ``plan.rule_maintenance``:
        ``incremental`` when a discovery baseline is seeded, ``full``
        otherwise.
        """
        return self._plan(
            "discovery",
            recheck=True,
            maintainable=self._maintainer is not None and self._maintainer.seeded,
        )

    def recheck(self) -> DiscoveryResult:
        """Bring the rule set up to date after an edit batch.

        The edit loop keeps the *violations* current per edit
        (:meth:`edit_cell`); this is its counterpart for the *rules*.
        The planner resolves how (``plan.rule_maintenance``): with a
        seeded baseline the
        :class:`~repro.discovery.maintenance.RuleMaintainer` patches the
        column encodings and each candidate's mining state with the
        edited cells, reading no shard (the plan's decisions record how
        many candidates it patched and how many entries it
        re-verified); without one — after a parameter change, or after
        a failed re-check dropped it — the re-check re-discovers in full
        and seeds a new maintainer.
        Either way the resulting rule set is identical to discovering
        from scratch.

        Confirmations survive by rule content: dependencies whose
        tableau is unchanged stay confirmed (whatever their new number),
        and when a detection run existed the edit loop's detector is
        handed over to the surviving confirmations
        (:meth:`IncrementalDetector.retained`): it keeps the state of
        every rule it holds under the same name, drops the rules that
        did not survive, and seeds only the others — a rule confirmed
        after the detection, a survivor whose name shifted — from the
        re-checked view.  The next edit batch maintains it (session back
        to ``DETECTED``).  If no confirmation survives, violations are
        cleared and the session returns to ``DISCOVERED`` awaiting fresh
        confirmations.

        Atomic: the new rules, detector and violations are computed
        first and committed together, and the hand-over leaves the old
        detector as it was.  If any step raises, the session keeps its
        pre-recheck rules, confirmations, violations, state and
        detector; only the rule maintainer is dropped (it may have
        advanced its baseline), so the next re-check re-discovers in
        full.
        """
        self._require_table()
        if self.discovery is None:
            raise ProjectError(
                "no discovery run to re-check; call run_discovery() first"
            )
        plan = self.plan_recheck()
        confirmed_keys = [pfd.content_key() for pfd in self.confirmed_pfds()]
        had_detection = self._incremental is not None
        maintainer = self._maintainer
        try:
            view = self.table.as_sharded()
            if plan.rule_maintenance == "incremental":
                result = maintainer.maintain(view, relation=self.dataset_name)
                plan.decisions.append(maintainer.last_work)
            else:
                result = self._discover(view)
                maintainer = self._seeded_maintainer(view, result)
            # re-confirm by content: a rule that survived the re-check stays
            # confirmed under its new name
            survivors = {pfd.content_key(): pfd.name for pfd in result.pfds}
            confirmed = [survivors[key] for key in confirmed_keys if key in survivors]
            rules = (
                [pfd for pfd in result.pfds if pfd.name in confirmed]
                if had_detection
                else []
            )
            detector = self._incremental.retained(rules) if rules else None
            violations = detector.report() if detector is not None else None
        except BaseException:
            self._maintainer = None
            raise
        self._maintainer = maintainer
        self.discovery = result
        self.confirmed_names = confirmed
        self.violations = violations
        self._incremental = detector
        self.state = SessionState.DETECTED if rules else SessionState.DISCOVERED
        self.last_plan = plan
        if self.project is not None:
            self.project.save_pfds(self.dataset_name, result.pfds, confirmed)
            self._save_results()
        return result

    def _discover(self, view: ShardedTable) -> DiscoveryResult:
        return PfdDiscoverer(self.config).discover_with_report(
            view, relation=self.dataset_name
        )

    def _seeded_maintainer(
        self, view: ShardedTable, result: DiscoveryResult
    ) -> RuleMaintainer:
        """A rule maintainer whose baseline is ``result`` over ``view``."""
        maintainer = RuleMaintainer(self.config)
        maintainer.seed(view, result)
        return maintainer

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
        return self._plan("detection")

    def run_detection(self, pfds: Optional[Sequence[PFD]] = None) -> ViolationReport:
        """Run the confirmed PFDs (or ``pfds``) over the data (the
        Figure 5 view).

        Seeds a fresh :class:`IncrementalDetector` — the one the edit
        loop maintains — from the pair groups of the column encodings
        discovery kept; its report (evaluator order, rows ascending) is
        detection's one route, the one
        :class:`~repro.detection.detector.ErrorDetector` takes too.
        """
        self._require_table()
        rules = list(pfds) if pfds is not None else self.confirmed_pfds()
        if not rules:
            raise ProjectError(
                "no confirmed PFDs to run; call run_discovery() and confirm() first"
            )
        plan = self.plan_detection()
        self._incremental = IncrementalDetector(self.table, rules)
        self.violations = self._incremental.report()
        self.last_plan = plan
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

        The detector of the last :meth:`run_detection` or :meth:`recheck`
        re-checks one row per constant rule and moves one row between
        RHS groups per variable rule instead of re-scanning.  The
        session moves to ``EDITING``; :meth:`recheck` hands the
        detector over to the re-checked rules, and :meth:`run_detection`
        seeds a fresh one; either returns it to ``DETECTED``.

        Project results are *not* rewritten per edit (that disk write
        would dwarf the incremental update); they are persisted by the
        closing :meth:`run_detection` re-check.
        """
        self._require_table()
        if self._incremental is None:
            raise ProjectError(
                "no detection run to maintain; call run_detection() before editing"
            )
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
        if self.table is not None:
            self.table.close()
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

    def _plan(self, kind: str, **kwargs) -> ExecutionPlan:
        self._require_table()
        return plan_run(
            kind,
            self.table.n_rows,
            self.config,
            shard_rows=max(self.table.base.shard_row_counts()),
            **kwargs,
        )

    def _require_table(self) -> None:
        if self.table is None:
            raise ProjectError(
                f"session {self.dataset_name!r} has no table; call load_table() first"
            )

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
            },
        )
