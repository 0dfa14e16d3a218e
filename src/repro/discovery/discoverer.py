"""The Discover-PFDs driver (Figure 2 of the paper).

:class:`PfdDiscoverer` runs the one discovery pipeline: profile,
candidate generation, the mining kernels (:mod:`repro.kernels.mine`)
with the minimum-coverage threshold γ, and assembly into
:class:`~repro.pfd.pfd.PFD` objects plus a :class:`DiscoveryResult`
carrying the per-dependency statistics the ANMAT GUI displays.  It
mines a :class:`~repro.sharding.sharded_table.ShardedTable`'s table-wide
column encodings; a plain :class:`~repro.dataset.table.Table` is adopted,
without a copy, as the one in-memory shard of a sharded table, so each
column is encoded once, for profiling and mining alike.  Factorizing
shard by shard assigns codes in first-appearance order across the whole
column, so the rule set does not depend on the cut.  The
:class:`~repro.discovery.maintenance.RuleMaintainer` runs the same
pipeline body after it patches the encodings, the profile and the
mining state of a re-check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.dataset.profiling import TableProfile
from repro.dataset.table import Table
from repro.discovery.candidates import CandidateDependency, candidate_dependencies
from repro.discovery.config import DiscoveryConfig
from repro.discovery.decision import PatternTupleCandidate
from repro.discovery.variable_miner import VariableCandidate
from repro.perf.timers import StageTimers
from repro.pfd.pfd import PFD
from repro.pfd.tableau import WILDCARD
from repro.sharding.sharded_table import ShardedTable


@dataclass
class DependencyReport:
    """Discovery statistics for one candidate dependency."""

    candidate: CandidateDependency
    constant_candidates: List[PatternTupleCandidate] = field(default_factory=list)
    variable_candidates: List[VariableCandidate] = field(default_factory=list)
    coverage: float = 0.0
    accepted: bool = False
    elapsed_seconds: float = 0.0

    @property
    def lhs(self) -> str:
        return self.candidate.lhs

    @property
    def rhs(self) -> str:
        return self.candidate.rhs


@dataclass
class DiscoveryResult:
    """Everything produced by one discovery run."""

    pfds: List[PFD]
    reports: List[DependencyReport]
    profile: TableProfile
    config: DiscoveryConfig
    elapsed_seconds: float
    #: the :class:`~repro.kernels.mine.MiningState` the run mined from,
    #: until a :class:`~repro.discovery.maintenance.RuleMaintainer`
    #: seeded with the run takes it over (and patches it in place)
    mining_state: Optional[object] = field(default=None, repr=False, compare=False)

    def constant_pfds(self) -> List[PFD]:
        return [p for p in self.pfds if p.is_constant]

    def variable_pfds(self) -> List[PFD]:
        return [p for p in self.pfds if p.is_variable]

    def pfds_for(self, lhs: str, rhs: str) -> List[PFD]:
        """All discovered PFDs over a specific attribute pair."""
        return [
            p
            for p in self.pfds
            if p.lhs_attribute == lhs and p.rhs_attribute == rhs
        ]

    def summary(self) -> Dict[str, int]:
        return {
            "candidates_examined": len(self.reports),
            "dependencies_accepted": sum(1 for r in self.reports if r.accepted),
            "pfds": len(self.pfds),
            "constant_pfds": len(self.constant_pfds()),
            "variable_pfds": len(self.variable_pfds()),
        }


class PfdDiscoverer:
    """Discovers PFDs directly from (dirty) data."""

    def __init__(self, config: Optional[DiscoveryConfig] = None):
        self.config = config or DiscoveryConfig()
        #: wall-clock accumulated per pipeline stage across runs
        self.timers = StageTimers()

    def discover(
        self, table: Union[Table, ShardedTable], relation: Optional[str] = None
    ) -> List[PFD]:
        """Discover PFDs and return just the PFD list."""
        return self.discover_with_report(table, relation=relation).pfds

    def discover_with_report(
        self, table: Union[Table, ShardedTable], relation: Optional[str] = None
    ) -> DiscoveryResult:
        """Run the full pipeline and return PFDs plus statistics.

        A sharded table keeps what the run derives — its profile and
        every column's codes — for detection and re-checks; a session's
        profiling step already built both, so discovery reads no shard.
        """
        started = time.perf_counter()
        view = table if isinstance(table, ShardedTable) else ShardedTable([table])
        with self.timers.stage("profile"):
            profile = view.profile()
        return self._pipeline(view, profile, new_mining_state(), relation, started)

    def _pipeline(
        self,
        view: ShardedTable,
        profile: TableProfile,
        state,
        relation: Optional[str],
        started: float,
    ) -> DiscoveryResult:
        """Candidates, mining from ``state``, assembly: the body both full
        discovery and rule maintenance run over a profiled view."""
        with self.timers.stage("candidates"):
            candidates = candidate_dependencies(profile, self.config)
        with self.timers.stage("mine"):
            reports = self.mine_candidates(candidates, view, state)
        with self.timers.stage("assemble"):
            pfds = self.assemble_pfds(candidates, reports, relation)
        drop_mining_artifacts(view)
        return DiscoveryResult(
            pfds=pfds,
            reports=reports,
            profile=profile,
            config=self.config,
            elapsed_seconds=time.perf_counter() - started,
            mining_state=state,
        )

    def assemble_pfds(
        self,
        candidates: Sequence[CandidateDependency],
        reports: Sequence[DependencyReport],
        relation: Optional[str] = None,
    ) -> List[PFD]:
        """Package accepted per-candidate reports into named PFD objects."""
        pfds: List[PFD] = []
        counter = 0
        for candidate, report in zip(candidates, reports):
            if not report.accepted:
                continue
            if report.constant_candidates:
                counter += 1
                pfds.append(
                    self._build_constant_pfd(candidate, report, counter, relation)
                )
            for variable in report.variable_candidates:
                counter += 1
                pfds.append(
                    self._build_variable_pfd(candidate, variable, counter, relation)
                )
        return pfds

    # -- the Figure 2 loop ------------------------------------------------------

    def mine_candidates(
        self,
        candidates: Sequence[CandidateDependency],
        view: ShardedTable,
        state,
    ) -> List[DependencyReport]:
        """Mine candidates in order over ``view``'s column encodings.

        ``state`` is the :class:`~repro.kernels.mine.MiningState` mined
        from — a fresh one, or one the rule maintainer patched to the
        view's encodings — and afterwards holds exactly these
        candidates' state.  Each (LHS, mode) pair is tokenized once per
        distinct value however many candidates share it.
        """
        config = self.config
        timers = self.timers
        encodings = view.column_encodings(
            [name for candidate in candidates for name in (candidate.lhs, candidate.rhs)]
        )
        reports: List[DependencyReport] = []
        for candidate in candidates:
            started = time.perf_counter()
            report = DependencyReport(candidate=candidate)
            constant, report.coverage, variable = state.mine(
                candidate, encodings[candidate.lhs], encodings[candidate.rhs], config, timers
            )
            report.constant_candidates = list(constant)
            report.variable_candidates = list(variable)
            reports.append(self._decide(report, started))
        state.keep_only([(c.lhs, c.rhs, c.lhs_mode) for c in candidates])
        return reports

    def _decide(self, report: DependencyReport, started: float) -> DependencyReport:
        """Apply γ: below-threshold constant tableaux are dropped (Figure 2
        line 13); a candidate is accepted with either family left."""
        constant_ok = (
            bool(report.constant_candidates)
            and report.coverage >= self.config.min_coverage
        )
        if not constant_ok:
            report.constant_candidates = []
        report.accepted = constant_ok or bool(report.variable_candidates)
        report.elapsed_seconds = time.perf_counter() - started
        return report

    # -- PFD construction ----------------------------------------------------------

    @staticmethod
    def _build_constant_pfd(
        candidate: CandidateDependency,
        report: DependencyReport,
        counter: int,
        relation: Optional[str],
    ) -> PFD:
        pfd = PFD.constant(
            candidate.lhs,
            candidate.rhs,
            name=f"psi{counter}",
            relation=relation,
        )
        for row in report.constant_candidates:
            pfd.add_rule(
                {
                    candidate.lhs: row.lhs_pattern,
                    candidate.rhs: row.rhs_constant,
                }
            )
        return pfd

    @staticmethod
    def _build_variable_pfd(
        candidate: CandidateDependency,
        variable: VariableCandidate,
        counter: int,
        relation: Optional[str],
    ) -> PFD:
        pfd = PFD(
            fd=_embedded(candidate),
            name=f"psi{counter}",
            relation=relation,
        )
        pfd.add_rule(
            {
                candidate.lhs: variable.constrained_pattern,
                candidate.rhs: WILDCARD,
            }
        )
        return pfd


def drop_mining_artifacts(view: ShardedTable) -> None:
    """Release the O(n) mining inputs nothing after discovery reads: the
    per-code arrays the miners derived from the column encodings.
    Every column's codes stay: they are the maintained state that
    detection groups rule pairs from, the edit loop seeds from, and a
    re-check patches and profiles from."""
    for encoding in view.encodings.values():
        encoding.release_derived()


def new_mining_state():
    """An empty :class:`~repro.kernels.mine.MiningState`."""
    # local import: repro.kernels.mine imports this package's decision
    # and variable_miner modules, and this package's __init__ loads the
    # discoverer — importing it at module top would be circular when
    # the kernels are imported first
    from repro.kernels.mine import MiningState

    return MiningState()


def _embedded(candidate: CandidateDependency):
    from repro.pfd.fd import EmbeddedFD

    return EmbeddedFD.between(candidate.lhs, candidate.rhs)
