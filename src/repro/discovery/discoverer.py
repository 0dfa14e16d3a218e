"""The Discover-PFDs driver (Figure 2 of the paper).

:class:`PfdDiscoverer` glues together candidate generation and the
mining kernels (:mod:`repro.kernels.mine`), applies the minimum-coverage
threshold γ, and packages everything into :class:`~repro.pfd.pfd.PFD`
objects plus a :class:`DiscoveryResult` carrying the per-dependency
statistics the ANMAT GUI displays.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.dataset.profiling import TableProfile, profile_table
from repro.dataset.table import Table
from repro.discovery.candidates import CandidateDependency, candidate_dependencies
from repro.discovery.config import DiscoveryConfig
from repro.discovery.decision import PatternTupleCandidate
from repro.discovery.variable_miner import VariableCandidate
from repro.kernels.encoder import ColumnEncoding, encode_column
from repro.kernels.tokenize import batch_tokenize
from repro.perf.timers import StageTimers
from repro.pfd.pfd import PFD
from repro.pfd.tableau import WILDCARD


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

    def report_for(self, lhs: str, rhs: str) -> Optional[DependencyReport]:
        for report in self.reports:
            if report.lhs == lhs and report.rhs == rhs:
                return report
        return None

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

    def discover(self, table: Table, relation: Optional[str] = None) -> List[PFD]:
        """Discover PFDs and return just the PFD list."""
        return self.discover_with_report(table, relation=relation).pfds

    def discover_with_report(
        self,
        table: Table,
        relation: Optional[str] = None,
        candidates: Optional[Sequence[CandidateDependency]] = None,
    ) -> DiscoveryResult:
        """Run the full pipeline and return PFDs plus statistics."""
        started = time.perf_counter()
        with self.timers.stage("profile"):
            profile = profile_table(table)
        if candidates is None:
            with self.timers.stage("candidates"):
                candidates = candidate_dependencies(table, self.config, profile)
        candidates = list(candidates)
        with self.timers.stage("mine"):
            reports = self.mine_candidates(
                candidates,
                lambda names: {
                    name: encode_column(table.column_ref(name))
                    for name in dict.fromkeys(names)
                },
            )
        with self.timers.stage("assemble"):
            pfds = self.assemble_pfds(candidates, reports, relation)
        elapsed = time.perf_counter() - started
        return DiscoveryResult(
            pfds=pfds,
            reports=reports,
            profile=profile,
            config=self.config,
            elapsed_seconds=elapsed,
        )

    def assemble_pfds(
        self,
        candidates: Sequence[CandidateDependency],
        reports: Sequence[DependencyReport],
        relation: Optional[str] = None,
    ) -> List[PFD]:
        """Package accepted per-candidate reports into named PFD objects.

        Shared by the monolithic pipeline above and the sharded
        discoverer (which mines the same reports from shard-major column
        encodings) so both produce identically named, identically
        ordered rule sets.
        """
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
        encode: Callable[[Sequence[str]], Dict[str, ColumnEncoding]],
    ) -> List[DependencyReport]:
        """Mine candidates in order over encoded columns.

        The one mining loop of the monolithic, sharded and maintenance
        paths; ``encode(names)`` returns the named columns' encodings.
        Within a call every (LHS, mode) pair is tokenized once per
        distinct value however many candidates share it.
        """
        # local import: repro.kernels.mine imports this package's
        # decision and variable_miner modules, and this package's
        # __init__ loads the discoverer — importing it at module top
        # would be circular when the kernels are imported first
        from repro.kernels.mine import (
            coverage_kernel,
            mine_constant_kernel,
            mine_variable_kernel,
            pair_counts,
        )

        config = self.config
        timers = self.timers
        with timers.stage("tokenize"):
            encodings = encode(
                [name for candidate in candidates for name in (candidate.lhs, candidate.rhs)]
            )
        triples: Dict[Tuple[str, str], list] = {}
        reports: List[DependencyReport] = []
        for candidate in candidates:
            lhs = encodings[candidate.lhs]
            rhs = encodings[candidate.rhs]
            mode = candidate.lhs_mode
            started = time.perf_counter()
            report = DependencyReport(candidate=candidate)
            with timers.stage("pair_counts"):
                pairs = pair_counts(lhs, rhs)
            lhs_triples = triples.get((candidate.lhs, mode))
            if lhs_triples is None:
                with timers.stage("tokenize"):
                    lhs_triples = triples[(candidate.lhs, mode)] = batch_tokenize(
                        lhs, mode
                    )
            report.constant_candidates = mine_constant_kernel(
                lhs, rhs, pairs, lhs_triples, config, timers=timers
            )
            report.coverage = coverage_kernel(report.constant_candidates, lhs)
            report.variable_candidates = mine_variable_kernel(
                lhs, rhs, pairs, mode, config, timers=timers
            )
            reports.append(self._decide(report, started))
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


def _embedded(candidate: CandidateDependency):
    from repro.pfd.fd import EmbeddedFD

    return EmbeddedFD.between(candidate.lhs, candidate.rhs)
