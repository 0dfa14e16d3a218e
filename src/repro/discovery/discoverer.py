"""The Discover-PFDs driver (Figure 2 of the paper).

:class:`PfdDiscoverer` glues together candidate generation, the constant
miner, and the variable miner, applies the minimum-coverage threshold γ,
and packages everything into :class:`~repro.pfd.pfd.PFD` objects plus a
:class:`DiscoveryResult` carrying the per-dependency statistics the
ANMAT GUI displays.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.dataset.profiling import TableProfile, profile_table
from repro.dataset.table import Table
from repro.discovery.candidates import CandidateDependency, candidate_dependencies
from repro.discovery.config import DiscoveryConfig
from repro.discovery.constant_miner import ConstantPfdMiner
from repro.discovery.decision import (
    DecisionFunction,
    MajorityDecision,
    PatternTupleCandidate,
)
from repro.discovery.inverted_index import ColumnTokenization
from repro.discovery.variable_miner import VariableCandidate, VariablePfdMiner
from repro.kernels.encoder import ColumnEncoding, encode_column
from repro.kernels.tokenize import batch_tokenize, tokenization_from_encoding
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

    def __init__(
        self,
        config: Optional[DiscoveryConfig] = None,
        decision: Optional[DecisionFunction] = None,
    ):
        self.config = config or DiscoveryConfig()
        self.constant_miner = ConstantPfdMiner(self.config, decision)
        self.variable_miner = VariablePfdMiner(self.config)
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
                lambda _key, build: build(),
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
            if self.config.discover_constant and report.constant_candidates:
                counter += 1
                pfds.append(
                    self._build_constant_pfd(candidate, report, counter, relation)
                )
            if self.config.discover_variable:
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
        cached: Callable[[Hashable, Callable[[], object]], object],
    ) -> List[DependencyReport]:
        """Mine candidates in order over encoded columns.

        The one mining loop of the monolithic, sharded and maintenance
        paths; the caller supplies the inputs.
        ``encode(names)`` returns the named columns' encodings, and
        ``cached(key, build)`` holds each (LHS, mode) pair's
        distinct-level token triples across calls (``merged_artifact``
        for a sharded table; a table rebuilds them per call).  Within a
        call every LHS is tokenized once per distinct value however
        many candidates share it.

        The kernel loop body runs every candidate whose miners it
        reproduces.  Customized decision functions or miners run the
        scalar body instead, fed from the same encodings, so results
        never depend on which body ran.
        """
        with self.timers.stage("tokenize"):
            encodings = encode(
                [name for candidate in candidates for name in (candidate.lhs, candidate.rhs)]
            )
        ngram_size = self.config.ngram_size
        triples: Dict[Tuple[str, str], list] = {}
        reports: List[DependencyReport] = []
        for candidate in candidates:
            lhs = encodings[candidate.lhs]
            rhs = encodings[candidate.rhs]
            mode = candidate.lhs_mode
            candidate_triples = None
            if self.config.discover_constant:
                candidate_triples = triples.get((candidate.lhs, mode))
                if candidate_triples is None:
                    with self.timers.stage("tokenize"):
                        candidate_triples = triples[(candidate.lhs, mode)] = cached(
                            ("kernel_triples", candidate.lhs, mode, ngram_size),
                            lambda: batch_tokenize(lhs, mode, ngram_size),
                        )
            report = self._mine_encoded(candidate, lhs, rhs, candidate_triples)
            if report is None:
                tokenization = None
                if self.config.discover_constant:
                    tokenization = tokenization_from_encoding(
                        lhs, mode, ngram_size, candidate_triples
                    )
                report = self._mine_values(
                    candidate, _decoded(lhs), _decoded(rhs), tokenization
                )
            reports.append(report)
        return reports

    def _mine_values(
        self,
        candidate: CandidateDependency,
        lhs_values: Sequence[str],
        rhs_values: Sequence[str],
        tokenization: Optional[ColumnTokenization],
    ) -> DependencyReport:
        """The scalar Figure 2 loop body for one ``A → B`` over
        materialized columns: the route of customized decision functions
        and miners."""
        started = time.perf_counter()
        report = DependencyReport(candidate=candidate)
        if self.config.discover_constant:
            report.constant_candidates = self.constant_miner.mine(
                lhs_values,
                rhs_values,
                candidate.lhs_mode,
                tokenization=tokenization,
                timers=self.timers,
            )
            report.coverage = self.constant_miner.coverage(
                report.constant_candidates, lhs_values
            )
        if self.config.discover_variable:
            with self.timers.stage("mine_variable"):
                report.variable_candidates = self.variable_miner.mine(
                    lhs_values, rhs_values, candidate.lhs_mode
                )
        return self._decide(report, started)

    def _mine_encoded(
        self,
        candidate: CandidateDependency,
        lhs: ColumnEncoding,
        rhs: ColumnEncoding,
        triples_by_code,
    ) -> Optional[DependencyReport]:
        """The kernel Figure 2 loop body, or ``None`` when the miners
        were customized beyond what the kernels reproduce (the caller
        then runs :meth:`_mine_values`)."""
        # local import: repro.kernels.mine imports the miner modules, which
        # this package's __init__ loads before the discoverer — importing it
        # at module top would be circular when kernels are imported first
        from repro.kernels.mine import (
            coverage_kernel,
            mine_constant_kernel,
            mine_variable_kernel,
            pair_counts,
        )

        custom_decision = type(self.constant_miner.decision) is not MajorityDecision
        custom_variable = type(self.variable_miner) is not VariablePfdMiner
        if (self.config.discover_constant and custom_decision) or (
            self.config.discover_variable and custom_variable
        ):
            return None
        started = time.perf_counter()
        report = DependencyReport(candidate=candidate)
        with self.timers.stage("pair_counts"):
            pairs = pair_counts(lhs, rhs)
        if self.config.discover_constant:
            report.constant_candidates = mine_constant_kernel(
                lhs, rhs, pairs, triples_by_code, self.config, self.constant_miner,
                timers=self.timers,
            )
            report.coverage = coverage_kernel(report.constant_candidates, lhs)
        if self.config.discover_variable:
            report.variable_candidates = mine_variable_kernel(
                lhs, rhs, pairs, candidate.lhs_mode, self.config, self.variable_miner,
                timers=self.timers,
            )
        return self._decide(report, started)

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


def _decoded(encoding: ColumnEncoding) -> List[str]:
    """An encoded column's values in row order."""
    return list(map(encoding.distinct.__getitem__, encoding.codes.tolist()))

