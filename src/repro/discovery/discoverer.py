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
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dataset.profiling import TableProfile, cached_profile_table
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
from repro.kernels.runtime import kernels_enabled
from repro.kernels.tokenize import batch_tokenize, tokenization_from_encoding
from repro.perf import TABLE_ARTIFACTS
from repro.perf.timers import StageTimers, stage_or_null
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
    """Discovers PFDs directly from (dirty) data.

    The discoverer itself always mines serially; ``config.n_workers`` is
    interpreted by the execution engine's planner, which routes runs
    with workers to the sharded backend and its per-shard fan-out.
    Callers who want parallelism should go through :mod:`repro.engine`
    (or the session/CLI, which already do).
    """

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
            profile = cached_profile_table(table)
        if candidates is None:
            with self.timers.stage("candidates"):
                candidates = candidate_dependencies(table, self.config, profile)
        candidates = list(candidates)
        with self.timers.stage("mine"):
            reports = self._mine_serial(table, candidates)
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
        discoverer (which mines the same reports from merged per-shard
        statistics) so both produce identically named, identically
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

    # -- per-candidate mining ---------------------------------------------------

    def _mine_serial(
        self, table: Table, candidates: Sequence[CandidateDependency]
    ) -> List[DependencyReport]:
        """Mine candidates in order, tokenizing each LHS column exactly once.

        The single-pass columnar build: candidates are grouped by their
        (LHS column, token mode) pair and every group shares one
        :class:`ColumnTokenization`, so a table with many RHS columns no
        longer re-tokenizes the LHS per candidate.
        """
        if kernels_enabled(self.config.use_kernels):
            return self._mine_serial_kernel(table, candidates)
        tokenizations: Dict[Tuple[str, str], ColumnTokenization] = {}
        reports: List[DependencyReport] = []
        for candidate in candidates:
            tokenization = None
            if self.config.discover_constant:
                key = (candidate.lhs, candidate.lhs_mode)
                tokenization = tokenizations.get(key)
                if tokenization is None:
                    with self.timers.stage("tokenize"):
                        tokenization = tokenizations[key] = ColumnTokenization.extract(
                            table.column_ref(candidate.lhs),
                            candidate.lhs_mode,
                            self.config.ngram_size,
                        )
            reports.append(
                _mine_candidate_values(
                    candidate,
                    table.column_ref(candidate.lhs),
                    table.column_ref(candidate.rhs),
                    self.config,
                    self.constant_miner,
                    self.variable_miner,
                    tokenization=tokenization,
                    timers=self.timers,
                )
            )
        return reports

    def _mine_serial_kernel(
        self, table: Table, candidates: Sequence[CandidateDependency]
    ) -> List[DependencyReport]:
        """The columnar mining loop: encode each column once, tokenize
        each (LHS, mode) pair once over *distinct* values, then run the
        :mod:`repro.kernels` loop body per candidate.

        Candidates whose miners were customized beyond what the kernels
        reproduce fall back to the scalar loop body — reusing the
        distinct-level tokenization — so results never depend on which
        path ran.
        """
        encodings: Dict[str, ColumnEncoding] = {}
        triples: Dict[Tuple[str, str], list] = {}
        reports: List[DependencyReport] = []

        def encoding_for(name: str) -> ColumnEncoding:
            encoding = encodings.get(name)
            if encoding is None:
                encoding = encodings[name] = TABLE_ARTIFACTS.get(
                    table,
                    ("column_encoding", name),
                    lambda: encode_column(table.column_ref(name)),
                )
            return encoding

        for candidate in candidates:
            with self.timers.stage("tokenize"):
                lhs_encoding = encoding_for(candidate.lhs)
                rhs_encoding = encoding_for(candidate.rhs)
                candidate_triples = None
                if self.config.discover_constant:
                    key = (candidate.lhs, candidate.lhs_mode)
                    candidate_triples = triples.get(key)
                    if candidate_triples is None:
                        candidate_triples = triples[key] = TABLE_ARTIFACTS.get(
                            table,
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
                self.constant_miner,
                self.variable_miner,
                timers=self.timers,
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
                    table.column_ref(candidate.lhs),
                    table.column_ref(candidate.rhs),
                    self.config,
                    self.constant_miner,
                    self.variable_miner,
                    tokenization=tokenization,
                    timers=self.timers,
                )
            reports.append(report)
        return reports

    # -- per-candidate re-mining ------------------------------------------------

    def remine_candidate(
        self,
        candidate: CandidateDependency,
        lhs_values: Sequence[str],
        rhs_values: Sequence[str],
        tokenization: Optional[ColumnTokenization] = None,
    ) -> DependencyReport:
        """Mine a single candidate over materialized columns.

        The per-candidate entry point of the rule maintainer
        (:mod:`repro.discovery.maintenance`): a candidate's report is a
        pure function of its two column value sequences, so re-running
        just the candidates whose columns changed — through the very
        loop body the batch paths use — reproduces a full re-discovery's
        reports exactly.
        """
        return _mine_candidate_values(
            candidate,
            lhs_values,
            rhs_values,
            self.config,
            self.constant_miner,
            self.variable_miner,
            tokenization=tokenization,
            timers=self.timers,
        )

    def remine_candidate_encoded(
        self,
        candidate: CandidateDependency,
        lhs_encoding: ColumnEncoding,
        rhs_encoding: ColumnEncoding,
        triples_by_code=None,
    ) -> Optional[DependencyReport]:
        """Mine a single candidate over encoded columns (kernel path).

        Returns ``None`` when the miners were customized beyond what the
        kernels reproduce — the caller then falls back to
        :meth:`remine_candidate`, the same fallback rule the batch kernel
        paths apply.
        """
        return _mine_candidate_encoded(
            candidate,
            lhs_encoding,
            rhs_encoding,
            triples_by_code,
            self.config,
            self.constant_miner,
            self.variable_miner,
            timers=self.timers,
        )

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


def _mine_candidate_values(
    candidate: CandidateDependency,
    lhs_values: Sequence[str],
    rhs_values: Sequence[str],
    config: DiscoveryConfig,
    constant_miner: ConstantPfdMiner,
    variable_miner: VariablePfdMiner,
    tokenization: Optional[ColumnTokenization] = None,
    timers: Optional[StageTimers] = None,
) -> DependencyReport:
    """The Figure 2 loop body for one ``A → B`` over materialized columns.

    Module-level so the monolithic, sharded and maintenance paths share
    one implementation.
    """
    started = time.perf_counter()
    report = DependencyReport(candidate=candidate)
    if config.discover_constant:
        report.constant_candidates = constant_miner.mine(
            lhs_values,
            rhs_values,
            candidate.lhs_mode,
            tokenization=tokenization,
            timers=timers,
        )
        report.coverage = constant_miner.coverage(
            report.constant_candidates, lhs_values
        )
    if config.discover_variable:
        with stage_or_null(timers, "mine_variable"):
            report.variable_candidates = variable_miner.mine(
                lhs_values, rhs_values, candidate.lhs_mode
            )
    constant_ok = (
        bool(report.constant_candidates)
        and report.coverage >= config.min_coverage
    )
    variable_ok = bool(report.variable_candidates)
    if not constant_ok:
        # below-threshold constant tableaux are dropped (Figure 2 line 13)
        report.constant_candidates = []
    report.accepted = constant_ok or variable_ok
    report.elapsed_seconds = time.perf_counter() - started
    return report


def _mine_candidate_encoded(
    candidate: CandidateDependency,
    lhs_encoding: ColumnEncoding,
    rhs_encoding: ColumnEncoding,
    triples_by_code,
    config: DiscoveryConfig,
    constant_miner: ConstantPfdMiner,
    variable_miner: VariablePfdMiner,
    timers: Optional[StageTimers] = None,
) -> Optional[DependencyReport]:
    """The Figure 2 loop body over *encoded* columns, or ``None`` when
    the miners were customized beyond what the kernels reproduce (the
    caller then runs :func:`_mine_candidate_values`)."""
    # local import: repro.kernels.mine imports the miner modules, which
    # this package's __init__ loads before the discoverer — importing it
    # at module top would be circular when kernels are imported first
    from repro.kernels.mine import (
        coverage_kernel,
        mine_constant_kernel,
        mine_variable_kernel,
    )

    if config.discover_constant and type(constant_miner.decision) is not MajorityDecision:
        return None
    if config.discover_variable and type(variable_miner) is not VariablePfdMiner:
        return None
    started = time.perf_counter()
    report = DependencyReport(candidate=candidate)
    if config.discover_constant:
        selected = mine_constant_kernel(
            lhs_encoding,
            rhs_encoding,
            triples_by_code,
            config,
            constant_miner,
            timers=timers,
        )
        if selected is None:
            return None
        report.constant_candidates = selected
        report.coverage = coverage_kernel(selected, lhs_encoding)
    if config.discover_variable:
        variable = mine_variable_kernel(
            lhs_encoding,
            rhs_encoding,
            candidate.lhs_mode,
            config,
            variable_miner,
            timers=timers,
        )
        if variable is None:
            return None
        report.variable_candidates = variable
    constant_ok = (
        bool(report.constant_candidates)
        and report.coverage >= config.min_coverage
    )
    variable_ok = bool(report.variable_candidates)
    if not constant_ok:
        report.constant_candidates = []
    report.accepted = constant_ok or variable_ok
    report.elapsed_seconds = time.perf_counter() - started
    return report
