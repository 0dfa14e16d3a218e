"""Integration tests that retrace the paper's narrative end to end.

These tests tie the subsystems together: the running example of the
introduction (Tables 1 and 2, λ1–λ5), the Table 3 scenarios on the
synthetic stand-in datasets, and the headline claim that PFDs catch
errors FDs and CFDs cannot.
"""

import pytest

from repro.baselines.cfd_discovery import discover_constant_cfds
from repro.baselines.fd_detection import detect_cfd_violations, detect_fd_violations
from repro.baselines.fd_discovery import FdDiscoveryConfig, discover_fds
from repro.baselines.pattern_outliers import PatternOutlierDetector
from repro.datagen import build_dataset
from repro.detection.detector import ErrorDetector
from repro.discovery.config import DiscoveryConfig
from repro.discovery.discoverer import PfdDiscoverer
from repro.metrics.evaluation import evaluate_report


class TestIntroductionExample:
    """The D1/D2 four-row tables with the r4/s4 errors."""

    def test_discovered_pfds_on_d2_find_the_zip_rule(self, zip_dataset):
        config = DiscoveryConfig(min_coverage=0.5, allowed_violation_ratio=0.3, min_support=2)
        result = PfdDiscoverer(config).discover_with_report(zip_dataset.table)
        assert result.pfds, "discovery must find a zip -> city dependency on Table 2"
        report = ErrorDetector(zip_dataset.table).detect_all(result.pfds)
        assert (3, "city") in report.suspect_cells()

    def test_discovered_pfds_on_d1_find_the_gender_rule(self, name_dataset):
        config = DiscoveryConfig(min_coverage=0.4, allowed_violation_ratio=0.3, min_support=2)
        result = PfdDiscoverer(config).discover_with_report(name_dataset.table)
        report = ErrorDetector(name_dataset.table).detect_all(result.pfds)
        # With only one clean Susan row the engine cannot know which of
        # r3/r4 is wrong, but the violation must involve r4's gender cell —
        # exactly the four-cell violation the paper describes.
        involved = {cell for violation in report for cell in violation.cells}
        assert (3, "gender") in involved
        assert (2, "gender") in involved


@pytest.mark.parametrize(
    "dataset_name,lhs,rhs",
    [
        ("phone_state", "phone_number", "state"),
        ("fullname_gender", "full_name", "gender"),
        ("zip_city_state", "zip", "city"),
        ("zip_city_state", "zip", "state"),
    ],
)
class TestTable3Scenarios:
    """Each Table 3 dependency is re-discovered and its errors detected."""

    def test_dependency_discovered_and_errors_found(self, dataset_name, lhs, rhs):
        dataset = build_dataset(dataset_name, n_rows=600, seed=17)
        result = PfdDiscoverer().discover_with_report(dataset.table)
        pfds = result.pfds_for(lhs, rhs)
        assert pfds, f"expected a PFD for {lhs} -> {rhs}"
        report = ErrorDetector(dataset.table).detect_all(pfds)
        truth = {
            (row, attr) for row, attr in dataset.error_cells if attr == rhs
        }
        evaluation = evaluate_report(report, truth)
        assert evaluation.recall >= 0.75, (dataset_name, lhs, rhs, evaluation)


class TestHeadlineClaim:
    """PFDs detect errors existing approaches cannot (the E10 comparison)."""

    @pytest.fixture(scope="class")
    def phone_dataset(self):
        return build_dataset("phone_state", n_rows=800, seed=23, error_rate=0.02)

    def test_fd_and_cfd_miss_unique_lhs_errors(self, phone_dataset):
        table = phone_dataset.table
        fds = [d.fd for d in discover_fds(table, FdDiscoveryConfig(max_lhs_size=1))]
        fd_report = detect_fd_violations(table, fds)
        cfd_report = detect_cfd_violations(table, discover_constant_cfds(table))
        truth = phone_dataset.error_cells
        assert evaluate_report(fd_report, truth).recall == 0.0
        assert evaluate_report(cfd_report, truth).recall == 0.0

    def test_pattern_outliers_miss_well_formed_errors(self, phone_dataset):
        report = PatternOutlierDetector().detect(phone_dataset.table, columns=["state"])
        assert evaluate_report(report, phone_dataset.error_cells).recall == 0.0

    def test_pfds_catch_most_of_them(self, phone_dataset):
        result = PfdDiscoverer().discover_with_report(phone_dataset.table)
        report = ErrorDetector(phone_dataset.table).detect_all(result.pfds)
        evaluation = evaluate_report(report, phone_dataset.error_cells)
        assert evaluation.recall >= 0.9
        assert evaluation.precision >= 0.5


class TestParameterTradeoff:
    """Section 4: lower coverage / higher tolerance → more dependencies."""

    def test_lower_coverage_reports_more_dependencies(self):
        dataset = build_dataset("zip_city_state", n_rows=600, seed=5)
        low = PfdDiscoverer(DiscoveryConfig(min_coverage=0.2)).discover(dataset.table)
        high = PfdDiscoverer(DiscoveryConfig(min_coverage=0.95)).discover(dataset.table)
        assert len(low) >= len(high)

    def test_higher_tolerance_never_reduces_dependencies(self):
        dataset = build_dataset("zip_city_state", n_rows=600, seed=5)
        tolerant = PfdDiscoverer(
            DiscoveryConfig(allowed_violation_ratio=0.2)
        ).discover(dataset.table)
        strict = PfdDiscoverer(
            DiscoveryConfig(allowed_violation_ratio=0.0)
        ).discover(dataset.table)
        assert len(tolerant) >= len(strict)


class TestRepairLoop:
    def test_detect_and_repair_recovers_clean_values(self):
        from repro.detection.repair import apply_repairs, suggest_repairs

        dataset = build_dataset("phone_state", n_rows=600, seed=29, error_rate=0.02)
        result = PfdDiscoverer().discover_with_report(dataset.table)
        report = ErrorDetector(dataset.table).detect_all(result.pfds)
        repaired = apply_repairs(dataset.table, suggest_repairs(report), min_confidence=0.5)
        fixed = sum(
            1
            for row, attr in dataset.error_cells
            if repaired.cell(row, attr) == dataset.clean_table.cell(row, attr)
        )
        assert fixed / max(1, len(dataset.error_cells)) >= 0.8
