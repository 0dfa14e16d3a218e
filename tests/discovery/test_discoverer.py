"""Tests for the end-to-end Discover-PFDs driver."""

import pytest

from repro.discovery.config import DiscoveryConfig
from repro.discovery.discoverer import PfdDiscoverer
from repro.pfd.satisfaction import find_tableau_violations


class TestOnZipCityState:
    @pytest.fixture(scope="class")
    def result(self, request):
        dataset = request.getfixturevalue("small_zip_city_state")
        return PfdDiscoverer().discover_with_report(dataset.table, relation="D5")

    def test_discovers_zip_to_city_and_state(self, result):
        assert result.pfds_for("zip", "city")
        assert result.pfds_for("zip", "state")

    def test_discovers_both_kinds(self, result):
        assert result.constant_pfds()
        assert result.variable_pfds()

    def test_variable_zip_city_uses_three_digit_prefix(self, result):
        variables = [p for p in result.pfds_for("zip", "city") if p.is_variable]
        assert variables
        text = variables[0].lhs_cell_of(variables[0].tableau[0]).to_text()
        assert text == "⟨\\D{3}⟩\\D{2}"

    def test_variable_zip_state_uses_two_digit_prefix(self, result):
        variables = [p for p in result.pfds_for("zip", "state") if p.is_variable]
        assert variables
        text = variables[0].lhs_cell_of(variables[0].tableau[0]).to_text()
        assert text == "⟨\\D{2}⟩\\D{3}"

    def test_constant_rules_hold_on_clean_data(self, result, small_zip_city_state):
        clean = small_zip_city_state.clean_table
        for pfd in result.constant_pfds():
            report = find_tableau_violations(clean, pfd)
            # constant rules were mined from dirty data, so allow a tiny
            # residue, but they must essentially hold on the clean table
            assert report.violation_ratio <= 0.02, pfd.describe()

    def test_relation_and_names_assigned(self, result):
        assert all(p.relation == "D5" for p in result.pfds)
        names = [p.name for p in result.pfds]
        assert len(names) == len(set(names))

    def test_reports_cover_all_candidates(self, result):
        assert len(result.reports) >= len({(p.lhs_attribute, p.rhs_attribute) for p in result.pfds})
        assert result.summary()["pfds"] == len(result.pfds)

    def test_elapsed_time_recorded(self, result):
        assert result.elapsed_seconds > 0
        assert all(r.elapsed_seconds >= 0 for r in result.reports)


class TestOnPhoneState:
    def test_area_code_rules(self, small_phone_state):
        result = PfdDiscoverer().discover_with_report(small_phone_state.table, relation="D1")
        constants = [p for p in result.pfds_for("phone_number", "state") if p.is_constant]
        assert constants
        tableau_texts = {
            constants[0].lhs_cell_of(row).to_text(): constants[0].rhs_cell_of(row)
            for row in constants[0].tableau
        }
        # every tableau row must be an area-code prefix of a 10-digit number
        for lhs_text, rhs in tableau_texts.items():
            assert "\\D{7}" in lhs_text or "\\D" in lhs_text
            assert len(rhs) == 2

    def test_plain_fd_phone_to_state_is_useless_but_pfd_is_not(self, small_phone_state):
        from repro.pfd.fd import FunctionalDependency

        # The classical FD trivially holds because phone numbers are unique...
        fd = FunctionalDependency.of("phone_number", "state")
        assert fd.holds_on(small_phone_state.table)
        # ...yet the PFD detects the injected wrong-state errors.
        result = PfdDiscoverer().discover_with_report(small_phone_state.table)
        from repro.detection.detector import ErrorDetector

        report = ErrorDetector(small_phone_state.table).detect_all(result.pfds)
        flagged_rows = set(report.suspect_rows())
        true_rows = {row for row, _ in small_phone_state.error_cells}
        assert true_rows & flagged_rows


class TestOnFullNames:
    def test_first_name_gender_dependency(self, small_fullname_gender):
        result = PfdDiscoverer().discover_with_report(small_fullname_gender.table, relation="D2")
        pfds = result.pfds_for("full_name", "gender")
        assert pfds
        constants = [p for p in pfds if p.is_constant]
        assert constants
        lhs_texts = [constants[0].lhs_cell_of(row).to_text() for row in constants[0].tableau]
        assert any(",\\ " in text for text in lhs_texts)


class TestConfigurationEffects:
    def test_high_coverage_threshold_suppresses_constant_pfds(self, small_fullname_gender):
        strict = PfdDiscoverer(DiscoveryConfig(min_coverage=0.99))
        relaxed = PfdDiscoverer(DiscoveryConfig(min_coverage=0.3))
        strict_result = strict.discover_with_report(small_fullname_gender.table)
        relaxed_result = relaxed.discover_with_report(small_fullname_gender.table)
        assert len(relaxed_result.constant_pfds()) >= len(strict_result.constant_pfds())

    def test_accepted_dependencies_yield_both_families(self, small_zip_city_state):
        # no toggle: an accepted dependency contributes its constant
        # tableau and every variable candidate, a rejected one nothing
        result = PfdDiscoverer().discover_with_report(small_zip_city_state.table)
        assert any(r.constant_candidates and r.variable_candidates for r in result.reports)
        for report in result.reports:
            expected = (
                bool(report.constant_candidates) + len(report.variable_candidates)
                if report.accepted
                else 0
            )
            assert len(result.pfds_for(report.lhs, report.rhs)) == expected

    def test_discover_returns_plain_list(self, small_zip_city_state):
        pfds = PfdDiscoverer().discover(small_zip_city_state.table)
        assert isinstance(pfds, list)
        assert pfds
