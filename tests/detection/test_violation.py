"""Tests for the violation model."""

from repro.detection.violation import Violation, ViolationKind, ViolationReport


def make_violation(row=0, rhs="city", pfd="psi1", observed="NY", expected="LA", rule=0):
    return Violation(
        pfd_name=pfd,
        lhs_attribute="zip",
        rhs_attribute=rhs,
        kind=ViolationKind.CONSTANT,
        rule_index=rule,
        rule_text="zip=900\\D{2}, city=LA",
        rows=(row,),
        observed_value=observed,
        expected_value=expected,
    )


class TestViolation:
    def test_describe_mentions_expectation(self):
        violation = make_violation()
        text = violation.describe()
        assert "psi1" in text
        assert "'LA'" in text
        assert "'NY'" in text

    def test_describe_without_expectation(self):
        violation = make_violation(expected=None)
        assert "expected" not in violation.describe()

    def test_describe_with_empty_string_expectation(self):
        # regression: a truthiness check used to hide the expectation when
        # a constant rule's RHS constant is the empty string
        violation = make_violation(expected="")
        assert "(expected '')" in violation.describe()


class TestViolationReport:
    def test_add_and_len(self):
        report = ViolationReport(n_rows=10)
        report.add(make_violation(0))
        report.extend([make_violation(1), make_violation(2)])
        assert len(report) == 3
        assert not report.is_empty()

    def test_suspect_cells_and_rows(self):
        report = ViolationReport(n_rows=10)
        report.add(make_violation(3))
        report.add(make_violation(3))  # duplicate cell
        report.add(make_violation(7, rhs="state"))
        assert report.suspect_cells() == {(3, "city"), (7, "state")}
        assert report.suspect_rows() == [3, 7]

    def test_cells_include_lhs(self):
        assert (3, "zip") in make_violation(3).cells
