"""Tests for the PFD class and the paper's λ1–λ5 definitions."""

import pytest

from repro.constrained.constrained_pattern import (
    ConstrainedPattern,
    constrained_first_token,
    constrained_prefix,
)
from repro.errors import ConstraintError
from repro.patterns import parse_pattern
from repro.pfd.fd import EmbeddedFD
from repro.pfd.pfd import PFD, PfdKind
from repro.pfd.tableau import PatternTableau, WILDCARD


def lambda1() -> PFD:
    return PFD.constant(
        "name", "gender", [{"name": "John\\ \\A*", "gender": "M"}], name="lambda1", relation="Name"
    )


def lambda3() -> PFD:
    return PFD.constant(
        "zip", "city", [{"zip": "900\\D{2}", "city": "Los Angeles"}], name="lambda3", relation="Zip"
    )


def lambda4() -> PFD:
    return PFD.variable("name", "gender", constrained_first_token(), name="lambda4", relation="Name")


def lambda5() -> PFD:
    return PFD.variable(
        "zip",
        "city",
        constrained_prefix(3, parse_pattern("\\D{2}"), head=parse_pattern("\\D{3}")),
        name="lambda5",
        relation="Zip",
    )


class TestConstruction:
    def test_constant_factory(self):
        pfd = lambda3()
        assert pfd.lhs_attribute == "zip"
        assert pfd.rhs_attribute == "city"
        assert pfd.kind is PfdKind.CONSTANT
        assert pfd.is_constant
        assert len(pfd.tableau) == 1

    def test_variable_factory(self):
        pfd = lambda5()
        assert pfd.kind is PfdKind.VARIABLE
        assert pfd.is_variable
        assert len(pfd.tableau) == 1
        assert pfd.constant_rules() == []

    def test_mixed_kind(self):
        pfd = lambda3()
        pfd.add_rule({"zip": parse_pattern("606\\D{2}"), "city": WILDCARD})
        assert pfd.kind is PfdKind.MIXED
        assert not pfd.is_constant
        assert not pfd.is_variable

    def test_empty_tableau_defaults_to_constant(self):
        pfd = PFD(EmbeddedFD.between("a", "b"))
        assert pfd.kind is PfdKind.CONSTANT

    def test_tableau_must_cover_fd_attributes(self):
        with pytest.raises(ConstraintError):
            PFD(EmbeddedFD.between("a", "b"), PatternTableau(["a"]))

    def test_lhs_strings_are_parsed_as_patterns(self):
        pfd = PFD.constant("zip", "city", [{"zip": "900\\D{2}", "city": "Los Angeles"}])
        lhs_cell = pfd.tableau[0].cell("zip")
        assert lhs_cell.matches("90001")

    def test_constrained_lhs_strings_are_parsed(self):
        pfd = PFD.constant("zip", "city")
        pfd.add_rule({"zip": "⟨\\D{3}⟩\\D{2}", "city": WILDCARD})
        assert isinstance(pfd.tableau[0].cell("zip"), ConstrainedPattern)

    def test_rhs_strings_stay_constants(self):
        pfd = lambda3()
        assert pfd.tableau[0].cell("city") == "Los Angeles"


class TestCoverage:
    def test_coverage_counts_matching_lhs_values(self):
        pfd = lambda3()
        values = ["90001", "90002", "60601", "90088"]
        assert pfd.coverage(values) == pytest.approx(0.75)

    def test_coverage_with_constrained_pattern(self):
        pfd = lambda5()
        assert pfd.coverage(["90001", "60601", "bad"]) == pytest.approx(2 / 3)

    def test_coverage_empty_values(self):
        assert lambda3().coverage([]) == 0.0

    def test_wildcard_lhs_covers_everything(self):
        pfd = PFD.constant("a", "b")
        pfd.add_rule({"a": WILDCARD, "b": "x"})
        assert pfd.coverage(["1", "2"]) == 1.0


class TestDescribe:
    def test_lambda_notation_constant(self):
        text = lambda3().describe()
        assert "lambda3" in text
        assert "[zip = 900\\D{2}] → [city = Los Angeles]" in text

    def test_lambda_notation_variable(self):
        text = lambda4().describe()
        assert "[gender]" in text
        assert "gender =" not in text

    def test_empty_tableau_description(self):
        pfd = PFD(EmbeddedFD.between("a", "b"), relation="R")
        assert "[a] → [b]" in pfd.describe()


class TestSerialization:
    @pytest.mark.parametrize("factory", [lambda1, lambda3, lambda4, lambda5])
    def test_round_trip(self, factory):
        original = factory()
        restored = PFD.from_dict(original.to_dict())
        assert restored.name == original.name
        assert restored.lhs_attribute == original.lhs_attribute
        assert restored.rhs_attribute == original.rhs_attribute
        assert restored.kind == original.kind
        assert len(restored.tableau) == len(original.tableau)
        # cells render identically after the round trip
        for left, right in zip(original.tableau, restored.tableau):
            assert left.render() == right.render()

    def test_constant_cells_survive_round_trip(self):
        restored = PFD.from_dict(lambda3().to_dict())
        assert restored.tableau[0].cell("city") == "Los Angeles"
