"""Tests for pattern tableaux."""

import pytest

from repro.constrained.constrained_pattern import ConstrainedPattern
from repro.errors import ConstraintError
from repro.patterns import parse_pattern
from repro.pfd.tableau import (
    PatternTableau,
    TableauRow,
    WILDCARD,
    Wildcard,
    cell_is_constant,
    cell_matches,
    cell_to_text,
)


class TestWildcard:
    def test_singleton(self):
        assert Wildcard() is WILDCARD
        assert str(WILDCARD) == "⊥"


class TestCellHelpers:
    def test_wildcard_matches_everything(self):
        assert cell_matches(WILDCARD, "anything")
        assert cell_matches(WILDCARD, "")

    def test_constant_matches_exact_value(self):
        assert cell_matches("Los Angeles", "Los Angeles")
        assert not cell_matches("Los Angeles", "LA")

    def test_pattern_cell(self):
        assert cell_matches(parse_pattern("900\\D{2}"), "90001")
        assert not cell_matches(parse_pattern("900\\D{2}"), "60601")

    def test_constrained_pattern_cell(self):
        q = ConstrainedPattern.parse("⟨\\D{3}⟩\\D{2}")
        assert cell_matches(q, "90001")
        assert not cell_matches(q, "9000")

    def test_unsupported_cell_type(self):
        with pytest.raises(ConstraintError):
            cell_matches(42, "x")

    def test_cell_to_text(self):
        assert cell_to_text(WILDCARD) == "⊥"
        assert cell_to_text("CA") == "CA"
        assert cell_to_text(parse_pattern("\\D{5}")) == "\\D{5}"

    def test_cell_is_constant(self):
        assert cell_is_constant("CA")
        assert cell_is_constant(parse_pattern("\\D{5}"))
        assert not cell_is_constant(WILDCARD)


class TestTableauRow:
    def test_of_and_accessors(self):
        row = TableauRow.of({"zip": parse_pattern("900\\D{2}"), "city": "Los Angeles"})
        assert row.attributes() == ["zip", "city"]
        assert row.cell("city") == "Los Angeles"
        with pytest.raises(ConstraintError):
            row.cell("nope")

    def test_render(self):
        row = TableauRow.of({"zip": parse_pattern("900\\D{2}"), "city": WILDCARD})
        assert row.render() == "zip=900\\D{2}, city=⊥"


class TestPatternTableau:
    def test_requires_attributes(self):
        with pytest.raises(ConstraintError):
            PatternTableau([])

    def test_add_row_fills_missing_with_wildcard(self):
        tableau = PatternTableau(["zip", "city"])
        row = tableau.add_row({"zip": parse_pattern("900\\D{2}")})
        assert isinstance(row.cell("city"), Wildcard)

    def test_add_row_rejects_unknown_attributes(self):
        tableau = PatternTableau(["zip"])
        with pytest.raises(ConstraintError):
            tableau.add_row({"city": "LA"})

    def test_len_iter_getitem(self):
        tableau = PatternTableau(["zip", "city"])
        tableau.add_row({"zip": parse_pattern("900\\D{2}"), "city": "Los Angeles"})
        tableau.add_row({"zip": parse_pattern("606\\D{2}"), "city": "Chicago"})
        assert len(tableau) == 2
        assert tableau[0].cell("city") == "Los Angeles"
        assert [row.cell("city") for row in tableau] == ["Los Angeles", "Chicago"]

    def test_render_contains_all_rows(self):
        tableau = PatternTableau(["zip", "city"])
        tableau.add_row({"zip": parse_pattern("900\\D{2}"), "city": "Los Angeles"})
        text = tableau.render()
        assert "zip | city" in text
        assert "900\\D{2}" in text

    def test_equality(self):
        left = PatternTableau(["a"], [TableauRow.of({"a": "x"})])
        right = PatternTableau(["a"], [TableauRow.of({"a": "x"})])
        assert left == right
        right.add_row({"a": "y"})
        assert left != right
