"""Tests for the columnar Table."""

import pytest

from repro.dataset.schema import Schema
from repro.dataset.table import Table
from repro.errors import TableError


class TestConstruction:
    def test_from_rows(self, mixed_table):
        assert mixed_table.n_rows == 5
        assert mixed_table.n_columns == 4
        assert mixed_table.column_names() == ["id", "name", "age", "city"]

    def test_from_rows_rejects_ragged_rows(self):
        with pytest.raises(TableError):
            Table.from_rows(["a", "b"], [["1", "2"], ["only-one"]])

    def test_column_count_must_match_schema(self):
        with pytest.raises(TableError):
            Table(Schema.of(["a", "b"]), [["1"]])

    def test_columns_must_have_equal_length(self):
        with pytest.raises(TableError):
            Table(["a", "b"], [["1", "2"], ["x"]])

    def test_empty_table(self):
        table = Table.empty(["a", "b"])
        assert table.n_rows == 0
        assert list(table.iter_rows()) == []

    def test_values_are_stringified(self):
        table = Table.from_rows(["n", "f"], [[1, 2.0], [None, 3.5]])
        assert table.cell(0, "n") == "1"
        assert table.cell(0, "f") == "2"
        assert table.cell(1, "n") == ""
        assert table.cell(1, "f") == "3.5"


class TestAccess:
    def test_cell_and_row(self, mixed_table):
        assert mixed_table.cell(0, "name") == "Alice Smith"
        assert mixed_table.row(1) == ("2", "Bob Jones", "28", "Boston")

    def test_out_of_range_row(self, mixed_table):
        with pytest.raises(TableError):
            mixed_table.cell(99, "name")

    def test_column_returns_copy(self, mixed_table):
        column = mixed_table.column("city")
        column[0] = "MUTATED"
        assert mixed_table.cell(0, "city") == "Boston"

    def test_len(self, mixed_table):
        assert len(mixed_table) == 5


class TestTransformations:
    def test_take_and_head(self, mixed_table):
        assert mixed_table.take([4, 0]).column("id") == ["5", "1"]
        assert mixed_table.head(2).n_rows == 2
        assert mixed_table.head(100).n_rows == 5

    def test_take_out_of_range(self, mixed_table):
        with pytest.raises(TableError):
            mixed_table.take([99])

    def test_concat(self, mixed_table):
        doubled = mixed_table.concat(mixed_table)
        assert doubled.n_rows == 10

    def test_concat_requires_same_columns(self, mixed_table):
        other = Table.from_rows(["x"], [["1"]])
        with pytest.raises(TableError):
            mixed_table.concat(other)

    def test_with_column(self, mixed_table):
        extended = mixed_table.with_column("country", ["US"] * 5)
        assert extended.column("country") == ["US"] * 5
        with pytest.raises(TableError):
            mixed_table.with_column("bad", ["only-one"])

    def test_copy_is_independent(self, mixed_table):
        copy = mixed_table.copy()
        copy.set_cell(0, "city", "XXX")
        assert mixed_table.cell(0, "city") == "Boston"

    def test_with_schema_requires_same_width(self, mixed_table):
        with pytest.raises(TableError):
            mixed_table.with_schema(Schema.of(["just-one"]))


class TestMutationAndAnalytics:
    def test_set_cell(self, mixed_table):
        table = mixed_table.copy()
        table.set_cell(0, "city", "Denver")
        assert table.cell(0, "city") == "Denver"

    def test_in_place_mutations(self):
        table = Table.from_rows(["a", "b"], [["x", "1"], ["y", "2"]])
        table.set_cell(0, "a", "x")
        table.set_cell(0, "a", "z")
        table.set_cell(1, "b", 3)
        assert list(table.iter_rows()) == [("z", "1"), ("y", "3")]

    def test_equality(self, mixed_table):
        assert mixed_table == mixed_table.copy()
        assert mixed_table != mixed_table.head(2)

    def test_to_text_contains_header_and_rows(self, mixed_table):
        text = mixed_table.to_text(max_rows=2)
        assert "city" in text
        assert "Alice Smith" in text
        assert "more rows" in text
