"""Tests for column type inference."""

from collections import Counter

import pytest

from repro.dataset.inference import infer_column_type, infer_schema
from repro.dataset.schema import DataType
from repro.dataset.table import Table


class TestInferColumnType:
    def test_integers(self):
        assert infer_column_type(["1", "42", "-7", "+3"]) is DataType.INTEGER

    def test_floats(self):
        assert infer_column_type(["1.5", "2.0", "-0.25"]) is DataType.FLOAT

    def test_integers_plus_floats_are_float(self):
        assert infer_column_type(["1", "2.5"]) is DataType.FLOAT

    def test_booleans(self):
        assert infer_column_type(["true", "False", "YES", "no"]) is DataType.BOOLEAN

    def test_strings(self):
        assert infer_column_type(["Chicago", "Boston"]) is DataType.STRING

    def test_single_outlier_demotes_to_string(self):
        assert infer_column_type(["1", "2", "x"]) is DataType.STRING

    def test_empty_column(self):
        assert infer_column_type(["", "  ", ""]) is DataType.EMPTY

    def test_empty_values_are_ignored(self):
        assert infer_column_type(["1", "", "2"]) is DataType.INTEGER

    def test_zip_codes_look_like_integers(self):
        # This is why candidate pruning needs the "looks like a code"
        # escape hatch: plain inference sees digits only.
        assert infer_column_type(["90001", "60601"]) is DataType.INTEGER


CASES = [
    (["1e5", "2"], DataType.FLOAT),
    (["1.", ".5"], DataType.FLOAT),
    ([" 7 ", "8"], DataType.INTEGER),
    (["0", "1", "1", "0"], DataType.INTEGER),
    (["t", "F", "y", "N"], DataType.BOOLEAN),
    (["yes", "yes", "1"], DataType.STRING),
    (["+", "1"], DataType.STRING),
    (["-", "3"], DataType.STRING),
    (["90001", "9000A"], DataType.STRING),
    (["2.5", "", "2.5", " "], DataType.FLOAT),
    ([], DataType.EMPTY),
]


class TestValuesAndCountsAgree:
    """The profiler passes a value -> count mapping; a column passes its
    values with repeats.  Both must infer the same type."""

    @pytest.mark.parametrize("values,expected", CASES)
    def test_values_with_repeats(self, values, expected):
        assert infer_column_type(values) is expected

    @pytest.mark.parametrize("values,expected", CASES)
    def test_value_counts(self, values, expected):
        assert infer_column_type(Counter(values)) is expected


class TestInferSchema:
    def test_assigns_types_per_column(self):
        table = Table.from_rows(
            ["name", "age", "score", "active"],
            [
                ["Alice", "34", "1.5", "yes"],
                ["Bob", "28", "2.25", "no"],
            ],
        )
        schema = infer_schema(table)
        assert schema["name"].dtype is DataType.STRING
        assert schema["age"].dtype is DataType.INTEGER
        assert schema["score"].dtype is DataType.FLOAT
        assert schema["active"].dtype is DataType.BOOLEAN

    def test_preserves_names_and_order(self, mixed_table):
        schema = infer_schema(mixed_table)
        assert schema.names() == mixed_table.column_names()
