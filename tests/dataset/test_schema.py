"""Tests for Schema and Attribute."""

import pytest

from repro.dataset.schema import Attribute, DataType, Schema
from repro.errors import SchemaError


class TestAttribute:
    def test_defaults(self):
        attr = Attribute("city")
        assert attr.dtype is DataType.STRING
        assert attr.nullable

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("")

    def test_bad_dtype_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("x", dtype="string")

    def test_with_dtype(self):
        attr = Attribute("age").with_dtype(DataType.INTEGER)
        assert attr.dtype is DataType.INTEGER
        assert attr.name == "age"

    def test_is_numeric(self):
        assert DataType.INTEGER.is_numeric
        assert DataType.FLOAT.is_numeric
        assert not DataType.STRING.is_numeric
        assert not DataType.BOOLEAN.is_numeric


class TestSchema:
    def test_of_names(self):
        schema = Schema.of(["zip", "city"])
        assert schema.names() == ["zip", "city"]
        assert len(schema) == 2

    def test_mixed_construction(self):
        schema = Schema.of(["zip", Attribute("city", DataType.STRING)])
        assert schema.names() == ["zip", "city"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema.of(["a", "b", "a"])

    def test_unknown_attribute_type_rejected(self):
        with pytest.raises(SchemaError):
            Schema.of([42])

    def test_contains(self):
        schema = Schema.of(["zip", "city"])
        assert "zip" in schema
        assert Attribute("city") in schema
        assert "state" not in schema

    def test_getitem_by_index_and_name(self):
        schema = Schema.of(["zip", "city"])
        assert schema[0].name == "zip"
        assert schema["city"].name == "city"

    def test_getitem_unknown_name(self):
        with pytest.raises(SchemaError):
            Schema.of(["zip"])["nope"]

    def test_index_of(self):
        schema = Schema.of(["zip", "city"])
        assert schema.index_of("city") == 1
        assert schema.index_of(Attribute("zip")) == 0
        with pytest.raises(SchemaError):
            schema.index_of("state")

    def test_with_attribute(self):
        schema = Schema.of(["a"]).with_attribute("b")
        assert schema.names() == ["a", "b"]

    def test_with_dtypes(self):
        schema = Schema.of(["a", "b"]).with_dtypes([DataType.INTEGER, DataType.STRING])
        assert schema["a"].dtype is DataType.INTEGER
        with pytest.raises(SchemaError):
            schema.with_dtypes([DataType.STRING])

    def test_equality(self):
        assert Schema.of(["a", "b"]) == Schema.of(["a", "b"])
        assert Schema.of(["a"]) != Schema.of(["b"])

    def test_iteration(self):
        names = [attr.name for attr in Schema.of(["x", "y"])]
        assert names == ["x", "y"]
