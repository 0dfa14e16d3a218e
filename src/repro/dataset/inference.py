"""Column type inference.

The discovery algorithm prunes attributes that cannot host PFDs — in the
paper, "we drop all columns with pure numerical values".  To make that
decision the schema needs coarse data types, which this module infers from
the string values in each column.
"""

from __future__ import annotations

from typing import Iterable

from repro.dataset.schema import DataType, Schema
from repro.dataset.table import Table

_BOOLEAN_TOKENS = {"true", "false", "yes", "no", "t", "f", "y", "n"}


def _is_integer(value: str) -> bool:
    text = value.strip()
    if not text:
        return False
    if text[0] in "+-":
        text = text[1:]
    return text.isdigit() and bool(text)


def _is_float(value: str) -> bool:
    text = value.strip()
    if not text:
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True


def infer_column_type(values: Iterable[str]) -> DataType:
    """Infer the coarse type of a column from its non-empty values.

    Every non-empty value must conform to a type for the column to be
    assigned that type: a single non-conforming value demotes the column
    to STRING, which is the conservative choice for dependency discovery
    (a zip code column with one alphanumeric value should still be
    treated as text).  ``values`` may hold each value once (the keys of a
    value → count mapping) or with repeats; blank values are ignored.
    """
    present = [v for v in set(values) if v.strip() != ""]
    if not present:
        return DataType.EMPTY
    if all(v.strip().lower() in _BOOLEAN_TOKENS for v in present):
        return DataType.BOOLEAN
    if all(_is_integer(v) for v in present):
        return DataType.INTEGER
    if all(_is_float(v) for v in present):
        return DataType.FLOAT
    return DataType.STRING


def infer_schema(table: Table) -> Schema:
    """Return a copy of the table's schema with inferred dtypes attached."""
    dtypes = [infer_column_type(table.column_ref(name)) for name in table.column_names()]
    return table.schema.with_dtypes(dtypes)
