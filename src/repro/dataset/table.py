"""Columnar in-memory relational table.

All cell values are stored as strings because PFDs reason about the
*textual shape* of values; numeric typing only matters for candidate
pruning and is tracked in the schema, not in the storage layer.
"""

from __future__ import annotations

from typing import (
    Iterable,
    Iterator,
    List,
    Sequence,
    Tuple,
    Union,
)

from repro.dataset.schema import Attribute, Schema
from repro.errors import TableError


CellValue = str
Row = Tuple[CellValue, ...]


def _stringify(value: object) -> str:
    """Convert an arbitrary cell value to its canonical string form."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _all_str(column: object) -> bool:
    """Whether a list/tuple column holds only exact ``str`` cells, which
    :func:`_stringify` would return unchanged (checked at C speed, so
    building a table from already-canonical columns skips the per-cell
    normalization call)."""
    return isinstance(column, (list, tuple)) and set(map(type, column)) <= {str}


class Table:
    """An immutable-by-convention columnar table.

    Columns are stored as lists of strings.  Mutation methods return new
    tables; the only in-place operation is :meth:`set_cell`, used by error
    injection and repair, which is explicit about being destructive.
    """

    def __init__(self, schema: Union[Schema, Sequence[str]], columns: Sequence[Sequence[object]]):
        if not isinstance(schema, Schema):
            schema = Schema.of(schema)
        self._adopt(
            schema,
            [
                list(col) if _all_str(col) else [_stringify(v) for v in col]
                for col in columns
            ],
        )

    def _adopt(self, schema: Schema, columns: List[List[str]]) -> None:
        if len(columns) != len(schema):
            raise TableError(
                f"schema has {len(schema)} attributes but {len(columns)} columns given"
            )
        lengths = {len(col) for col in columns}
        if len(lengths) > 1:
            raise TableError(f"columns have inconsistent lengths: {sorted(lengths)}")
        self._schema = schema
        self._columns = columns
        self._n_rows = columns[0].__len__() if columns else 0

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_str_columns(cls, schema: Schema, columns: List[List[str]]) -> "Table":
        """Adopt freshly built column lists of exact ``str`` cells as they
        are: no copy and no per-cell check (decoders that build the lists
        themselves use this; the table owns them afterwards)."""
        table = cls.__new__(cls)
        table._adopt(schema, columns)
        return table

    @classmethod
    def from_rows(
        cls,
        schema: Union[Schema, Sequence[str]],
        rows: Iterable[Sequence[object]],
    ) -> "Table":
        """Build a table from an iterable of row sequences."""
        if not isinstance(schema, Schema):
            schema = Schema.of(schema)
        columns: List[List[object]] = [[] for _ in range(len(schema))]
        for row_number, row in enumerate(rows):
            row = list(row)
            if len(row) != len(schema):
                raise TableError(
                    f"row {row_number} has {len(row)} values, expected {len(schema)}"
                )
            for i, value in enumerate(row):
                columns[i].append(value)
        return cls(schema, columns)

    @classmethod
    def empty(cls, schema: Union[Schema, Sequence[str]]) -> "Table":
        """Return a zero-row table over ``schema``."""
        if not isinstance(schema, Schema):
            schema = Schema.of(schema)
        return cls(schema, [[] for _ in range(len(schema))])

    # -- basic accessors -----------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_columns(self) -> int:
        return len(self._schema)

    def __len__(self) -> int:
        return self._n_rows

    def column_names(self) -> List[str]:
        """Return the attribute names in order."""
        return self._schema.names()

    def column(self, name: Union[str, Attribute]) -> List[str]:
        """Return a copy of the named column's values."""
        index = self._schema.index_of(name)
        return list(self._columns[index])

    def column_ref(self, name: Union[str, Attribute]) -> Sequence[str]:
        """Return a read-only reference to the column storage (no copy).

        Used by hot loops (discovery, detection) to avoid copying whole
        columns; callers must not mutate the returned sequence.
        """
        index = self._schema.index_of(name)
        return self._columns[index]

    def cell(self, row: int, name: Union[str, Attribute]) -> str:
        """Return the value of one cell."""
        self._check_row(row)
        return self._columns[self._schema.index_of(name)][row]

    def row(self, row: int) -> Row:
        """Return one row as a tuple of values, in schema order."""
        self._check_row(row)
        return tuple(col[row] for col in self._columns)

    def iter_rows(self) -> Iterator[Row]:
        """Iterate over rows as tuples in schema order."""
        for i in range(self._n_rows):
            yield tuple(col[i] for col in self._columns)

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self._n_rows:
            raise TableError(f"row index {row} out of range [0, {self._n_rows})")

    # -- transformations -----------------------------------------------------

    def take(self, row_indexes: Sequence[int]) -> "Table":
        """Return a new table containing the given rows, in the given order."""
        for i in row_indexes:
            self._check_row(i)
        columns = [[col[i] for i in row_indexes] for col in self._columns]
        return Table(self._schema, columns)

    def head(self, n: int) -> "Table":
        """Return the first ``n`` rows as a new table."""
        return self.take(range(min(n, self._n_rows)))

    def concat(self, other: "Table") -> "Table":
        """Append ``other`` below this table (schemas must have equal names)."""
        if other.column_names() != self.column_names():
            raise TableError(
                "cannot concat tables with different columns: "
                f"{self.column_names()} vs {other.column_names()}"
            )
        columns = [
            list(col) + list(other._columns[i])
            for i, col in enumerate(self._columns)
        ]
        return Table(self._schema, columns)

    def with_column(self, name: str, values: Sequence[object]) -> "Table":
        """Return a new table with an extra column appended."""
        if len(values) != self._n_rows:
            raise TableError(
                f"new column has {len(values)} values, table has {self._n_rows} rows"
            )
        schema = self._schema.with_attribute(name)
        return Table(schema, [list(c) for c in self._columns] + [list(values)])

    def with_schema(self, schema: Schema) -> "Table":
        """Return a copy of the table with a replacement schema.

        The replacement must have the same number of attributes; this is
        how type inference attaches inferred dtypes.
        """
        if len(schema) != len(self._schema):
            raise TableError(
                f"replacement schema has {len(schema)} attributes, expected {len(self._schema)}"
            )
        return Table(schema, [list(c) for c in self._columns])

    def copy(self) -> "Table":
        """Return a deep copy of the table."""
        return Table(self._schema, [list(c) for c in self._columns])

    # -- in-place mutation (explicit) -----------------------------------------

    def set_cell(self, row: int, name: Union[str, Attribute], value: object) -> None:
        """Destructively overwrite one cell (used by corruption and repair)."""
        self._check_row(row)
        self._columns[self._schema.index_of(name)][row] = _stringify(value)

    # -- analytics helpers ----------------------------------------------------

    # -- dunder niceties -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return (
            self.column_names() == other.column_names()
            and self._columns == other._columns
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.column_names()}, n_rows={self._n_rows})"

    def to_text(self, max_rows: int = 20) -> str:
        """Render the table as a fixed-width text grid (for reports)."""
        names = self.column_names()
        rows = [list(r) for r in self.head(max_rows).iter_rows()]
        widths = [len(n) for n in names]
        for row in rows:
            for i, value in enumerate(row):
                widths[i] = max(widths[i], len(value))
        def fmt(values: Sequence[str]) -> str:
            return " | ".join(v.ljust(widths[i]) for i, v in enumerate(values))
        lines = [fmt(names), "-+-".join("-" * w for w in widths)]
        lines.extend(fmt(row) for row in rows)
        if self._n_rows > max_rows:
            lines.append(f"... ({self._n_rows - max_rows} more rows)")
        return "\n".join(lines)
