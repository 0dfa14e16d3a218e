"""Columnar in-memory relational table.

All cell values are stored as strings because PFDs reason about the
*textual shape* of values; numeric typing only matters for candidate
pruning and is tracked in the schema, not in the storage layer.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.dataset.schema import Attribute, DataType, Schema
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
        # Mutation counter, bumped by every in-place mutation (a shard
        # store compares it to catch a shard mutated behind its back).
        self._version = 0

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
    def from_dicts(
        cls,
        rows: Iterable[Mapping[str, object]],
        schema: Optional[Union[Schema, Sequence[str]]] = None,
    ) -> "Table":
        """Build a table from dict-shaped rows.

        When ``schema`` is omitted the attribute order is taken from the
        first row; later rows may omit keys (missing cells become empty
        strings) but may not introduce new ones.
        """
        rows = list(rows)
        if schema is None:
            if not rows:
                raise TableError("cannot infer a schema from zero dict rows")
            schema = Schema.of(list(rows[0].keys()))
        elif not isinstance(schema, Schema):
            schema = Schema.of(schema)
        names = schema.names()
        known = set(names)
        materialized = []
        for row_number, row in enumerate(rows):
            extra = set(row.keys()) - known
            if extra:
                raise TableError(
                    f"row {row_number} has unknown attributes {sorted(extra)}"
                )
            materialized.append([row.get(name, "") for name in names])
        return cls.from_rows(schema, materialized)

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

    @property
    def version(self) -> int:
        """Mutation counter — incremented by every in-place mutation
        (:meth:`set_cell`, :meth:`append_row`, :meth:`delete_row`)."""
        return self._version

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

    def row_dict(self, row: int) -> Dict[str, str]:
        """Return one row as an attribute-name → value mapping."""
        self._check_row(row)
        return {
            name: col[row]
            for name, col in zip(self._schema.names(), self._columns)
        }

    def iter_rows(self) -> Iterator[Row]:
        """Iterate over rows as tuples in schema order."""
        for i in range(self._n_rows):
            yield tuple(col[i] for col in self._columns)

    def iter_dicts(self) -> Iterator[Dict[str, str]]:
        """Iterate over rows as dictionaries."""
        names = self._schema.names()
        for i in range(self._n_rows):
            yield {name: col[i] for name, col in zip(names, self._columns)}

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self._n_rows:
            raise TableError(f"row index {row} out of range [0, {self._n_rows})")

    # -- transformations -----------------------------------------------------

    def select(self, names: Sequence[Union[str, Attribute]]) -> "Table":
        """Return a new table restricted to the given columns."""
        sub_schema = self._schema.select(names)
        columns = [list(self._columns[self._schema.index_of(n)]) for n in names]
        return Table(sub_schema, columns)

    def filter(self, predicate: Callable[[Dict[str, str]], bool]) -> "Table":
        """Return a new table with the rows for which ``predicate`` is true."""
        keep = [i for i, row in enumerate(self.iter_dicts()) if predicate(row)]
        return self.take(keep)

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

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        """Return a copy with columns renamed according to ``mapping``."""
        attrs = []
        for attr in self._schema:
            new_name = mapping.get(attr.name, attr.name)
            attrs.append(Attribute(new_name, attr.dtype, attr.nullable))
        return Table(Schema(attrs), [list(c) for c in self._columns])

    def copy(self) -> "Table":
        """Return a deep copy of the table."""
        return Table(self._schema, [list(c) for c in self._columns])

    # -- in-place mutation (explicit) -----------------------------------------

    def set_cell(self, row: int, name: Union[str, Attribute], value: object) -> None:
        """Destructively overwrite one cell (used by corruption and repair)."""
        self._check_row(row)
        index = self._schema.index_of(name)
        old = self._columns[index][row]
        new = _stringify(value)
        if new == old:
            return  # no-op write: the version stays
        self._columns[index][row] = new
        self._version += 1

    def append_row(
        self, values: Union[Sequence[object], Mapping[str, object]]
    ) -> int:
        """Destructively append one row; returns its row index.

        Accepts a sequence in schema order or a mapping by attribute name
        (missing attributes become empty strings, unknown ones raise).
        """
        if isinstance(values, str):
            # a bare string is a Sequence of characters — reject it before
            # it silently shreds into per-character cells
            raise TableError(
                f"append_row needs a sequence or mapping of cell values, got the string {values!r}"
            )
        if isinstance(values, Mapping):
            extra = set(values.keys()) - set(self.column_names())
            if extra:
                raise TableError(
                    f"appended row has unknown attributes {sorted(extra)}"
                )
            row_values = [
                _stringify(values.get(name, "")) for name in self.column_names()
            ]
        else:
            if len(values) != len(self._schema):
                raise TableError(
                    f"appended row has {len(values)} values, expected {len(self._schema)}"
                )
            row_values = [_stringify(v) for v in values]
        for column, value in zip(self._columns, row_values):
            column.append(value)
        row = self._n_rows
        self._n_rows += 1
        self._version += 1
        return row

    def delete_row(self, row: int) -> Row:
        """Destructively remove one row; returns its values.

        Rows after ``row`` shift down by one.
        """
        self._check_row(row)
        removed = tuple(column[row] for column in self._columns)
        for column in self._columns:
            del column[row]
        self._n_rows -= 1
        self._version += 1
        return removed

    # -- analytics helpers ----------------------------------------------------

    def distinct(self, name: Union[str, Attribute]) -> List[str]:
        """Return the distinct values of a column, in first-seen order."""
        seen = set()
        out = []
        for value in self.column_ref(name):
            if value not in seen:
                seen.add(value)
                out.append(value)
        return out

    def value_counts(self, name: Union[str, Attribute]) -> Dict[str, int]:
        """Return value → frequency for a column."""
        counts: Dict[str, int] = {}
        for value in self.column_ref(name):
            counts[value] = counts.get(value, 0) + 1
        return counts

    def group_rows(self, name: Union[str, Attribute]) -> Dict[str, List[int]]:
        """Return value → list of row indexes holding that value."""
        groups: Dict[str, List[int]] = {}
        for i, value in enumerate(self.column_ref(name)):
            groups.setdefault(value, []).append(i)
        return groups

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
