"""Schema model: attributes, data types, and the relation schema.

A :class:`Schema` is an ordered collection of named :class:`Attribute`
objects.  Attribute order matters because the discovery algorithm reports
dependencies by attribute name and the CSV reader maps columns by
position.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Sequence, Union

from repro.errors import SchemaError


class DataType(enum.Enum):
    """Coarse-grained data types used by profiling and candidate pruning.

    The discovery algorithm (Figure 2, line 1) prunes attributes for which
    PFDs cannot be found — e.g. pure numeric measures.  The profiler
    assigns one of these types to every column to support that pruning.
    """

    STRING = "string"
    INTEGER = "integer"
    FLOAT = "float"
    BOOLEAN = "boolean"
    EMPTY = "empty"

    @property
    def is_numeric(self) -> bool:
        """Whether the type is a numeric measure (candidates are pruned)."""
        return self in (DataType.INTEGER, DataType.FLOAT)


@dataclass(frozen=True)
class Attribute:
    """A named column of a relation.

    Parameters
    ----------
    name:
        Column name; must be non-empty and unique within a schema.
    dtype:
        Coarse type assigned by :mod:`repro.dataset.inference` (defaults
        to :attr:`DataType.STRING` because PFDs operate on string values).
    nullable:
        Whether empty strings are expected in this column.
    """

    name: str
    dtype: DataType = DataType.STRING
    nullable: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be a non-empty string")
        if not isinstance(self.dtype, DataType):
            raise SchemaError(f"dtype must be a DataType, got {self.dtype!r}")

    def with_dtype(self, dtype: DataType) -> "Attribute":
        """Return a copy of this attribute with a different data type."""
        return Attribute(self.name, dtype, self.nullable)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.name}:{self.dtype.value}"


AttributeLike = Union[str, Attribute]


@dataclass
class Schema:
    """An ordered, name-unique collection of attributes."""

    attributes: List[Attribute] = field(default_factory=list)

    def __post_init__(self) -> None:
        normalized: List[Attribute] = []
        for attr in self.attributes:
            normalized.append(self._coerce(attr))
        names = [a.name for a in normalized]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise SchemaError(f"duplicate attribute names: {sorted(duplicates)}")
        self.attributes = normalized

    @staticmethod
    def _coerce(attr: AttributeLike) -> Attribute:
        if isinstance(attr, Attribute):
            return attr
        if isinstance(attr, str):
            return Attribute(attr)
        raise SchemaError(f"cannot interpret {attr!r} as an attribute")

    @classmethod
    def of(cls, names: Iterable[AttributeLike]) -> "Schema":
        """Build a schema from attribute names or :class:`Attribute` objects."""
        return cls(list(names))

    # -- collection protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __contains__(self, name: object) -> bool:
        if isinstance(name, Attribute):
            name = name.name
        return any(a.name == name for a in self.attributes)

    def __getitem__(self, key: Union[int, str]) -> Attribute:
        if isinstance(key, int):
            return self.attributes[key]
        for attr in self.attributes:
            if attr.name == key:
                return attr
        raise SchemaError(f"unknown attribute {key!r}; have {self.names()}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.attributes == other.attributes

    # -- lookups -------------------------------------------------------------

    def names(self) -> List[str]:
        """Return the attribute names in declaration order."""
        return [a.name for a in self.attributes]

    def index_of(self, name: AttributeLike) -> int:
        """Return the positional index of an attribute.

        Raises :class:`~repro.errors.SchemaError` if the attribute does not
        exist.
        """
        if isinstance(name, Attribute):
            name = name.name
        for i, attr in enumerate(self.attributes):
            if attr.name == name:
                return i
        raise SchemaError(f"unknown attribute {name!r}; have {self.names()}")

    def with_attribute(self, attr: AttributeLike) -> "Schema":
        """Return a new schema with ``attr`` appended."""
        return Schema(self.attributes + [self._coerce(attr)])

    def with_dtypes(self, dtypes: Sequence[DataType]) -> "Schema":
        """Return a copy of the schema with attribute types replaced."""
        if len(dtypes) != len(self.attributes):
            raise SchemaError(
                f"expected {len(self.attributes)} dtypes, got {len(dtypes)}"
            )
        return Schema(
            [a.with_dtype(dt) for a, dt in zip(self.attributes, dtypes)]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(str(a) for a in self.attributes)
        return f"Schema({inner})"
