"""The on-disk / on-the-wire format of one shard.

Both disk-backed stores — :class:`~repro.sharding.store.SpillToDiskShardStore`
and :class:`~repro.sharding.object_store.ObjectShardStore` — write a
shard with :func:`encode_shard` and read it back with
:func:`decode_shard`.  Each column is dictionary-encoded: its distinct
values in first-appearance order plus one little-endian ``int32`` code
per row.  Reading a shard therefore costs one UTF-8 decode and one
slice per *distinct* value, and the row lists are rebuilt by one numpy
take over an object array of the distinct values — no per-cell parse,
no per-cell interning and no per-cell type check, which is what made
CSV shard files expensive to re-read.

Layout (all integers little-endian)::

    magic        8 bytes   b"RPSHARD1"
    n_columns    uint32
    n_rows       uint32
    per column:
      n_distinct uint32
      n_text     uint32    byte length of the UTF-8 text block
      lengths    n_distinct x uint32   code-point length of each value
      text       n_text bytes          the distinct values, concatenated
      codes      n_rows x int32        row -> index into the distinct values

Deliberately no pickle: spill directories and object servers live
outside the process, so a payload is untrusted input.
:func:`decode_shard` validates every length against the payload and
raises :class:`~repro.errors.TableError` naming the file or object on
any inconsistency.
"""

from __future__ import annotations

import struct
import sys
from array import array
from itertools import accumulate
from typing import Dict, List

from repro.dataset.schema import Schema
from repro.dataset.table import Table
from repro.errors import TableError
from repro.kernels.runtime import np

#: file-name / object-key suffix of an encoded shard
SHARD_SUFFIX = ".shard"

MAGIC = b"RPSHARD1"
#: the header's (n_columns, n_rows) and each column's (n_distinct, n_text)
_COUNTS = struct.Struct("<II")
_SWAP = sys.byteorder != "little"

assert array("i").itemsize == 4 and array("I").itemsize == 4


def encode_shard(shard: Table) -> bytes:
    """Serialize one shard: per column, its distinct values and codes."""
    parts = [MAGIC, _COUNTS.pack(len(shard.schema), shard.n_rows)]
    for name in shard.column_names():
        column = shard.column_ref(name)
        distinct = list(dict.fromkeys(column))
        code_of = {value: code for code, value in enumerate(distinct)}
        codes = array("i", map(code_of.__getitem__, column))
        lengths = array("I", map(len, distinct))
        text = "".join(distinct).encode("utf-8")
        if _SWAP:
            codes.byteswap()
            lengths.byteswap()
        parts += [
            _COUNTS.pack(len(distinct), len(text)),
            lengths.tobytes(),
            text,
            codes.tobytes(),
        ]
    return b"".join(parts)


def decode_shard(
    data: bytes,
    schema: Schema,
    n_rows: int,
    source: str,
    interned: Dict[str, str],
) -> Table:
    """Rebuild a shard written by :func:`encode_shard`.

    ``n_rows`` is the row count the store recorded at append time and
    ``source`` names the file or object in error messages.  Only the
    distinct values are interned through ``interned`` (the store's
    pool); every row of a column references one of them.
    """
    magic = bytes(data[: len(MAGIC)])
    if magic != MAGIC:
        raise TableError(f"{source} is not an encoded shard (bad magic {magic!r})")
    reader = _Reader(memoryview(data), source)
    reader.take(len(MAGIC))
    n_columns, stored_rows = reader.unpack(_COUNTS)
    if n_columns != len(schema):
        raise TableError(
            f"{source} has {n_columns} columns, expected {len(schema)} (corrupted?)"
        )
    if stored_rows != n_rows:
        raise TableError(
            f"{source} holds {stored_rows} rows, expected {n_rows} (corrupted?)"
        )
    columns: List[List[str]] = []
    for _ in range(n_columns):
        n_distinct, n_text = reader.unpack(_COUNTS)
        lengths = reader.array("I", n_distinct)
        try:
            text = str(reader.take(n_text), "utf-8")
        except UnicodeDecodeError as exc:
            raise TableError(f"{source} holds invalid UTF-8 ({exc.reason})") from None
        ends = list(accumulate(lengths))
        if (ends[-1] if ends else 0) != len(text):
            raise TableError(
                f"{source} value lengths do not add up to its text block (corrupted?)"
            )
        intern = interned.setdefault
        distinct = [
            intern(value, value)
            for value in map(text.__getitem__, map(slice, [0] + ends, ends))
        ]
        # read unsigned, so a negative int32 code lands far out of range
        codes = np.frombuffer(reader.take(4 * n_rows), dtype="<u4")
        if n_rows and codes.max() >= n_distinct:
            raise TableError(
                f"{source} has a value code outside [0, {n_distinct}) (corrupted?)"
            )
        values = np.empty(n_distinct, dtype=object)
        values[:] = distinct
        columns.append(values[codes].tolist())
    if reader.remaining:
        raise TableError(
            f"{source} has {reader.remaining} trailing bytes after its last column "
            f"(oversized payload)"
        )
    return Table.from_str_columns(schema, columns)


class _Reader:
    """Bounds-checked sequential reads over one payload."""

    __slots__ = ("_view", "_pos", "_source")

    def __init__(self, view: memoryview, source: str):
        self._view = view
        self._pos = 0
        self._source = source

    @property
    def remaining(self) -> int:
        return len(self._view) - self._pos

    def take(self, size: int) -> memoryview:
        if size > self.remaining:
            raise TableError(
                f"{self._source} is truncated: needs {size} more bytes at offset "
                f"{self._pos}, has {self.remaining}"
            )
        start = self._pos
        self._pos += size
        return self._view[start : self._pos]

    def unpack(self, layout: struct.Struct) -> tuple:
        return layout.unpack(self.take(layout.size))

    def array(self, typecode: str, count: int) -> array:
        values = array(typecode)
        values.frombytes(self.take(count * values.itemsize))
        if _SWAP:
            values.byteswap()
        return values
