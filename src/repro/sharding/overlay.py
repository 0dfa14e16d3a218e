"""A mutable delta overlay over an immutable :class:`ShardedTable`.

The interactive edit loop (``set_cell`` / ``append_row`` /
``delete_row`` → incremental re-check) runs on a :class:`ShardOverlay`.
It presents the mutable-table interface — the same accessors and
mutation methods as a :class:`~repro.dataset.table.Table` — plus a
``version`` counter, while the base data stays wherever its shard store
keeps it (memory, spill files, an object store).  Edits land in small
per-shard dictionaries, appends in a tail column set, deletions in a
sorted tombstone list; nothing is ever rewritten in the base store, and
a cell edit never reads it.  The overlay keeps no history: the
incremental detector updates its own state from each mutation it makes,
and re-seeds when the ``version`` moved without it.

Every session op reads the dataset through :meth:`ShardOverlay.as_sharded`,
which seals the current overlay state back into a :class:`ShardedTable`
through :class:`OverlayShardStore` — once per overlay version, so what
one seal derives (profile, column encodings, pair groups) serves every
op until the next edit.  A re-check never reads the seal's shards: the
rule maintainer writes the seal's :meth:`OverlayShardStore.edited_cells`
into the previous seal's table-wide column encodings
(:meth:`~repro.kernels.encoder.ColumnEncoding.with_cells`).  Only a
cold read — an op on a seal with no encodings yet, such as the full
re-discovery after appends or deletes — loads shards: untouched ones
pass through *by identity* and touched ones are patched copy-on-read.
:meth:`ShardOverlay.close` releases the base's shard store.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Row, Table, _stringify
from repro.errors import TableError
from repro.sharding.sharded_table import ShardedTable
from repro.sharding.store import ShardStore


class ShardOverlay:
    """A row-addressable, mutable view layered over a sharded base.

    Logical row order is the base's live rows (base order, minus
    tombstoned deletions) followed by appended tail rows.  The base
    :class:`ShardedTable` and its store are never mutated.
    """

    def __init__(self, base: ShardedTable):
        self._base = base
        self._schema: Schema = base.schema
        #: per-base-shard edits: (local row, column index) → value
        self._edits: List[Dict[Tuple[int, int], str]] = [
            {} for _ in range(base.n_shards)
        ]
        #: deleted *base* global rows, sorted (tombstones)
        self._deleted: List[int] = []
        #: appended rows, columnar
        self._tail_columns: List[List[str]] = [[] for _ in self._schema.names()]
        self._tail_rows = 0
        self._version = 0
        #: (version at seal, sealed view) of the last :meth:`as_sharded`
        self._seal: Optional[Tuple[int, ShardedTable]] = None

    # -- basic accessors -----------------------------------------------------

    @property
    def base(self) -> ShardedTable:
        """The immutable sharded base this overlay reads through."""
        return self._base

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def n_rows(self) -> int:
        return self._base.n_rows - len(self._deleted) + self._tail_rows

    @property
    def n_columns(self) -> int:
        return len(self._schema)

    @property
    def version(self) -> int:
        """Mutation counter, bumped by every :meth:`set_cell`,
        :meth:`append_row` and :meth:`delete_row`; the seal and the
        incremental detector key on it."""
        return self._version

    @property
    def is_touched(self) -> bool:
        """Whether any mutation has been applied since construction."""
        return self._version > 0

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardOverlay({self.column_names()}, n_rows={self.n_rows}, "
            f"edits={sum(map(len, self._edits))}, deletes={len(self._deleted)}, "
            f"appends={self._tail_rows})"
        )

    def column_names(self) -> List[str]:
        return self._schema.names()

    # -- row mapping ----------------------------------------------------------

    @property
    def _n_base_live(self) -> int:
        return self._base.n_rows - len(self._deleted)

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.n_rows:
            raise TableError(f"row index {row} out of range [0, {self.n_rows})")

    def _base_row(self, row: int) -> int:
        """Map a live view row (``< _n_base_live``) to its base global row,
        skipping tombstones."""
        candidate = row
        while True:
            shifted = row + bisect_right(self._deleted, candidate)
            if shifted == candidate:
                return candidate
            candidate = shifted

    # -- reads ----------------------------------------------------------------

    def cell(self, row: int, name: Union[str, Attribute]) -> str:
        self._check_row(row)
        return self._cell_by_index(row, self._schema.index_of(name))

    def _cell_by_index(self, row: int, index: int) -> str:
        tail_row = row - self._n_base_live
        if tail_row >= 0:
            return self._tail_columns[index][tail_row]
        base_row = self._base_row(row)
        shard_index, local_row = self._base.locate(base_row)
        edited = self._edits[shard_index].get((local_row, index))
        if edited is not None:
            return edited
        shard = self._base.store.get(shard_index)
        return shard.column_ref(self._schema[index].name)[local_row]

    def row(self, row: int) -> Row:
        self._check_row(row)
        tail_row = row - self._n_base_live
        if tail_row >= 0:
            return tuple(col[tail_row] for col in self._tail_columns)
        base_row = self._base_row(row)
        shard_index, local_row = self._base.locate(base_row)
        values = self._base.store.get(shard_index).row(local_row)
        edits = self._edits[shard_index]
        if not edits:
            return values
        return tuple(
            edits.get((local_row, j), value) for j, value in enumerate(values)
        )

    def iter_rows(self) -> Iterator[Row]:
        """Stream logical rows shard-major: one base shard resident at a
        time (spill/object stores stay bounded), then the tail."""
        names = self._schema.names()
        width = len(names)
        deleted = set(self._deleted)
        for shard_index, (offset, shard) in enumerate(self._base.iter_shards()):
            edits = self._edits[shard_index]
            columns = [shard.column_ref(name) for name in names]
            for local in range(shard.n_rows):
                if offset + local in deleted:
                    continue
                if edits:
                    yield tuple(
                        edits.get((local, j), columns[j][local]) for j in range(width)
                    )
                else:
                    yield tuple(column[local] for column in columns)
        for tail_row in range(self._tail_rows):
            yield tuple(column[tail_row] for column in self._tail_columns)

    def column(self, name: Union[str, Attribute]) -> List[str]:
        return self.column_ref(name)

    def column_ref(self, name: Union[str, Attribute]) -> Sequence[str]:
        """One logical column as a fresh list of string refs, built from
        the shards on each call (pointers into the shards and edits —
        the strings themselves are not copied)."""
        index = self._schema.index_of(name)
        name = self._schema[index].name
        values: List[str] = []
        for shard_index, (offset, shard) in enumerate(self._base.iter_shards()):
            column = shard.column_ref(name)
            edits = self._edits[shard_index]
            start = bisect_left(self._deleted, offset)
            stop = bisect_left(self._deleted, offset + shard.n_rows, lo=start)
            if start == stop and not edits:
                values.extend(column)
                continue
            deleted = set(self._deleted[start:stop])
            for local, value in enumerate(column):
                if offset + local in deleted:
                    continue
                values.append(edits.get((local, index), value))
        values.extend(self._tail_columns[index])
        return values

    def materialize(self) -> Table:
        """Build a monolithic :class:`Table` of the current state (cell
        refs shared with the shards; used only for explicitly eager
        runs)."""
        return Table(
            self._schema,
            [self.column_ref(name) for name in self._schema.names()],
        )

    # -- in-place mutation (the Table protocol) --------------------------------

    def set_cell(self, row: int, name: Union[str, Attribute], value: object) -> None:
        """Destructively overwrite one cell — lands in the overlay, never
        in the base store.

        The replaced cell is never read, so every write bumps
        :attr:`version`, a write of the value the cell already holds
        too (unlike :meth:`Table.set_cell`)."""
        self._check_row(row)
        index = self._schema.index_of(name)
        new = _stringify(value)
        tail_row = row - self._n_base_live
        if tail_row >= 0:
            self._tail_columns[index][tail_row] = new
        else:
            shard_index, local_row = self._base.locate(self._base_row(row))
            self._edits[shard_index][(local_row, index)] = new
        self._version += 1

    def append_row(
        self, values: Union[Sequence[object], Mapping[str, object]]
    ) -> int:
        """Destructively append one row to the overlay tail; returns its
        logical row index."""
        if isinstance(values, str):
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
        for column, value in zip(self._tail_columns, row_values):
            column.append(value)
        self._tail_rows += 1
        self._version += 1
        return self.n_rows - 1

    def delete_row(self, row: int) -> None:
        """Destructively remove one logical row.

        Base rows become tombstones (the store is untouched, and no
        shard is read); tail rows are removed outright.  Rows after
        ``row`` shift down by one, as with :meth:`Table.delete_row`.
        """
        self._check_row(row)
        tail_row = row - self._n_base_live
        if tail_row >= 0:
            for column in self._tail_columns:
                del column[tail_row]
            self._tail_rows -= 1
        else:
            insort(self._deleted, self._base_row(row))
        self._version += 1

    # -- sealing back into a sharded view --------------------------------------

    def as_sharded(self) -> ShardedTable:
        """Seal the current overlay state into a :class:`ShardedTable`.

        Untouched base shards pass through by identity; touched shards
        are patched copy-on-read; appended rows become one extra tail
        shard.  The seal is a true **snapshot**: the store captures the overlay's
        edits, tombstones and tail at construction, so mutating the
        overlay afterwards never changes an already-sealed view — a
        later seal lists every cell an earlier one overrides among its
        own :meth:`OverlayShardStore.edited_cells`, which is what the
        rule maintainer patches the earlier seal's encodings with.

        The seal is kept per overlay version: until the next mutation
        every call returns the same view, with everything it derived.
        """
        if not self.is_touched:
            return self._base
        if self._seal is None or self._seal[0] != self._version:
            self._seal = (self._version, ShardedTable(OverlayShardStore(self)))
        return self._seal[1]

    def close(self) -> None:
        """Release the base's shard store (spill files, object roots).
        Idempotent; the overlay is unusable afterwards."""
        self._seal = None
        self._base.store.close()


class OverlayShardStore(ShardStore):
    """Read-only :class:`ShardStore` **snapshot** of a :class:`ShardOverlay`.

    Shard layout: the base's shards in order (fully passed through when
    untouched, patched otherwise), plus one tail shard when rows were
    appended.  Fully-deleted base shards stay in the layout as zero-row
    shards so shard indexes remain aligned with the base.

    All overlay state — per-shard edits, tombstones, tail columns — is
    copied at construction.  The overlay may keep mutating afterwards;
    this store keeps serving the state it was sealed from.  A re-check
    does not read its shards:
    :meth:`edited_cells` lists the cells it overrides, and
    :meth:`extends` tells whether they turn an earlier seal's columns
    into this one's.  Patched shards are built only for a cold read
    (e.g. the full re-discovery after appends or deletes), on every
    :meth:`get` from the base store's shard: the seal keeps none, so
    the shards it holds resident are the base store's cache.  Closing a
    seal releases nothing: the base store's lifetime belongs to the
    overlay (:meth:`ShardOverlay.close`).
    """

    def __init__(self, overlay: ShardOverlay):
        super().__init__()
        self._schema = overlay.schema
        base = overlay.base
        self._base = base
        #: snapshot of the per-shard edit maps (the dicts are copied; the
        #: cell strings are shared)
        self._edits: List[Dict[Tuple[int, int], str]] = [
            dict(edits) for edits in overlay._edits
        ]
        #: snapshot of the tombstones, as per-shard *local* row sets
        self._deleted_locals: List[frozenset] = []
        for index, count in enumerate(base.shard_row_counts()):
            offset = base.offset_of(index)
            start = bisect_left(overlay._deleted, offset)
            stop = bisect_left(overlay._deleted, offset + count, lo=start)
            self._deleted_locals.append(
                frozenset(g - offset for g in overlay._deleted[start:stop])
            )
        self._row_counts: List[int] = [
            count - len(self._deleted_locals[i])
            for i, count in enumerate(base.shard_row_counts())
        ]
        self._tail_rows = overlay._tail_rows
        self._has_tail = self._tail_rows > 0
        self._tail_columns: Optional[List[List[str]]] = (
            [list(column) for column in overlay._tail_columns]
            if self._has_tail
            else None
        )
        if self._has_tail:
            self._row_counts.append(self._tail_rows)

    @property
    def n_shards(self) -> int:
        return len(self._row_counts)

    @property
    def base(self) -> ShardedTable:
        """The immutable base dataset this seal patches (see
        :meth:`extends`)."""
        return self._base

    def append(self, shard: Table) -> None:
        raise TableError("an overlay shard store is read-only; edit the overlay")

    def shard_row_counts(self) -> List[int]:
        return list(self._row_counts)

    def _is_passthrough(self, index: int) -> bool:
        return not self._edits[index] and not self._deleted_locals[index]

    def edited_cells(self) -> Iterator[Tuple[int, str, str]]:
        """``(row, column name, value)`` for every cell this seal
        overrides: each base-shard edit on a live row and every tail
        cell.  ``row`` is the seal-global row id — the base shard's seal
        offset plus the edit's local row minus the tombstones before it
        — so the cells address the seal's table-wide column encodings
        directly, without reading a shard."""
        names = self._schema.names()
        offset = 0
        for index, edits in enumerate(self._edits):
            deleted = self._deleted_locals[index]
            gone = sorted(deleted)
            for (local, j), value in edits.items():
                if local not in deleted:
                    yield offset + local - bisect_left(gone, local), names[j], value
            offset += self._row_counts[index]
        if self._has_tail:
            for name, column in zip(names, self._tail_columns):
                for tail_row, value in enumerate(column):
                    yield offset + tail_row, name, value

    def extends(self, store: ShardStore) -> bool:
        """Whether writing :meth:`edited_cells` into ``store``'s columns
        yields this seal's columns.

        True when ``store`` holds the same rows at the same ids — the
        same shard row counts, and so no appends or deletes in between —
        and every cell it overrides is overridden here too: ``store`` is
        this seal's base store, or an earlier seal of the same base with
        the same tombstones and a subset of this seal's edits.  Tail
        cells are all in :meth:`edited_cells`, so the tails need only
        agree in length.
        """
        if store.shard_row_counts() != self._row_counts:
            return False
        if store is self._base.store:
            return True  # equal counts: no tombstones and no tail here
        return (
            isinstance(store, OverlayShardStore)
            and store._base is self._base
            and store._deleted_locals == self._deleted_locals
            and all(old.keys() <= new.keys() for old, new in zip(store._edits, self._edits))
        )

    def get(self, index: int) -> Table:
        if self._has_tail and index == len(self._row_counts) - 1:
            return Table(self._schema, [list(column) for column in self._tail_columns])
        if self._is_passthrough(index):
            return self._base.store.get(index)
        return self._patch_shard(index)

    def _patch_shard(self, index: int) -> Table:
        base_shard = self._base.store.get(index)
        edits = self._edits[index]
        deleted = self._deleted_locals[index]
        names = self._schema.names()
        columns: List[List[str]] = []
        for j, name in enumerate(names):
            source = base_shard.column_ref(name)
            columns.append(
                [
                    edits.get((local, j), value)
                    for local, value in enumerate(source)
                    if local not in deleted
                ]
            )
        return Table(self._schema, columns)
