"""A mutable delta overlay over an immutable :class:`ShardedTable`.

The interactive edit loop (``set_cell`` → incremental re-check) runs on
a :class:`ShardOverlay`.  It presents the mutable-table interface — the
same accessors and ``set_cell`` as a
:class:`~repro.dataset.table.Table` — plus a ``version`` counter, while
the base data stays wherever its shard store keeps it (memory, spill
files, an object store).  Edits land in small per-shard dictionaries;
nothing is ever rewritten in the base store, a cell edit never reads
it, and a row id means the same row in the overlay, in every seal and
in the base.  The overlay keeps no history: the incremental detector
updates its own state from each mutation it makes, and re-seeds when
the ``version`` moved without it.

Every session op reads the dataset through :meth:`ShardOverlay.as_sharded`,
which seals the current overlay state back into a :class:`ShardedTable`
through :class:`OverlayShardStore` — once per overlay version, so what
one seal derives (profile, column encodings, pair groups) serves every
op until the next edit.  A re-check never reads the seal's shards: the
rule maintainer writes the seal's :meth:`OverlayShardStore.edited_cells`
into the previous seal's table-wide column encodings
(:meth:`~repro.kernels.encoder.ColumnEncoding.with_cells`).  Only a
cold read — an op on a seal with no encodings yet, such as the full
re-discovery after a failed re-check — loads shards: untouched ones
pass through *by identity* and touched ones are patched copy-on-read.
:meth:`ShardOverlay.close` releases the base's shard store.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Row, Table, _stringify
from repro.errors import TableError
from repro.sharding.sharded_table import ShardedTable
from repro.sharding.store import ShardStore


class ShardOverlay:
    """A row-addressable, mutable view layered over a sharded base.

    Its rows are the base's rows, at the same ids: an edit changes a
    cell, never the row layout.  The base :class:`ShardedTable` and its
    store are never mutated.
    """

    def __init__(self, base: ShardedTable):
        self._base = base
        self._schema: Schema = base.schema
        #: per-base-shard edits: (local row, column index) → value
        self._edits: List[Dict[Tuple[int, int], str]] = [
            {} for _ in range(base.n_shards)
        ]
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
        return self._base.n_rows

    @property
    def n_columns(self) -> int:
        return len(self._schema)

    @property
    def version(self) -> int:
        """Mutation counter, bumped by every :meth:`set_cell`; the seal
        and the incremental detector key on it."""
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
            f"edits={sum(map(len, self._edits))})"
        )

    def column_names(self) -> List[str]:
        return self._schema.names()

    # -- reads ----------------------------------------------------------------

    def cell(self, row: int, name: Union[str, Attribute]) -> str:
        shard_index, local_row = self._base.locate(row)
        index = self._schema.index_of(name)
        edited = self._edits[shard_index].get((local_row, index))
        if edited is not None:
            return edited
        shard = self._base.store.get(shard_index)
        return shard.column_ref(self._schema[index].name)[local_row]

    def row(self, row: int) -> Row:
        shard_index, local_row = self._base.locate(row)
        values = self._base.store.get(shard_index).row(local_row)
        edits = self._edits[shard_index]
        if not edits:
            return values
        return tuple(
            edits.get((local_row, j), value) for j, value in enumerate(values)
        )

    def iter_rows(self) -> Iterator[Row]:
        """Stream rows shard-major: one base shard resident at a time
        (spill/object stores stay bounded)."""
        names = self._schema.names()
        width = len(names)
        for shard_index, (_offset, shard) in enumerate(self._base.iter_shards()):
            edits = self._edits[shard_index]
            columns = [shard.column_ref(name) for name in names]
            for local in range(shard.n_rows):
                if edits:
                    yield tuple(
                        edits.get((local, j), columns[j][local]) for j in range(width)
                    )
                else:
                    yield tuple(column[local] for column in columns)

    def column(self, name: Union[str, Attribute]) -> List[str]:
        return self.column_ref(name)

    def column_ref(self, name: Union[str, Attribute]) -> Sequence[str]:
        """One column as a fresh list of string refs, built from the
        shards on each call (pointers into the shards and edits — the
        strings themselves are not copied)."""
        index = self._schema.index_of(name)
        name = self._schema[index].name
        values: List[str] = []
        for shard_index, (_offset, shard) in enumerate(self._base.iter_shards()):
            column = shard.column_ref(name)
            edits = self._edits[shard_index]
            if not edits:
                values.extend(column)
                continue
            values.extend(
                edits.get((local, index), value) for local, value in enumerate(column)
            )
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
        shard_index, local_row = self._base.locate(row)
        index = self._schema.index_of(name)
        self._edits[shard_index][(local_row, index)] = _stringify(value)
        self._version += 1

    # -- sealing back into a sharded view --------------------------------------

    def as_sharded(self) -> ShardedTable:
        """Seal the current overlay state into a :class:`ShardedTable`.

        Untouched base shards pass through by identity; touched shards
        are patched copy-on-read.  The seal is a true **snapshot**: the
        store captures the overlay's edits at construction, so mutating
        the overlay afterwards never changes an already-sealed view — a
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

    Shard layout: the base's shards in order, fully passed through when
    untouched and patched otherwise, so a row id means the same row in
    the seal and in the base.

    The per-shard edits are copied at construction.  The overlay may
    keep mutating afterwards; this store keeps serving the state it was
    sealed from.  A re-check does not read its shards:
    :meth:`edited_cells` lists the cells it overrides, and
    :meth:`extends` tells whether they turn an earlier seal's columns
    into this one's.  Patched shards are built only for a cold read
    (e.g. the full re-discovery after a failed re-check), on every
    :meth:`get` from the base store's shard: the seal keeps none, so
    the shards it holds resident are the base store's cache.  Closing a
    seal releases nothing: the base store's lifetime belongs to the
    overlay (:meth:`ShardOverlay.close`).
    """

    def __init__(self, overlay: ShardOverlay):
        super().__init__()
        self._schema = overlay.schema
        self._base = overlay.base
        #: snapshot of the per-shard edit maps (the dicts are copied; the
        #: cell strings are shared)
        self._edits: List[Dict[Tuple[int, int], str]] = [
            dict(edits) for edits in overlay._edits
        ]

    @property
    def n_shards(self) -> int:
        return len(self._edits)

    @property
    def base(self) -> ShardedTable:
        """The immutable base dataset this seal patches (see
        :meth:`extends`)."""
        return self._base

    def append(self, shard: Table) -> None:
        raise TableError("an overlay shard store is read-only; edit the overlay")

    def shard_row_counts(self) -> List[int]:
        return self._base.shard_row_counts()

    def edited_cells(self) -> Iterator[Tuple[int, str, str]]:
        """``(row, column name, value)`` for every cell this seal
        overrides.  ``row`` is the global row id — the base shard's
        offset plus the edit's local row — so the cells address the
        seal's table-wide column encodings directly, without reading a
        shard."""
        names = self._schema.names()
        for index, edits in enumerate(self._edits):
            offset = self._base.offset_of(index)
            for (local, j), value in edits.items():
                yield offset + local, names[j], value

    def extends(self, store: ShardStore) -> bool:
        """Whether writing :meth:`edited_cells` into ``store``'s columns
        yields this seal's columns: ``store`` is this seal's base store,
        or an earlier seal of the same base whose edited cells are all
        edited here too."""
        if store is self._base.store:
            return True
        return (
            isinstance(store, OverlayShardStore)
            and store._base is self._base
            and all(old.keys() <= new.keys() for old, new in zip(store._edits, self._edits))
        )

    def get(self, index: int) -> Table:
        if not self._edits[index]:
            return self._base.store.get(index)
        return self._patch_shard(index)

    def _patch_shard(self, index: int) -> Table:
        base_shard = self._base.store.get(index)
        edits = self._edits[index]
        columns: List[List[str]] = []
        for j, name in enumerate(self._schema.names()):
            source = base_shard.column_ref(name)
            columns.append(
                [edits.get((local, j), value) for local, value in enumerate(source)]
            )
        return Table(self._schema, columns)
