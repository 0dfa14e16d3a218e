"""A mutable delta overlay over an immutable :class:`ShardedTable`.

The interactive edit loop (``set_cell`` / ``append_row`` /
``delete_row`` → incremental re-check) runs on a :class:`ShardOverlay`.
It presents the mutable-table interface — the same accessors and
mutation methods as a :class:`~repro.dataset.table.Table` — plus a
``version`` counter and a structured delta log (:class:`CellEdit`,
:class:`RowAppend`, :class:`RowDelete`), while the base data stays
wherever its shard store keeps it (memory, spill files, an object
store).  Edits land in small per-shard dictionaries, appends in a tail
column set, deletions in a sorted tombstone list; nothing is ever
rewritten in the base store.  The incremental detector replays the
delta log to patch its state forward.

Every session op reads the dataset through :meth:`ShardOverlay.as_sharded`,
which seals the current overlay state back into a :class:`ShardedTable`
through :class:`OverlayShardStore` — once per overlay version, so the
merged artifacts of one seal (profile, column encodings) serve every op
until the next edit.  A re-check never reads the seal's shards: the
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
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Row, Table, _stringify
from repro.errors import TableError
from repro.sharding.sharded_table import ShardedTable
from repro.sharding.store import ShardStore


# -- mutation deltas ----------------------------------------------------------
#
# Every overlay mutation bumps ``ShardOverlay.version`` *and* appends a
# structured delta record, so the incremental detector can patch its
# state forward instead of re-seeding.  ``delta.version`` is the overlay
# version *after* the mutation was applied.


@dataclass(frozen=True)
class CellEdit:
    """One cell overwritten (:meth:`ShardOverlay.set_cell`)."""

    version: int
    row: int
    column: str
    old: str
    new: str


@dataclass(frozen=True)
class RowAppend:
    """One row appended (:meth:`ShardOverlay.append_row`)."""

    version: int
    row: int
    values: Row


@dataclass(frozen=True)
class RowDelete:
    """One row removed (:meth:`ShardOverlay.delete_row`).

    ``values`` holds the removed row; rows after ``row`` shift down by
    one.
    """

    version: int
    row: int
    values: Row


TableDelta = Union[CellEdit, RowAppend, RowDelete]

#: How many deltas an overlay retains.  Consumers asking for history
#: older than the retained window get ``None`` and must rebuild.
MAX_DELTA_LOG = 4096


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
        #: per-base-shard count of applied edits (staleness key material)
        self._edit_counts: List[int] = [0] * base.n_shards
        #: deleted *base* global rows, sorted (tombstones)
        self._deleted: List[int] = []
        #: appended rows, columnar
        self._tail_columns: List[List[str]] = [[] for _ in self._schema.names()]
        self._tail_rows = 0
        #: count of tail mutations (appends, tail edits, tail deletes) —
        #: staleness key material for the sealed tail shard, so base-only
        #: edit batches do not dirty the tail across seals
        self._tail_mutations = 0
        self._version = 0
        self._delta_log: List[TableDelta] = []
        self._log_floor = 0
        #: column-index → (version at build, merged column values)
        self._column_cache: Dict[int, Tuple[int, List[str]]] = {}
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
        """Mutation counter — same contract as :attr:`Table.version`."""
        return self._version

    @property
    def is_touched(self) -> bool:
        """Whether any mutation has been applied since construction."""
        return self._version > 0

    def deltas_since(self, version: int) -> Optional[Tuple[TableDelta, ...]]:
        """The deltas applied after ``version``, oldest first.

        Returns an empty tuple when the overlay is already at ``version``
        and ``None`` when the requested history is unavailable (a future
        version, or older than the retained :data:`MAX_DELTA_LOG` window)
        — callers must then rebuild their derived state from scratch.
        """
        if version > self._version or version < self._log_floor:
            return None
        n = self._version - version
        if n == 0:
            return ()
        return tuple(self._delta_log[-n:])

    def _record_delta(self, delta: TableDelta) -> None:
        self._version += 1
        self._delta_log.append(delta)
        if len(self._delta_log) > MAX_DELTA_LOG:
            # Amortized trim: drop the oldest half in one slice.
            drop = len(self._delta_log) - MAX_DELTA_LOG // 2
            del self._delta_log[:drop]
            self._log_floor += drop

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardOverlay({self.column_names()}, n_rows={self.n_rows}, "
            f"edits={sum(self._edit_counts)}, deletes={len(self._deleted)}, "
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

    def row_dict(self, row: int) -> Dict[str, str]:
        return dict(zip(self._schema.names(), self.row(row)))

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
        return list(self.column_ref(name))

    def column_ref(self, name: Union[str, Attribute]) -> Sequence[str]:
        """One logical column as a list of string refs, cached per
        overlay version (pointers into the resident shards/edits — the
        strings themselves are not copied)."""
        index = self._schema.index_of(name)
        cached = self._column_cache.get(index)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        values = self._build_column(index)
        self._column_cache[index] = (self._version, values)
        return values

    def _build_column(self, index: int) -> List[str]:
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
            [list(self.column_ref(name)) for name in self._schema.names()],
        )

    # -- in-place mutation (the Table protocol) --------------------------------

    def set_cell(self, row: int, name: Union[str, Attribute], value: object) -> None:
        """Destructively overwrite one cell — lands in the overlay, never
        in the base store."""
        self._check_row(row)
        index = self._schema.index_of(name)
        old = self._cell_by_index(row, index)
        new = _stringify(value)
        if new == old:
            # No-op write: same contract as Table.set_cell — don't bump
            # the version or grow the delta log.
            return
        tail_row = row - self._n_base_live
        if tail_row >= 0:
            self._tail_columns[index][tail_row] = new
            self._tail_mutations += 1
        else:
            shard_index, local_row = self._base.locate(self._base_row(row))
            self._edits[shard_index][(local_row, index)] = new
            self._edit_counts[shard_index] += 1
        self._record_delta(
            CellEdit(
                version=self._version + 1,
                row=row,
                column=self._schema[index].name,
                old=old,
                new=new,
            )
        )

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
        self._tail_mutations += 1
        row = self.n_rows - 1
        self._record_delta(
            RowAppend(version=self._version + 1, row=row, values=tuple(row_values))
        )
        return row

    def delete_row(self, row: int) -> Row:
        """Destructively remove one logical row; returns its values.

        Base rows become tombstones (the store is untouched); tail rows
        are removed outright.  Rows after ``row`` shift down by one, as
        with :meth:`Table.delete_row`.
        """
        self._check_row(row)
        removed = self.row(row)
        tail_row = row - self._n_base_live
        if tail_row >= 0:
            for column in self._tail_columns:
                del column[tail_row]
            self._tail_rows -= 1
            self._tail_mutations += 1
        else:
            insort(self._deleted, self._base_row(row))
        self._record_delta(
            RowDelete(version=self._version + 1, row=row, values=removed)
        )
        return removed

    # -- sealing back into a sharded view --------------------------------------

    def as_sharded(self) -> ShardedTable:
        """Seal the current overlay state into a :class:`ShardedTable`.

        Untouched base shards pass through by identity (their per-shard
        cached statistics stay valid); touched shards are patched
        copy-on-read; appended rows become one extra tail shard.  The
        seal is a true **snapshot**: the store captures the overlay's
        edits, tombstones and tail at construction, so mutating the
        overlay afterwards never changes an already-sealed view — a
        later seal lists every cell an earlier one overrides among its
        own :meth:`OverlayShardStore.edited_cells`, which is what the
        rule maintainer patches the earlier seal's encodings with.

        The seal is cached per overlay version: until the next mutation
        every call returns the same view, merged-artifact caches intact.
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
        self._column_cache.clear()
        self._base.store.close()


class OverlayShardStore(ShardStore):
    """Read-only :class:`ShardStore` **snapshot** of a :class:`ShardOverlay`.

    Shard layout: the base's shards in order (fully passed through when
    untouched, patched otherwise), plus one tail shard when rows were
    appended.  Fully-deleted base shards stay in the layout as zero-row
    shards so shard indexes remain aligned with the base.

    All overlay state — per-shard edits, tombstones, tail columns — is
    copied at construction.  The overlay may keep mutating afterwards;
    this store keeps serving the state it was sealed from, and its
    :meth:`versions` are stable.  A re-check does not read its shards:
    :meth:`edited_cells` lists the cells it overrides, and
    :meth:`extends` tells whether they turn an earlier seal's columns
    into this one's.  Patched shards are built only for a cold read
    (e.g. the full re-discovery after appends or deletes).
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
        self._edit_counts: List[int] = list(overlay._edit_counts)
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
        self._tail_mutations = overlay._tail_mutations
        if self._has_tail:
            self._row_counts.append(self._tail_rows)
        #: patched shards already built, by shard index
        self._patched: Dict[int, Table] = {}
        self._versions = self._compute_versions()

    @property
    def n_shards(self) -> int:
        return len(self._row_counts)

    @property
    def base(self) -> ShardedTable:
        """The immutable base dataset this seal patches.  Two sealed
        views are version-comparable exactly when they share a base."""
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
            tail = self._patched.get(index)
            if tail is None:
                tail = Table(
                    self._schema,
                    [list(column) for column in self._tail_columns],
                )
                self._patched[index] = tail
            return tail
        if self._is_passthrough(index):
            return self._base.store.get(index)
        patched = self._patched.get(index)
        if patched is None:
            patched = self._patch_shard(index)
            self._patched[index] = patched
        return patched

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

    def _compute_versions(self) -> Tuple[int, ...]:
        base_versions = self._base.versions()
        versions: List[int] = []
        for index in range(len(base_versions)):
            if self._is_passthrough(index):
                versions.append(base_versions[index])
            else:
                versions.append(
                    hash(
                        (
                            base_versions[index],
                            self._edit_counts[index],
                            len(self._deleted_locals[index]),
                        )
                    )
                )
        if self._has_tail:
            # keyed on the tail's own mutation count: two seals whose
            # edit batches touched only base shards agree on the tail
            versions.append(hash(("tail", self._tail_rows, self._tail_mutations)))
        return tuple(versions)

    def versions(self) -> Tuple[int, ...]:
        return self._versions

    def close(self) -> None:
        # The base store's lifetime belongs to the overlay
        # (ShardOverlay.close); a sealed view never closes it.
        self._patched.clear()
