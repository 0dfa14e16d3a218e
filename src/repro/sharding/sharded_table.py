"""A table partitioned into row shards.

A :class:`ShardedTable` is the unit of work of the sharded execution
engine: an ordered sequence of per-shard
:class:`~repro.dataset.table.Table` objects whose vertical concatenation
is the logical dataset.  Row identity is global — shard ``i`` owns the
half-open global row range ``[offsets[i], offsets[i] + row count of
shard i)`` — so a column encoded shard by shard in shard order numbers
its rows exactly like the flat column.

Shard bytes live behind a pluggable
:class:`~repro.sharding.store.ShardStore`: the default in-memory store
keeps live ``Table`` objects, the spill-to-disk store decodes shard
files (:mod:`repro.sharding.codec`) on access with bounded resident
memory, and the object store reads checksummed shard objects in the
same format through an object client.  A plain shard list is wrapped
into an in-memory store, which adopts the tables it is given.

A sharded table is a **snapshot**: its shards are immutable by
contract.  The session never hands a store a shard it does not own
(:meth:`ShardedTable.from_table` cuts copies, CSV chunks are fresh),
and the interactive edit loop happens in a
:class:`~repro.sharding.overlay.ShardOverlay` delta layer whose every
edit batch seals a new view.  So what a view derives from all shards
cannot go stale, and it keeps it in three plain fields, each entry
built at most once per view: the profile, the column encodings
(:meth:`column_encodings`, which every session op reads instead of
the shards) and the pair groups of the rule pairs
(:func:`repro.sharding.detection.pair_groups`).  The rule maintainer
moves the entries that stay valid from one view to the next.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.dataset.profiling import TableProfile, profile_sharded
from repro.dataset.table import Table
from repro.errors import TableError
from repro.kernels.encoder import ColumnEncoding, encode_shards
from repro.sharding.stats import MergedPairGroups
from repro.sharding.store import InMemoryShardStore, ShardStore


class ShardedTable:
    """An ordered partition of one logical table into row shards."""

    def __init__(self, shards: Union[Sequence[Table], ShardStore]):
        if isinstance(shards, ShardStore):
            store = shards
        else:
            store = InMemoryShardStore(list(shards))
        if store.n_shards == 0:
            raise TableError("a ShardedTable needs at least one shard")
        self._store = store
        offsets: List[int] = []
        total = 0
        for n_rows in store.shard_row_counts():
            offsets.append(total)
            total += n_rows
        self._offsets = offsets
        self._n_rows = total
        #: the derived state, each entry built at most once (a snapshot
        #: never goes stale): the profile, column name → encoding, and
        #: (LHS, RHS) → the pair's groups
        self.table_profile: Optional[TableProfile] = None
        self.encodings: Dict[str, ColumnEncoding] = {}
        self.pair_groups: Dict[Tuple[str, str], MergedPairGroups] = {}

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_table(
        cls, table: Table, shard_rows: int, store: ShardStore = None
    ) -> "ShardedTable":
        """Partition an in-memory table into shards of ``shard_rows`` rows
        (the last shard may be shorter), each a copy, so later changes
        to ``table`` never reach the shards.  A zero-row table becomes
        one empty shard.  ``store`` chooses where the shards live
        (default: in memory)."""
        if shard_rows < 1:
            raise TableError(f"shard_rows must be >= 1, got {shard_rows}")
        if table.n_rows == 0:
            return cls.from_chunks([table.copy()], store=store)
        return cls.from_chunks(
            (
                table.take(range(start, min(start + shard_rows, table.n_rows)))
                for start in range(0, table.n_rows, shard_rows)
            ),
            store=store,
        )

    @classmethod
    def from_chunks(
        cls, chunks: Iterable[Table], store: ShardStore = None
    ) -> "ShardedTable":
        """Seal an iterable of chunk tables (e.g. from the chunked CSV
        reader) into a sharded table, feeding them into ``store`` one at
        a time — with a spill store, peak memory is one chunk.

        ``store`` must be empty: silently appending after shards from an
        earlier dataset would concatenate the two (pass a fresh store
        per upload, or construct ``ShardedTable(store)`` directly to
        adopt existing shards).
        """
        if store is None:
            store = InMemoryShardStore()
        elif store.n_shards:
            raise TableError(
                f"from_chunks needs an empty store, got one already holding "
                f"{store.n_shards} shard(s)"
            )
        for chunk in chunks:
            store.append(chunk)
        return cls(store)

    # -- shape ----------------------------------------------------------------

    @property
    def store(self) -> ShardStore:
        """The backing shard store."""
        return self._store

    def shard_row_counts(self) -> List[int]:
        """Per-shard row counts in shard order (no shard loads)."""
        return self._store.shard_row_counts()

    @property
    def n_shards(self) -> int:
        return self._store.n_shards

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_columns(self) -> int:
        return len(self._store.schema)

    def column_names(self) -> List[str]:
        return self._store.column_names()

    @property
    def schema(self):
        return self._store.schema

    def __len__(self) -> int:
        return self._n_rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedTable({self.column_names()}, n_rows={self._n_rows}, "
            f"n_shards={self.n_shards})"
        )

    # -- row addressing --------------------------------------------------------

    def offset_of(self, shard_index: int) -> int:
        """The global row id of a shard's first row."""
        return self._offsets[shard_index]

    def locate(self, global_row: int) -> Tuple[int, int]:
        """Map a global row id to ``(shard index, local row)``."""
        if not 0 <= global_row < self._n_rows:
            raise TableError(
                f"row index {global_row} out of range [0, {self._n_rows})"
            )
        shard_index = bisect.bisect_right(self._offsets, global_row) - 1
        return shard_index, global_row - self._offsets[shard_index]

    def iter_shards(self) -> Iterator[Tuple[int, Table]]:
        """Yield ``(global offset, shard)`` pairs in row order."""
        for index, offset in enumerate(self._offsets):
            yield offset, self._store.get(index)

    # -- derived state -----------------------------------------------------------

    def profile(self) -> TableProfile:
        """The logical table's profile, built once from every column's
        encoding (one shard-major pass); session profiling and discovery
        share it, and discovery mines the same encodings."""
        if self.table_profile is None:
            self.table_profile = profile_sharded(self)
        return self.table_profile

    def column_encodings(self, names: Sequence[str]) -> Dict[str, ColumnEncoding]:
        """The factorized encodings of the named columns.

        The ones not built yet are built together in one pass over the
        shards (:func:`~repro.kernels.encoder.encode_shards`) and kept in
        :attr:`encodings`.
        """
        names = list(dict.fromkeys(names))
        missing = [name for name in names if name not in self.encodings]
        if missing:
            self.encodings.update(
                encode_shards((shard for _offset, shard in self.iter_shards()), missing)
            )
        return {name: self.encodings[name] for name in names}
