"""A table partitioned into row shards.

A :class:`ShardedTable` is the unit of work of the sharded execution
engine: an ordered sequence of per-shard
:class:`~repro.dataset.table.Table` objects whose vertical concatenation
is the logical dataset.  Row identity is global — shard ``i`` owns the
half-open global row range ``[offsets[i], offsets[i] + shards[i].n_rows)``
— so a column encoded shard by shard in shard order numbers its rows
exactly like the flat column.

Shard bytes live behind a pluggable
:class:`~repro.sharding.store.ShardStore`: the default in-memory store
keeps live ``Table`` objects, the spill-to-disk store decodes shard
files (:mod:`repro.sharding.codec`) on access with bounded resident
memory, and the object store reads checksummed shard objects in the
same format through an object client.  A plain shard list is wrapped
into an in-memory store transparently.

Everything a session op derives from all shards — the profile, column
encodings, merged statistics — is a *merged artifact* cached here and
keyed by the shard versions, so each op reads every shard at most once
and a later op over unchanged shards reuses the result.

Shards are immutable by contract: the sharded engines cache merged
statistics keyed by the shards' mutation versions, and the interactive
edit loop happens in a :class:`~repro.sharding.overlay.ShardOverlay`
delta layer over the untouched store (see ``AnmatSession``).  A shard
mutated behind our back is detected via :meth:`versions` and merged
caches are invalidated, but no partial update is attempted.
"""

from __future__ import annotations

import bisect
from typing import Dict, Hashable, Iterable, Iterator, List, Sequence, Tuple, Union

from repro.dataset.profiling import TableProfile, profile_sharded
from repro.dataset.table import Table
from repro.errors import TableError
from repro.kernels.encoder import ColumnEncoding, encode_shards
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
        #: merged-artifact cache: key → (shard versions at build time, artifact)
        self._merged_cache: Dict[Hashable, Tuple[Tuple[int, ...], object]] = {}

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_table(
        cls, table: Table, shard_rows: int, store: ShardStore = None
    ) -> "ShardedTable":
        """Partition an in-memory table into shards of ``shard_rows`` rows
        (the last shard may be shorter).  A zero-row table becomes one
        empty shard.  ``store`` chooses where the shards live (default:
        in memory)."""
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

    @property
    def shards(self) -> List[Table]:
        """All shards, materialized (loads every shard on a disk store —
        prefer :meth:`iter_shards` or :meth:`shard_row_counts`)."""
        return [self._store.get(i) for i in range(self._store.n_shards)]

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

    def global_row(self, shard_index: int, local_row: int) -> int:
        return self._offsets[shard_index] + local_row

    def locate(self, global_row: int) -> Tuple[int, int]:
        """Map a global row id to ``(shard index, local row)``."""
        if not 0 <= global_row < self._n_rows:
            raise TableError(
                f"row index {global_row} out of range [0, {self._n_rows})"
            )
        shard_index = bisect.bisect_right(self._offsets, global_row) - 1
        return shard_index, global_row - self._offsets[shard_index]

    def row(self, global_row: int) -> Tuple[str, ...]:
        """One logical row as a tuple of values, in schema order."""
        shard_index, local_row = self.locate(global_row)
        return self._store.get(shard_index).row(local_row)

    def cell(self, global_row: int, name: str) -> str:
        """The value of one logical cell."""
        shard_index, local_row = self.locate(global_row)
        return self._store.get(shard_index).cell(local_row, name)

    def iter_shards(self) -> Iterator[Tuple[int, Table]]:
        """Yield ``(global offset, shard)`` pairs in row order."""
        for index, offset in enumerate(self._offsets):
            yield offset, self._store.get(index)

    # -- merged views -----------------------------------------------------------

    def column_concat(self, name: str) -> List[str]:
        """One logical column as a single list (string refs, no copies of
        the values themselves), cached until a shard version changes."""
        return self.merged_artifact(
            ("column_concat", name),
            lambda: [
                value
                for _offset, shard in self.iter_shards()
                for value in shard.column_ref(name)
            ],
        )

    def profile(self) -> TableProfile:
        """The logical table's profile, built from every column's
        encoding (one shard-major pass) and cached until a shard version
        changes (session profiling and discovery share it, and discovery
        mines the same encodings)."""
        return self.merged_artifact(("profile",), lambda: profile_sharded(self))

    def column_encodings(self, names: Sequence[str]) -> Dict[str, ColumnEncoding]:
        """The factorized encodings of the named columns.

        Each is cached under ``("column_encoding", name)`` until a shard
        version changes; the ones not cached yet are built together in
        one pass over the shards (:func:`~repro.kernels.encoder.encode_shards`).
        """
        encodings = {}
        missing = []
        for name in dict.fromkeys(names):
            encoding = self.peek_merged_artifact(("column_encoding", name))
            if encoding is None:
                missing.append(name)
            else:
                encodings[name] = encoding
        if missing:
            built = encode_shards((shard for _offset, shard in self.iter_shards()), missing)
            for name, encoding in built.items():
                self.prime_merged_artifact(("column_encoding", name), encoding)
            encodings.update(built)
        return encodings

    def to_table(self) -> Table:
        """Materialize the logical table (cell refs are shared with the
        shards; the column lists are fresh)."""
        names = self.column_names()
        return Table(self.schema, [self.column_concat(name) for name in names])

    # -- merged-artifact caching -------------------------------------------------

    def versions(self) -> Tuple[int, ...]:
        """The shards' mutation counters — the staleness key for every
        merged artifact."""
        return self._store.versions()

    def merged_artifact(self, key: Hashable, build) -> object:
        """A cached cross-shard artifact, rebuilt when any shard mutated.

        Merged statistics (concatenated columns, column encodings, merged
        pair groups) are pure functions of the shard contents;
        caching them here lets repeated discovery/detection runs over the
        same sharded table skip the merge entirely.
        """
        versions = self.versions()
        entry = self._merged_cache.get(key)
        if entry is not None and entry[0] == versions:
            return entry[1]
        artifact = build()
        self._merged_cache[key] = (versions, artifact)
        return artifact

    def peek_merged_artifact(self, key: Hashable):
        """A cached merged artifact if present *and* still valid for the
        current shard versions, else ``None`` — never builds."""
        entry = self._merged_cache.get(key)
        if entry is not None and entry[0] == self.versions():
            return entry[1]
        return None

    def merged_artifact_keys(self, prefix: str) -> List[Hashable]:
        """The cached artifact keys under one prefix (valid or not)."""
        return [
            key
            for key in self._merged_cache
            if isinstance(key, tuple) and key and key[0] == prefix
        ]

    def prime_merged_artifact(self, key: Hashable, artifact: object) -> None:
        """Install a merged artifact computed elsewhere, keyed to the
        current shard versions.

        The rule maintainer uses this to hand a freshly sealed view every
        column encoding — the previous view's for clean columns, patched
        from the seal's edited cells for changed ones — the pair groups
        over clean columns, and the profile, so a re-check reads no
        shard.  The caller guarantees the artifact equals what
        :meth:`merged_artifact`'s build would produce.
        """
        self._merged_cache[key] = (self.versions(), artifact)

    def drop_merged_artifacts(self, *prefixes: str, keep: Iterable[Hashable] = ()) -> int:
        """Evict cached merged artifacts by key prefix (all of them when
        no prefix is given), except the keys in ``keep``, and return how
        many were dropped.

        Purely a memory release — artifacts are rebuilt on demand.  The
        session path drops the O(n) discovery artifacts that detection
        does not read (token triples, encodings of non-rule columns)
        once mining finishes, so they are not carried through detection
        and the edit loop.
        """
        keep = set(keep)
        doomed = [
            key
            for key in self._merged_cache
            if key not in keep
            and (not prefixes or (isinstance(key, tuple) and key and key[0] in prefixes))
        ]
        for key in doomed:
            del self._merged_cache[key]
        return len(doomed)
