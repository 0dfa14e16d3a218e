"""Pluggable shard storage behind :class:`ShardedTable`.

A :class:`ShardStore` owns the per-shard :class:`~repro.dataset.table.Table`
objects of one sharded dataset.  The sharded engines never hold shard
lists themselves — they address shards through the store, so the
*where* of shard bytes (process memory, local disk, an object store) is
swappable without touching discovery/detection.

Two implementations live here (the object store is
:mod:`repro.sharding.object_store`):

* :class:`InMemoryShardStore` — live ``Table`` objects in a list; it
  adopts the tables it is given.
* :class:`SpillToDiskShardStore` — shards are written to files in a
  spill directory as they are appended (dictionary-encoded by
  :mod:`repro.sharding.codec`) and decoded on access, with a small LRU
  of recently loaded shards; resident memory is bounded by the LRU size
  no matter how many shards the dataset has.

Shards are immutable by contract (see :class:`ShardedTable`): a store
owns every shard appended to it, and nothing writes one afterwards,
which is what makes the spill round-trip safe and lets a sharded view
keep what it derives for its whole life.

Every store validates on :meth:`~ShardStore.append` that all shards
share one schema, so a half-built store can never be sealed into an
inconsistent :class:`ShardedTable`.
"""

from __future__ import annotations

import tempfile
from abc import ABC, abstractmethod
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.dataset.schema import Schema
from repro.dataset.table import Table
from repro.errors import TableError
from repro.sharding.codec import SHARD_SUFFIX, decode_shard, encode_shard


class ShardStore(ABC):
    """Ordered, append-only storage for the shards of one dataset."""

    def __init__(self) -> None:
        self._schema: Optional[Schema] = None

    # -- schema ----------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        if self._schema is None:
            raise TableError("the shard store is empty; append a shard first")
        return self._schema

    def column_names(self) -> List[str]:
        return self.schema.names()

    def _check_schema(self, shard: Table) -> None:
        """Shared append-time validation: all shards share one schema."""
        if self._schema is None:
            self._schema = shard.schema
            return
        if shard.column_names() != self._schema.names():
            raise TableError(
                f"shard {self.n_shards} has columns {shard.column_names()}, "
                f"expected {self._schema.names()} (all shards must share one schema)"
            )

    # -- the storage contract ----------------------------------------------------

    @property
    @abstractmethod
    def n_shards(self) -> int:
        """How many shards have been appended."""

    @abstractmethod
    def append(self, shard: Table) -> None:
        """Store one shard (validating its schema against the first)."""

    @abstractmethod
    def shard_row_counts(self) -> List[int]:
        """Per-shard row counts, in shard order (cheap — no shard loads)."""

    @abstractmethod
    def get(self, index: int) -> Table:
        """The shard at ``index`` (may load from backing storage)."""

    def close(self) -> None:
        """Release backing resources (a no-op for in-memory stores)."""

    def __len__(self) -> int:
        return self.n_shards


class InMemoryShardStore(ShardStore):
    """Shards held as live :class:`Table` objects — the default store."""

    def __init__(self, shards: Optional[List[Table]] = None):
        super().__init__()
        self._shards: List[Table] = []
        for shard in shards or ():
            self.append(shard)

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def append(self, shard: Table) -> None:
        self._check_schema(shard)
        self._shards.append(shard)

    def shard_row_counts(self) -> List[int]:
        return [shard.n_rows for shard in self._shards]

    def get(self, index: int) -> Table:
        return self._shards[index]


class SpillToDiskShardStore(ShardStore):
    """Shards spilled to encoded files; resident memory bounded by a small LRU.

    Parameters
    ----------
    directory:
        Where the shard files go.  ``None`` creates a private temporary
        directory that is removed on :meth:`close` (or interpreter
        exit).
    cache_shards:
        How many recently accessed shards stay decoded in memory.  ``1``
        (the default) is enough for the sharded engines, which walk the
        shards sequentially.
    """

    def __init__(self, directory: Union[str, Path, None] = None, cache_shards: int = 1):
        super().__init__()
        if cache_shards < 1:
            raise TableError(f"cache_shards must be >= 1, got {cache_shards}")
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        if directory is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-shards-")
            directory = self._tmpdir.name
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._cache_shards = cache_shards
        #: per-shard (path, row count)
        self._meta: List[Tuple[Path, int]] = []
        self._loaded: "OrderedDict[int, Table]" = OrderedDict()
        #: decoded distinct values are interned per store, so the resident
        #: string footprint across shard loads is the *distinct* value
        #: set, not one fresh copy per load
        self._interned: Dict[str, str] = {}

    @property
    def n_shards(self) -> int:
        return len(self._meta)

    def append(self, shard: Table) -> None:
        self._check_schema(shard)
        path = self.directory / f"shard_{len(self._meta):06d}{SHARD_SUFFIX}"
        path.write_bytes(encode_shard(shard))
        self._meta.append((path, shard.n_rows))

    def shard_row_counts(self) -> List[int]:
        return [n_rows for _path, n_rows in self._meta]

    def get(self, index: int) -> Table:
        cached = self._loaded.get(index)
        if cached is not None:
            self._loaded.move_to_end(index)
            return cached
        path, n_rows = self._meta[index]
        shard = decode_shard(
            path.read_bytes(),
            self.schema,
            n_rows,
            f"spill file {path.name}",
            self._interned,
        )
        self._loaded[index] = shard
        while len(self._loaded) > self._cache_shards:
            self._loaded.popitem(last=False)
        return shard

    def close(self) -> None:
        self._loaded.clear()
        self._interned.clear()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None


#: CLI/session-facing names for the shipped store backends
STORE_KINDS = ("memory", "spill", "object")


def make_shard_store(
    kind: str,
    directory: Union[str, Path, None] = None,
    object_url: Optional[str] = None,
    retry_policy=None,
) -> ShardStore:
    """Build a shard store from its CLI/session-facing name.

    ``directory`` is the spill/object root; ``None`` means a private
    temporary directory removed on ``close()``.  For the ``object``
    kind, ``object_url`` switches the backing client from the local
    filesystem to the remote
    :class:`~repro.sharding.remote.HttpObjectClient` at that base URL —
    the store then owns that remote namespace, so ``close()`` deletes
    its uploaded objects instead of leaking them on the server.
    ``retry_policy`` overrides the object store's default
    :class:`~repro.sharding.remote.RetryPolicy`; the object store reads
    through its background fetch pipeline at the store's default depth.
    """
    if kind == "memory":
        return InMemoryShardStore()
    if kind == "spill":
        return SpillToDiskShardStore(directory)
    if kind == "object":
        # imported lazily: object_store builds on this module
        from repro.sharding.object_store import ObjectShardStore
        from repro.sharding.remote import HttpObjectClient

        if object_url:
            return ObjectShardStore(
                client=HttpObjectClient(object_url),
                owns_client=True,
                retry_policy=retry_policy,
            )
        return ObjectShardStore(root=directory, retry_policy=retry_policy)
    raise TableError(
        f"unknown shard store kind {kind!r} (expected one of {', '.join(STORE_KINDS)})"
    )
