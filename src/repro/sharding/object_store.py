"""An object-store-style :class:`~repro.sharding.store.ShardStore` backend.

Shards are encoded by :mod:`repro.sharding.codec` into *objects*
addressed by string keys through a minimal get/put/list/delete client
API — the shape of S3-alike blob stores.  Two clients ship today:
:class:`LocalObjectClient` keeps objects as files under a local root, and
:class:`~repro.sharding.remote.HttpObjectClient` speaks the same
contract over HTTP (S3-compatible-style PUT/GET/DELETE plus Range
reads).

On top of the raw byte transport the store adds the things a remote
medium needs that local spill files do not:

* **checksums** — every object is written alongside its SHA-256 digest
  and verified on read, so a torn or bit-rotted object is an error, not
  silently wrong data; a mismatch raises
  :class:`~repro.sharding.remote.ObjectChecksumError` carrying the
  object key and both digests.
* **retries** — reads *and writes* go through one shared
  :class:`~repro.sharding.remote.RetryPolicy` (bounded attempts,
  exponential backoff with seeded jitter, idempotent operations only —
  which every full-object put/get/delete is), so a transiently failing
  put no longer loses the shard and poisons the upload.
* **cleanup on error paths** — a put that exhausts its retries deletes
  the possibly-partial object before surfacing, and :meth:`close`
  releases the object root (and, for stores that own their remote
  namespace, the uploaded objects) even when called off an error path.

Like :class:`~repro.sharding.store.SpillToDiskShardStore`, decoded
distinct values are interned per store and a small LRU bounds how many
shards stay resident.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.dataset.table import Table
from repro.errors import TableError
from repro.perf.timers import StageTimers
from repro.sharding.codec import SHARD_SUFFIX, decode_shard, encode_shard
from repro.sharding.prefetch import PrefetchingFetcher
from repro.sharding.remote import (
    FaultInjectingClient,
    HttpObjectClient,
    ObjectChecksumError,
    ObjectStoreError,
    RetryPolicy,
    validate_key,
)
from repro.sharding.store import ShardStore

__all__ = [
    "DEFAULT_PREFETCH_DEPTH",
    "LocalObjectClient",
    "ObjectShardStore",
    "ObjectStoreError",
    "ObjectChecksumError",
    "FaultInjectingClient",
    "HttpObjectClient",
    "RetryPolicy",
]

#: how many shard objects ahead an :class:`ObjectShardStore` fetches by
#: default — every session and CLI upload onto the object store reads
#: through this pipeline
DEFAULT_PREFETCH_DEPTH = 2


class LocalObjectClient:
    """Filesystem-backed object client: keys are paths under one root.

    The API is deliberately the minimal blob-store surface —
    ``put(key, data)``, ``get(key)``, ``get_range(key, start, length)``,
    ``list(prefix)``, ``delete(key)`` — so the remote
    :class:`~repro.sharding.remote.HttpObjectClient` is a drop-in.
    """

    def __init__(self, root: Union[str, Path, None] = None):
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        if root is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-objects-")
            root = self._tmpdir.name
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / validate_key(key)

    def put(self, key: str, data: bytes) -> None:
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        except OSError as exc:
            raise ObjectStoreError(
                f"object {key!r} could not be written: {exc}", key=key
            ) from exc

    def get(self, key: str) -> bytes:
        path = self._path(key)
        try:
            return path.read_bytes()
        except OSError as exc:
            raise ObjectStoreError(
                f"object {key!r} could not be read: {exc}", key=key
            ) from exc

    def get_range(self, key: str, start: int, length: int) -> bytes:
        return self.get(key)[start : start + length]

    def list(self, prefix: str = "") -> List[str]:
        keys = []
        for path in self.root.rglob("*"):
            if path.is_file():
                key = path.relative_to(self.root).as_posix()
                if key.startswith(prefix):
                    keys.append(key)
        return sorted(keys)

    def delete(self, key: str) -> None:
        path = self._path(key)
        try:
            path.unlink()
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise ObjectStoreError(
                f"object {key!r} could not be deleted: {exc}", key=key
            ) from exc

    def close(self) -> None:
        """Remove the private temporary root (idempotent; never raises —
        a cleanup failure on an error path must not mask the original
        error, so stragglers are swept with ``ignore_errors``)."""
        if self._tmpdir is not None:
            tmpdir, self._tmpdir = self._tmpdir, None
            try:
                tmpdir.cleanup()
            except OSError:
                shutil.rmtree(tmpdir.name, ignore_errors=True)


class ObjectShardStore(ShardStore):
    """Shards as checksummed encoded objects behind an object client.

    Parameters
    ----------
    client:
        The object client to store shards through
        (:class:`LocalObjectClient`,
        :class:`~repro.sharding.remote.HttpObjectClient`, or a
        :class:`~repro.sharding.remote.FaultInjectingClient` wrapper).
        ``None`` builds a :class:`LocalObjectClient` over ``root``
        (itself defaulting to a private temporary directory removed on
        :meth:`close`).
    root:
        Local root for the default client; ignored when ``client`` is
        given.
    prefix:
        Key prefix for this dataset's shard objects.
    cache_shards:
        How many recently read shards stay decoded in memory.
    retry_policy:
        The shared :class:`~repro.sharding.remote.RetryPolicy` both
        reads and writes run under (default: ``RetryPolicy()``).
    owns_client:
        Whether :meth:`close` closes the client too.  Defaults to
        owning exactly the client the store built itself; pass ``True``
        when handing over a client the store should tear down.  An
        owned non-local client's objects are deleted on :meth:`close`
        (best-effort): a remote namespace has no temporary directory
        whose removal would reclaim the bytes.
    prefetch_depth:
        How many shard objects ahead of a read to fetch (GET + checksum
        verification, retries included) on background threads via
        :class:`~repro.sharding.prefetch.PrefetchingFetcher`; defaults
        to :data:`DEFAULT_PREFETCH_DEPTH`.  ``0`` reads sequentially on
        the caller's thread.
    timers:
        :class:`~repro.perf.timers.StageTimers` receiving the
        ``fetch_wait``/``prefetch_hit`` stages; a private instance is
        created when omitted (exposed as :attr:`timers` either way).
    """

    def __init__(
        self,
        client=None,
        root: Union[str, Path, None] = None,
        prefix: str = "shards",
        cache_shards: int = 1,
        retry_policy: Optional[RetryPolicy] = None,
        owns_client: Optional[bool] = None,
        prefetch_depth: int = DEFAULT_PREFETCH_DEPTH,
        timers: Optional[StageTimers] = None,
    ):
        super().__init__()
        if cache_shards < 1:
            raise TableError(f"cache_shards must be >= 1, got {cache_shards}")
        if prefetch_depth < 0:
            raise TableError(f"prefetch_depth must be >= 0, got {prefetch_depth}")
        self._owns_client = (client is None) if owns_client is None else owns_client
        self.client = client if client is not None else LocalObjectClient(root)
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self._delete_objects_on_close = self._owns_client and not isinstance(
            self.client, LocalObjectClient
        )
        self.prefix = prefix.rstrip("/")
        self._cache_shards = cache_shards
        #: per-shard (key, row count, sha256 hexdigest)
        self._meta: List[Tuple[str, int, str]] = []
        self._loaded: "OrderedDict[int, Table]" = OrderedDict()
        self._interned: Dict[str, str] = {}
        #: read/write attempts beyond the first, for observability/tests
        self.retried_reads = 0
        self.retried_puts = 0
        self.timers = timers if timers is not None else StageTimers()
        self._prefetcher: Optional[PrefetchingFetcher] = (
            PrefetchingFetcher(self._fetch_verified, prefetch_depth, self.timers)
            if prefetch_depth > 0
            else None
        )

    # -- object keys ---------------------------------------------------------------

    def _key(self, index: int) -> str:
        return f"{self.prefix}/shard_{index:06d}{SHARD_SUFFIX}"

    # -- the storage contract ----------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self._meta)

    def append(self, shard: Table) -> None:
        self._check_schema(shard)
        key = self._key(len(self._meta))
        data = encode_shard(shard)
        digest = hashlib.sha256(data).hexdigest()

        def _count_put_retry(_exc: ObjectStoreError) -> None:
            self.retried_puts += 1

        try:
            # a full-object put is idempotent (same key, same bytes), so
            # a transient failure is retried instead of losing the shard
            self.retry_policy.run(
                lambda: self.client.put(key, data),
                what=f"shard object {key} upload failed",
                on_retry=_count_put_retry,
            )
        except ObjectStoreError:
            # don't leave a possibly-partial object behind the store's back
            try:
                self.client.delete(key)
            except ObjectStoreError:
                pass
            raise
        self._meta.append((key, shard.n_rows, digest))

    def shard_row_counts(self) -> List[int]:
        return [n_rows for _key, n_rows, _digest in self._meta]

    def _fetch_verified(self, index: int) -> bytes:
        """Blocking fetch of one shard object: GET + SHA-256 verify
        under the shared retry policy.  Thread-safe (the prefetcher
        calls it from its fetch threads); retry backoff sleeps happen
        on the calling thread."""
        key, _n_rows, digest = self._meta[index]

        def _download() -> bytes:
            data = self.client.get(key)
            actual = hashlib.sha256(data).hexdigest()
            if actual != digest:
                raise ObjectChecksumError(key, expected=digest, actual=actual)
            return data

        def _count_read_retry(_exc: ObjectStoreError) -> None:
            self.retried_reads += 1

        return self.retry_policy.run(
            _download,
            what=f"shard object {key} unreadable",
            on_retry=_count_read_retry,
        )

    @property
    def prefetch_hits(self) -> int:
        """Shards whose bytes were already prefetched when read (``0``
        without a prefetcher)."""
        return self._prefetcher.prefetch_hits if self._prefetcher is not None else 0

    def get(self, index: int) -> Table:
        cached = self._loaded.get(index)
        if cached is not None:
            self._loaded.move_to_end(index)
            return cached
        key, n_rows, _digest = self._meta[index]
        if self._prefetcher is not None:
            data = self._prefetcher.get(index, self.n_shards)
        else:
            with self.timers.stage("fetch_wait"):
                data = self._fetch_verified(index)
        shard = decode_shard(data, self.schema, n_rows, f"object {key}", self._interned)
        self._loaded[index] = shard
        while len(self._loaded) > self._cache_shards:
            self._loaded.popitem(last=False)
        return shard

    def close(self) -> None:
        """Release everything the store holds: the shard LRU, the intern
        pool, this dataset's objects (when the store owns its remote
        namespace) and the client itself (when owned).  Safe to call off
        an error path mid-upload — cleanup failures never mask the
        original error — and idempotent."""
        if self._prefetcher is not None:
            # join the fetch threads before touching the client or the
            # objects they may still be reading
            self._prefetcher.close()
        self._loaded.clear()
        self._interned.clear()
        try:
            if self._delete_objects_on_close:
                for key, _n_rows, _digest in self._meta:
                    try:
                        # deletes are idempotent, so transient faults are
                        # retried like any other operation — a flaky
                        # backend must not leak the namespace
                        self.retry_policy.run(
                            lambda key=key: self.client.delete(key),
                            what=f"shard object {key} cleanup failed",
                        )
                    except ObjectStoreError:
                        pass  # best-effort: never raise out of close()
                self._meta = []
        finally:
            if self._owns_client:
                self.client.close()
