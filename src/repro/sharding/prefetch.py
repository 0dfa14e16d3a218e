"""A bounded fetch pipeline that overlaps shard I/O with compute.

Sharded discovery and detection read shard objects in ascending index
order (``ShardedTable.iter_shards``), so the access pattern is known the
moment shard N is requested: shards N+1..N+k come next.
:class:`PrefetchingFetcher` exploits that by scheduling those fetches —
the full GET **plus checksum verification plus retry backoff** — on a
small thread pool while the caller computes over shard N.  Python
threads overlap fine here: ``urllib`` socket waits release the GIL, and
a retrying shard sleeps its backoff inside its fetch thread instead of
stalling the compute path.

The pipeline is bounded (never more than ``depth`` fetches ahead, at
most ``depth`` threads), keeps results strictly per-index (futures are
popped on consumption, so bytes are handed out exactly once), and
reports through a :class:`~repro.perf.timers.StageTimers`:

* ``fetch_wait`` — time the *caller* spent blocked on shard bytes (the
  unhidden part of I/O; near zero when prefetch keeps up),
* ``prefetch_hit`` — a zero-duration tick per shard whose bytes were
  already fetched when asked for (count = hits).

Errors keep their sequential semantics: a fetch that exhausts its
retries raises from the ``get()`` of that shard, not from some
unrelated call.  :meth:`close` cancels pending work and joins the
threads; a closed fetcher degrades to sequential fetching rather than
failing, mirroring the degrade-to-serial contract of the worker pool.
"""

from __future__ import annotations

from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Optional

from repro.errors import TableError
from repro.perf.timers import StageTimers


class PrefetchingFetcher:
    """Fetch ``index → bytes`` ahead of a sequential reader.

    Parameters
    ----------
    fetch:
        The blocking fetch (GET + checksum verify under the store's
        retry policy).  Must be thread-safe; both object clients are —
        each request opens its own connection.
    depth:
        How many indexes ahead of the requested one to keep in flight
        (also the thread-pool size).  Must be ``>= 1``.
    timers:
        Stage timers to report ``fetch_wait``/``prefetch_hit`` into;
        a private one is created when omitted.
    """

    def __init__(
        self,
        fetch: Callable[[int], bytes],
        depth: int,
        timers: Optional[StageTimers] = None,
    ):
        if depth < 1:
            raise TableError(f"prefetch depth must be >= 1, got {depth}")
        self._fetch = fetch
        self.depth = depth
        self.timers = timers if timers is not None else StageTimers()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._futures: "OrderedDict[int, Future]" = OrderedDict()
        self._closed = False
        #: shards whose bytes were already in hand when asked for
        self.prefetch_hits = 0
        #: shards an open fetcher fetched on the calling thread, having
        #: no prefetch scheduled for them (a shard waited on while its
        #: prefetch is still in flight is neither a hit nor a demand fetch)
        self.demand_fetches = 0

    # -- lifecycle ---------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.depth, thread_name_prefix="shard-prefetch"
            )
        return self._executor

    def close(self) -> None:
        """Cancel pending fetches and join the threads.  Idempotent; a
        closed fetcher still serves :meth:`get` (sequentially)."""
        self._closed = True
        futures, self._futures = self._futures, OrderedDict()
        for future in futures.values():
            future.cancel()
        if self._executor is not None:
            executor, self._executor = self._executor, None
            executor.shutdown(wait=True)
        # consume exceptions of fetches that were already running when
        # close() hit, so they don't surface as stray tracebacks
        for future in futures.values():
            if future.done() and not future.cancelled():
                future.exception()

    def __enter__(self) -> "PrefetchingFetcher":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- fetching ----------------------------------------------------------------

    def _schedule(self, index: int) -> None:
        if index in self._futures or len(self._futures) > self.depth:
            return
        self._futures[index] = self._ensure_executor().submit(self._fetch, index)

    def get(self, index: int, horizon: int) -> bytes:
        """Bytes for ``index``, scheduling ``index+1..index+depth``
        (bounded by ``horizon``, the total shard count) in the
        background.  Blocks only for the unhidden remainder of this
        shard's own fetch, which lands in ``fetch_wait``.

        Out-of-order access (the maintenance path reads dirty shards in
        arbitrary order) is served too: an index with no fetch in flight
        is simply fetched on the calling thread.  A stale future from an
        earlier pass is still valid — objects are immutable."""
        if self._closed:
            with self.timers.stage("fetch_wait"):
                return self._fetch(index)
        # schedule the successors first so the fetch threads work while
        # this shard is being waited on (and later parsed/computed over)
        for ahead in range(index + 1, min(index + 1 + self.depth, horizon)):
            self._schedule(ahead)
        future = self._futures.pop(index, None)
        if future is None:
            # never scheduled (first shard of a pass, or random access):
            # fetching on the calling thread beats a submit-and-wait hop
            self.demand_fetches += 1
            with self.timers.stage("fetch_wait"):
                return self._fetch(index)
        hit = future.done()
        with self.timers.stage("fetch_wait"):
            data = future.result()
        if hit:
            self.prefetch_hits += 1
            self.timers.add("prefetch_hit", 0.0)
        return data
