"""A persistent, process-backed worker pool with a warm result cache.

Every process fan-out in the system — the sharded engines' per-shard
extraction and tree merges — runs on a :class:`WorkerPool`.  A session
keeps one for its whole life; a direct executor call without one gets a
pool for the length of that run.  Across a session the pool amortizes
the fork, payload pickling and teardown a per-run pool pays each time:

* **lazy start** — no process is forked until the first map that
  actually needs one (``n_workers >= 2`` and at least two payloads);
* **reuse** — one pool serves every discovery/detection/recheck call of
  a session; :meth:`close` (tied to ``AnmatSession.close()``) is the
  single, idempotent teardown point;
* **warm cache** — :meth:`map_cached` memoizes results under
  caller-supplied keys (the sharded engines key by shard version), so a
  repeated run over unchanged shards returns the cached statistic
  without rebuilding the payload, re-pickling shard bytes, or crossing
  the process boundary at all.  Cached results are returned by
  reference and must be treated as immutable — the same contract the
  shard-level ``TABLE_ARTIFACTS`` cache already imposes;
* **degrade, never lose work** — when the pool cannot start (fork
  unavailable in a sandbox) or breaks mid-map, only the payloads that
  have no result yet are re-run serially in-process, the degrade is
  recorded on :attr:`decisions` (executors copy it onto the
  ``ExecutionPlan``) and surfaced as a
  :class:`~repro.engine.plan.PlanWarning`.  Genuine worker exceptions
  still propagate.
"""

from __future__ import annotations

import warnings
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Hashable, List, Optional, Sequence, TypeVar

from repro.engine.plan import PlanWarning

Payload = TypeVar("Payload")
Result = TypeVar("Result")

#: sentinel distinguishing "no result yet" from a legitimate ``None``
_MISSING = object()


class WorkerPool:
    """A lazily started ``ProcessPoolExecutor`` reused across runs.

    Parameters
    ----------
    n_workers:
        Worker processes the pool may fork.  ``<= 1`` never starts a
        pool: every map runs serially in-process.
    warm_cache_entries:
        How many :meth:`map_cached` results stay memoized (LRU).  ``0``
        disables the warm cache.
    """

    def __init__(self, n_workers: int, warm_cache_entries: int = 128):
        self.n_workers = n_workers
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False
        self._broken = False
        #: (fn module, fn qualname, key) → memoized result
        self._warm: "OrderedDict[Hashable, object]" = OrderedDict()
        self._warm_cache_entries = warm_cache_entries
        #: degrade events since the last :meth:`take_decisions` drain
        self.decisions: List[str] = []
        self.warm_hits = 0
        self.maps_run = 0

    # -- lifecycle ---------------------------------------------------------------

    @property
    def started(self) -> bool:
        """Whether worker processes have actually been forked."""
        return self._executor is not None

    @property
    def broken(self) -> bool:
        """Whether the pool degraded to serial for the rest of its life."""
        return self._broken

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shut the worker processes down and drop the warm cache.

        Idempotent, and safe to call on a pool that never started.  A
        closed pool stays usable — maps simply run serially — so a
        session method racing a ``close()`` degrades instead of
        crashing.
        """
        self._closed = True
        self._warm.clear()
        if self._executor is not None:
            executor, self._executor = self._executor, None
            executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def take_decisions(self) -> List[str]:
        """Drain the degrade events recorded since the last drain (the
        executors append them to the plan that was running)."""
        drained, self.decisions = self.decisions, []
        return drained

    def clear_warm_cache(self) -> None:
        """Forget every memoized result.  The session calls this when a
        new dataset is loaded: shard indexes and versions restart from
        scratch there, so keys from the previous dataset must not hit."""
        self._warm.clear()

    # -- mapping -----------------------------------------------------------------

    def map(
        self, fn: Callable[[Payload], Result], payloads: Sequence[Payload]
    ) -> List[Result]:
        """Apply ``fn`` to every payload, results in payload order.

        Runs serially when a pool would buy nothing (one worker, one
        payload, closed or broken pool).  A pool that breaks mid-map
        re-runs **only the payloads without results** serially and
        records the degrade; genuine worker errors propagate.
        """
        payloads = list(payloads)
        if not payloads:
            return []
        self.maps_run += 1
        executor = self._ensure_started(len(payloads))
        if executor is None:
            return [fn(payload) for payload in payloads]
        results: List[object] = [_MISSING] * len(payloads)
        try:
            futures = [executor.submit(fn, payload) for payload in payloads]
        except (BrokenProcessPool, RuntimeError, OSError) as exc:
            self._degrade(f"worker pool could not accept work ({exc})")
            return self._finish_serial(fn, payloads, results)
        broke: Optional[BrokenProcessPool] = None
        for position, future in enumerate(futures):
            try:
                results[position] = future.result()
            except BrokenProcessPool as exc:
                broke = exc
                break
        if broke is not None:
            self._degrade(f"worker pool broke mid-map ({broke})")
            return self._finish_serial(fn, payloads, results)
        return list(results)

    def map_cached(
        self,
        fn: Callable[[Payload], Result],
        keys: Sequence[Hashable],
        payload_for: Optional[Callable[[int], Payload]] = None,
        payloads: Optional[Sequence[Payload]] = None,
    ) -> List[Result]:
        """:meth:`map` with a warm result cache keyed by ``keys``.

        ``keys[i]`` identifies payload ``i``'s result across calls — the
        sharded engines use ``(stat kind, shard index, shard version,
        …params)``, so an unchanged shard hits and a mutated one misses.
        Payloads are supplied either eagerly (``payloads``) or lazily
        (``payload_for(i)``, called **only for cache misses** — with an
        out-of-core store a warm hit then skips the shard load
        entirely).  A ``None`` key is never cached.
        """
        keys = list(keys)
        if payload_for is None:
            if payloads is None:
                raise ValueError("map_cached needs payloads or payload_for")
            eager = list(payloads)
            payload_for = lambda index: eager[index]  # noqa: E731
        results: List[object] = [_MISSING] * len(keys)
        miss_positions: List[int] = []
        for position, key in enumerate(keys):
            cache_key = self._cache_key(fn, key)
            if cache_key is not None and cache_key in self._warm:
                self._warm.move_to_end(cache_key)
                results[position] = self._warm[cache_key]
                self.warm_hits += 1
            else:
                miss_positions.append(position)
        if miss_positions:
            miss_results = self.map(
                fn, [payload_for(position) for position in miss_positions]
            )
            for position, result in zip(miss_positions, miss_results):
                results[position] = result
                cache_key = self._cache_key(fn, keys[position])
                if cache_key is not None and self._warm_cache_entries > 0:
                    self._warm[cache_key] = result
                    self._warm.move_to_end(cache_key)
                    while len(self._warm) > self._warm_cache_entries:
                        self._warm.popitem(last=False)
        return list(results)

    # -- internals ---------------------------------------------------------------

    @staticmethod
    def _cache_key(fn: Callable, key: Hashable) -> Optional[Hashable]:
        if key is None:
            return None
        return (
            getattr(fn, "__module__", ""),
            getattr(fn, "__qualname__", repr(fn)),
            key,
        )

    def _ensure_started(self, n_payloads: int) -> Optional[ProcessPoolExecutor]:
        """The live executor, or ``None`` when this map should run
        serially (too little work, closed, broken, or fork failed)."""
        if (
            self.n_workers < 2
            or n_payloads < 2
            or self._closed
            or self._broken
        ):
            return None
        if self._executor is None:
            try:
                self._executor = ProcessPoolExecutor(max_workers=self.n_workers)
            except (NotImplementedError, OSError, ValueError) as exc:
                self._degrade(f"worker pool could not start ({exc})")
                return None
        return self._executor

    def _degrade(self, reason: str) -> None:
        """Permanently fall back to serial maps, loudly: the event lands
        on :attr:`decisions` (plan-visible) and warns ``PlanWarning``."""
        self._broken = True
        if self._executor is not None:
            executor, self._executor = self._executor, None
            # the pool is already dead; don't block on its corpse
            executor.shutdown(wait=False)
        message = f"{reason}; unfinished payloads run serially in-process"
        self.decisions.append(message)
        warnings.warn(message, PlanWarning, stacklevel=4)

    @staticmethod
    def _finish_serial(
        fn: Callable[[Payload], Result],
        payloads: Sequence[Payload],
        results: List[object],
    ) -> List[Result]:
        """Fill in only the missing results in-process (payloads that
        completed before the pool broke keep their results)."""
        for position, result in enumerate(results):
            if result is _MISSING:
                results[position] = fn(payloads[position])
        return list(results)
