"""The shard map: how the sharded engines fan per-shard work out.

All fan-out routes through a :class:`~repro.engine.worker_pool.WorkerPool`
— the session's persistent pool (alive across discovery/detection/recheck,
closed with the session) or one the
:class:`~repro.engine.executors.ShardedExecutor` builds for the length of
a run.  The degrade semantics live in the pool: one that cannot start or
breaks mid-map re-runs only the unfinished payloads serially and
surfaces the event as a ``PlanWarning``-visible decision.

The ``n_workers`` knob is interpreted only inside ``repro.engine``:
``<= 1`` means fully serial (no shard map at all), anything larger is
the pool's width.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, TypeVar

from repro.engine.worker_pool import WorkerPool

Payload = TypeVar("Payload")
Result = TypeVar("Result")

#: signature of the map hook the sharded engines accept: ``fn`` applied
#: to every payload, results in payload order; ``keys=``/``payload_for=``
#: select the pool's warm-cached mapping instead of eager payloads.
ShardMap = Callable[..., List[Result]]


def serial_map(fn: Callable[[Payload], Result], payloads: Sequence[Payload]) -> List[Result]:
    """Apply ``fn`` in-process, in order (the degenerate shard map)."""
    return [fn(payload) for payload in payloads]


def make_shard_map(pool: WorkerPool) -> ShardMap:
    """A shard map over ``pool``, injected into the sharded engines.

    Called with payloads, it is :meth:`WorkerPool.map`.  Called with
    ``keys=`` (shard-version cache keys) and ``payload_for=`` (a lazy
    payload builder), it is :meth:`WorkerPool.map_cached`: repeated runs
    over unchanged shards skip the shard load and the process
    round-trip.
    """

    def pooled(
        fn: Callable[[Payload], Result],
        payloads=None,
        keys=None,
        payload_for=None,
    ) -> List[Result]:
        if keys is not None:
            return pool.map_cached(fn, keys, payload_for=payload_for, payloads=payloads)
        return pool.map(fn, payloads)

    return pooled
