"""The execution engine's planner and the shard-store seam.

A session cuts every dataset into shards once, at load, and runs the
sharded engines over that cut.  :func:`plan_run` resolves what is left
to decide — shard size and count, store, object client, rule
maintenance — into an :class:`ExecutionPlan` that records every decision
for ``--explain-plan``.

The :class:`~repro.sharding.store.ShardStore` interface (re-exported
here) is the storage seam: shards can live in memory, spill to disk or
sit in an object store without the engines noticing.  See
``docs/ARCHITECTURE.md`` for how the layers compose.
"""

from repro.engine.plan import (
    DEFAULT_SHARD_ROWS,
    ExecutionPlan,
    plan_run,
)
from repro.sharding.object_store import LocalObjectClient, ObjectShardStore
from repro.sharding.overlay import ShardOverlay
from repro.sharding.remote import (
    FaultInjectingClient,
    HttpObjectClient,
    RetryPolicy,
)
from repro.sharding.store import (
    STORE_KINDS,
    InMemoryShardStore,
    ShardStore,
    SpillToDiskShardStore,
    make_shard_store,
)

__all__ = [
    "DEFAULT_SHARD_ROWS",
    "ExecutionPlan",
    "FaultInjectingClient",
    "HttpObjectClient",
    "InMemoryShardStore",
    "LocalObjectClient",
    "ObjectShardStore",
    "RetryPolicy",
    "STORE_KINDS",
    "ShardOverlay",
    "ShardStore",
    "SpillToDiskShardStore",
    "make_shard_store",
    "plan_run",
]
