"""The pluggable execution engine: one planner, interchangeable backends.

Every discovery/detection run in the system — session, CLI, examples,
benchmarks — goes through the same two steps:

1. :func:`plan_run` (or the :func:`plan_discovery` / :func:`plan_detection`
   wrappers) resolves the observable inputs (table size, ``shard_rows``,
   ``n_workers``, sharded-vs-monolithic upload) into an
   :class:`ExecutionPlan`, recording every routing decision it takes;
2. :func:`build_executor` hands back the matching backend —
   :class:`SerialExecutor` or :class:`ShardedExecutor` — and
   ``executor.run_discovery(plan, ...)`` /
   ``executor.run_detection(plan, ...)`` executes it.

The :class:`~repro.sharding.store.ShardStore` interface (re-exported
here) is the storage seam of the sharded backend: shards can live in
memory or spill to disk without the engines noticing.  See
``docs/ARCHITECTURE.md`` for how the layers compose.
"""

from repro.engine.executors import (
    DataSource,
    Executor,
    SerialExecutor,
    ShardedExecutor,
    build_executor,
)
from repro.engine.plan import (
    DEFAULT_SHARD_ROWS,
    ExecutionBackend,
    ExecutionPlan,
    PlanWarning,
    plan_detection,
    plan_discovery,
    plan_run,
)
from repro.engine.pool import make_shard_map, serial_map
from repro.engine.worker_pool import WorkerPool
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
    "DataSource",
    "DEFAULT_SHARD_ROWS",
    "ExecutionBackend",
    "ExecutionPlan",
    "Executor",
    "FaultInjectingClient",
    "HttpObjectClient",
    "InMemoryShardStore",
    "LocalObjectClient",
    "ObjectShardStore",
    "RetryPolicy",
    "PlanWarning",
    "STORE_KINDS",
    "SerialExecutor",
    "ShardOverlay",
    "ShardStore",
    "ShardedExecutor",
    "SpillToDiskShardStore",
    "WorkerPool",
    "make_shard_store",
    "build_executor",
    "make_shard_map",
    "plan_detection",
    "plan_discovery",
    "plan_run",
    "serial_map",
]
