"""Sharded, out-of-core discovery and detection.

The sharding subsystem partitions a dataset into row shards
(:class:`ShardedTable`), extracts mergeable per-shard sufficient
statistics (:mod:`repro.sharding.stats`), and runs discovery
(:class:`ShardedDiscoverer`) and detection (:class:`ShardedDetector`)
over the merged statistics — producing rule sets and violations
canonically equal to a monolithic run while keeping every per-shard
stage bounded by the shard size and fan-out-ready for worker processes.
"""

from repro.sharding.detection import SHARDED_STRATEGY, ShardedDetector
from repro.sharding.discovery import ShardedDiscoverer
from repro.sharding.object_store import (
    LocalObjectClient,
    ObjectShardStore,
    ObjectStoreError,
)
from repro.sharding.remote import (
    FAULT_KINDS,
    FaultInjectingClient,
    HttpObjectClient,
    ObjectChecksumError,
    RetryPolicy,
)
from repro.sharding.overlay import OverlayShardStore, ShardOverlay
from repro.sharding.prefetch import PrefetchingFetcher
from repro.sharding.sharded_table import ShardedTable
from repro.sharding.stats import (
    MergedPairGroups,
    extract_pair_groups,
    merge_into_pair_groups,
    merge_pair_groups,
    tree_merge_pair_groups,
    unmerge_pair_groups,
)
from repro.sharding.store import (
    STORE_KINDS,
    InMemoryShardStore,
    ShardStore,
    SpillToDiskShardStore,
    make_shard_store,
)

__all__ = [
    "SHARDED_STRATEGY",
    "STORE_KINDS",
    "ShardedDetector",
    "ShardedDiscoverer",
    "ShardedTable",
    "ShardStore",
    "ShardOverlay",
    "OverlayShardStore",
    "InMemoryShardStore",
    "SpillToDiskShardStore",
    "LocalObjectClient",
    "ObjectShardStore",
    "ObjectStoreError",
    "ObjectChecksumError",
    "FAULT_KINDS",
    "FaultInjectingClient",
    "HttpObjectClient",
    "RetryPolicy",
    "MergedPairGroups",
    "PrefetchingFetcher",
    "extract_pair_groups",
    "merge_pair_groups",
    "merge_into_pair_groups",
    "unmerge_pair_groups",
    "tree_merge_pair_groups",
    "make_shard_store",
]
