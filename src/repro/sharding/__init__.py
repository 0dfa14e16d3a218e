"""Sharded, out-of-core tables for discovery and detection.

The sharding subsystem partitions a dataset into row shards
(:class:`ShardedTable`) on a shard store and factorizes the columns it
needs in one shard-major pass into table-wide encodings.
:class:`~repro.discovery.discoverer.PfdDiscoverer` mines those
encodings, and detection seeds the session's
:class:`~repro.detection.incremental.IncrementalDetector` from the pair
groups built from them (:mod:`repro.sharding.detection`,
:mod:`repro.sharding.stats`) — producing rule sets and violations that
do not depend on the cut while reading each shard at most once per
session op.
"""

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
from repro.sharding.stats import MergedPairGroups, extract_pair_groups
from repro.sharding.store import (
    STORE_KINDS,
    InMemoryShardStore,
    ShardStore,
    SpillToDiskShardStore,
    make_shard_store,
)

__all__ = [
    "STORE_KINDS",
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
    "make_shard_store",
]
