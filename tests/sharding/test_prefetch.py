"""Unit and integration tests for the prefetching shard reader.

:class:`~repro.sharding.prefetch.PrefetchingFetcher` overlaps shard
GET + checksum verification with compute.  These tests pin its contract
directly — bounded lookahead, per-index delivery, out-of-order demand
fetches, error locality, close semantics, timer reporting — and then
through :class:`~repro.sharding.object_store.ObjectShardStore`, where a
prefetching store must return byte-identical shards to a sequential one
and still surface checksum failures on the shard that rotted.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.dataset import Table
from repro.errors import TableError
from repro.perf.timers import StageTimers
from repro.sharding import (
    LocalObjectClient,
    ObjectShardStore,
    PrefetchingFetcher,
    RetryPolicy,
)
from repro.sharding.remote import ObjectStoreError


def make_fetch(blobs, delay=0.0, calls=None, fail_on=()):
    """A fake blocking fetch over ``blobs[index]``."""

    def fetch(index):
        if calls is not None:
            calls.append(index)
        if delay:
            time.sleep(delay)
        if index in fail_on:
            raise ValueError(f"shard {index} is poisoned")
        return blobs[index]

    return fetch


BLOBS = [f"shard-{i}".encode() for i in range(8)]


# -- fetcher unit tests -----------------------------------------------------------


def test_depth_must_be_positive():
    with pytest.raises(TableError, match="depth"):
        PrefetchingFetcher(make_fetch(BLOBS), depth=0)


def test_sequential_scan_returns_every_shard_once():
    calls = []
    with PrefetchingFetcher(make_fetch(BLOBS, calls=calls), depth=3) as fetcher:
        data = [fetcher.get(i, len(BLOBS)) for i in range(len(BLOBS))]
    assert data == BLOBS
    # every shard fetched exactly once: prefetched bytes are handed out,
    # not fetched again on consumption
    assert sorted(calls) == list(range(len(BLOBS)))


def test_sequential_scan_with_compute_gap_hits_the_prefetcher():
    with PrefetchingFetcher(make_fetch(BLOBS), depth=2) as fetcher:
        data = []
        for i in range(len(BLOBS)):
            data.append(fetcher.get(i, len(BLOBS)))
            time.sleep(0.01)  # "compute" on shard i while i+1..i+2 fetch
    assert data == BLOBS
    # shard 0 is always a demand fetch; with instant fetches and a
    # compute gap, every later shard is already in hand
    assert fetcher.prefetch_hits >= len(BLOBS) - 2
    assert fetcher.demand_fetches >= 1
    assert fetcher.timers.count("prefetch_hit") == fetcher.prefetch_hits
    assert fetcher.timers.count("fetch_wait") == len(BLOBS)


def test_lookahead_is_bounded_by_depth_and_horizon():
    with PrefetchingFetcher(make_fetch(BLOBS, delay=0.05), depth=2) as fetcher:
        fetcher.get(0, len(BLOBS))
        assert set(fetcher._futures) == {1, 2}
        # near the horizon nothing past the last shard is scheduled
        fetcher.get(6, len(BLOBS))
        assert 8 not in fetcher._futures
    assert fetcher._futures == {}


def test_out_of_order_access_is_a_demand_fetch():
    calls = []
    with PrefetchingFetcher(make_fetch(BLOBS, calls=calls), depth=2) as fetcher:
        assert fetcher.get(5, len(BLOBS)) == BLOBS[5]
        assert fetcher.demand_fetches == 1
        # jumping backwards (maintenance reads dirty shards in any order)
        assert fetcher.get(1, len(BLOBS)) == BLOBS[1]
    assert 5 in calls and 1 in calls


def test_waiting_on_an_in_flight_prefetch_is_neither_a_hit_nor_a_demand_fetch():
    # shard 1's prefetch is held at a gate until the caller has found it
    # unfinished and begins waiting on it
    gate = threading.Event()

    class OpenGateOnSecondWait(StageTimers):
        def stage(self, name):
            if name == "fetch_wait" and self.count("fetch_wait") == 1:
                gate.set()
            return super().stage(name)

    def gated(index):
        if index == 1:
            assert gate.wait(timeout=10.0), "the caller never waited on shard 1"
        return BLOBS[index]

    timers = OpenGateOnSecondWait()
    with PrefetchingFetcher(gated, depth=1, timers=timers) as fetcher:
        assert fetcher.get(0, len(BLOBS)) == BLOBS[0]  # never scheduled
        assert fetcher.get(1, len(BLOBS)) == BLOBS[1]  # scheduled, in flight
    assert fetcher.demand_fetches == 1
    assert fetcher.prefetch_hits == 0
    assert timers.count("fetch_wait") == 2


def test_fetch_error_raises_from_the_owning_get():
    with PrefetchingFetcher(make_fetch(BLOBS, fail_on={2}), depth=3) as fetcher:
        assert fetcher.get(0, len(BLOBS)) == BLOBS[0]  # schedules 1..3
        assert fetcher.get(1, len(BLOBS)) == BLOBS[1]
        with pytest.raises(ValueError, match="shard 2 is poisoned"):
            fetcher.get(2, len(BLOBS))
        # the pipeline survives: later shards still arrive
        assert fetcher.get(3, len(BLOBS)) == BLOBS[3]


def test_close_is_idempotent_and_degrades_to_sequential():
    calls = []
    fetcher = PrefetchingFetcher(make_fetch(BLOBS, calls=calls), depth=2)
    fetcher.get(0, len(BLOBS))
    fetcher.close()
    fetcher.close()
    assert fetcher.closed
    before = len(calls)
    assert fetcher.get(4, len(BLOBS)) == BLOBS[4]
    assert calls[before:] == [4], "closed fetcher fetches on the caller thread"
    assert fetcher._futures == {}


def test_close_consumes_in_flight_exceptions():
    started = threading.Event()

    def slow_fail(index):
        started.set()
        time.sleep(0.02)
        raise ValueError("boom")

    fetcher = PrefetchingFetcher(slow_fail, depth=1)
    fetcher._schedule(1)
    started.wait(timeout=2.0)
    fetcher.close()  # must join and swallow the pending failure


def test_stale_future_from_an_earlier_pass_is_still_valid():
    with PrefetchingFetcher(make_fetch(BLOBS), depth=2) as fetcher:
        first = [fetcher.get(i, len(BLOBS)) for i in range(4)]
        # a second pass over the same shards (objects are immutable, so a
        # leftover future for shard 4/5 from pass one may be consumed)
        second = [fetcher.get(i, len(BLOBS)) for i in range(4)]
    assert first == second == BLOBS[:4]


def test_external_timers_receive_the_stages():
    timers = StageTimers()
    with PrefetchingFetcher(make_fetch(BLOBS), depth=2, timers=timers) as fetcher:
        for i in range(4):
            fetcher.get(i, len(BLOBS))
            time.sleep(0.005)
    assert timers.count("fetch_wait") == 4
    assert timers.count("prefetch_hit") == fetcher.prefetch_hits


# -- through the object store -----------------------------------------------------


def make_shards(n_shards, rows_per_shard=4):
    shards = []
    for s in range(n_shards):
        rows = [
            [f"k{s}-{r}", f"v{(s * rows_per_shard + r) % 5}"]
            for r in range(rows_per_shard)
        ]
        shards.append(Table.from_rows(["key", "value"], rows))
    return shards


def filled_store(tmp_path, name, prefetch_depth, shards, **kwargs):
    store = ObjectShardStore(
        client=LocalObjectClient(tmp_path / name),
        owns_client=True,
        prefetch_depth=prefetch_depth,
        **kwargs,
    )
    for shard in shards:
        store.append(shard)
    return store


def test_store_invalid_prefetch_depth_rejected(tmp_path):
    with pytest.raises(TableError, match="prefetch_depth"):
        ObjectShardStore(
            client=LocalObjectClient(tmp_path / "bad"), prefetch_depth=-1
        )


def test_store_factory_and_session_upload_share_one_prefetch_default(tmp_path):
    # one default depth for every object store: built directly, through
    # the factory, or by a session upload from its config
    from repro.anmat.session import AnmatSession
    from repro.dataset.csvio import write_csv
    from repro.discovery import DiscoveryConfig
    from repro.sharding import make_shard_store
    from repro.sharding.object_store import DEFAULT_PREFETCH_DEPTH

    assert DEFAULT_PREFETCH_DEPTH == 2
    path = tmp_path / "shards.csv"
    rows = [[f"k{i}", f"v{i % 5}"] for i in range(12)]
    write_csv(Table.from_rows(["key", "value"], rows), path)
    stores = [
        ObjectShardStore(root=tmp_path / "direct"),
        make_shard_store("object", tmp_path / "factory"),
    ]
    session = AnmatSession(
        dataset_name="prefetch",
        config=DiscoveryConfig(store="object", spill_dir=str(tmp_path / "session")),
    )
    session.upload_csv(path, shard_rows=4)
    stores.append(session.table.base.store)
    try:
        for store in stores:
            assert isinstance(store._prefetcher, PrefetchingFetcher)
            assert store._prefetcher.depth == DEFAULT_PREFETCH_DEPTH
    finally:
        session.close()
        for store in stores[:2]:
            store.close()


def test_prefetching_store_reads_identical_shards(tmp_path):
    shards = make_shards(6)
    plain = filled_store(tmp_path, "plain", 0, shards)
    pre = filled_store(tmp_path, "pre", 3, shards, cache_shards=2)
    try:
        for index in range(6):
            expected = plain.get(index)
            observed = pre.get(index)
            assert observed.column("key") == expected.column("key")
            assert observed.column("value") == expected.column("value")
        assert pre.prefetch_hits + pre._prefetcher.demand_fetches >= 1
        assert pre.timers.count("fetch_wait") > 0
        assert plain.prefetch_hits == 0
    finally:
        plain.close()
        pre.close()


def test_prefetching_store_sequential_scan_gets_hits(tmp_path):
    shards = make_shards(8)
    store = filled_store(tmp_path, "scan", 3, shards, cache_shards=2)
    try:
        # force real reads (appended shards start LRU-resident)
        store._loaded.clear()
        for index in range(8):
            store.get(index)
            time.sleep(0.005)  # compute stand-in
        assert store.prefetch_hits > 0
    finally:
        store.close()


def test_checksum_failure_surfaces_on_the_rotten_shard(tmp_path):
    shards = make_shards(4)
    client = LocalObjectClient(tmp_path / "rot")
    store = ObjectShardStore(
        client=client,
        owns_client=True,
        prefetch_depth=2,
        cache_shards=1,
        retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0),
    )
    try:
        for shard in shards:
            store.append(shard)
        store._loaded.clear()
        # rot shard 2's object in place (its recorded digest no longer
        # matches); the corruption is persistent, so retries exhaust
        key = store._key(2)
        client.put(key, client.get(key) + b"tampered")
        assert store.get(0).column("key") == shards[0].column("key")
        assert store.get(1).column("key") == shards[1].column("key")
        with pytest.raises(ObjectStoreError, match="checksum"):
            store.get(2)
        # error locality: the neighbouring shard still reads fine
        assert store.get(3).column("key") == shards[3].column("key")
    finally:
        store.close()


def test_store_close_joins_the_prefetcher(tmp_path):
    shards = make_shards(4)
    store = filled_store(tmp_path, "close", 2, shards)
    store._loaded.clear()
    store.get(0)
    store.close()
    assert store._prefetcher.closed
    store.close()  # idempotent
