"""Lifecycle, degrade, and warm-cache behavior of the persistent
:class:`~repro.engine.worker_pool.WorkerPool`.

The pool is the session's process fan-out: lazily started by the first
detection that fans out, reused by every later detection (including the
one a recheck runs), closed with the session.  These tests pin
the contract: reuse (same pool object, same worker processes), idempotent
close, genuine worker exceptions propagating, fork-unavailable and
broken-pool degrades that re-run *only* unfinished payloads and surface
as ``PlanWarning``-visible decisions, and no leaked worker processes
after an ``AnmatSession`` context-manager exit.
"""

from __future__ import annotations

import os
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.anmat.session import AnmatSession
from repro.datagen import build_dataset
from repro.discovery.config import DiscoveryConfig
from repro.engine import PlanWarning, WorkerPool
from repro.engine import worker_pool as worker_pool_module


def _square(value):
    return value * value


def _fail_on_three(value):
    if value == 3:
        raise ValueError("payload three is poisoned")
    return value


def _pid_of(_value):
    return os.getpid()


# -- mapping basics --------------------------------------------------------------


def test_map_returns_results_in_payload_order():
    with WorkerPool(2) as pool:
        assert pool.map(_square, [3, 1, 4, 1, 5]) == [9, 1, 16, 1, 25]


def test_map_empty_and_single_payload_stay_serial():
    with WorkerPool(2) as pool:
        assert pool.map(_square, []) == []
        assert pool.map(_square, [7]) == [49]
        # neither map justified forking workers
        assert not pool.started


def test_single_worker_pool_never_forks():
    with WorkerPool(1) as pool:
        assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert not pool.started


def test_worker_exception_propagates():
    with WorkerPool(2) as pool:
        with pytest.raises(ValueError, match="poisoned"):
            pool.map(_fail_on_three, [1, 2, 3, 4])
        # a genuine worker error does not degrade the pool
        assert not pool.broken
        assert pool.map(_square, [2, 3]) == [4, 9]


def test_pool_reuses_the_same_worker_processes():
    with WorkerPool(2) as pool:
        first = set(pool.map(_pid_of, list(range(8))))
        assert pool.started
        # the pool's real process set, not the PIDs one map happened to
        # be scheduled on (a map may run entirely on one warm worker)
        workers = set(pool._executor._processes)
        second = set(pool.map(_pid_of, list(range(8))))
        assert set(pool._executor._processes) == workers, (
            "a new map should reuse the warm processes"
        )
        assert first <= workers and second <= workers
        assert os.getpid() not in workers


# -- lifecycle -------------------------------------------------------------------


def test_close_is_idempotent_and_degrades_to_serial():
    pool = WorkerPool(2)
    assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]
    pool.close()
    pool.close()  # idempotent
    assert pool.closed
    # a closed pool still serves maps, serially in-process
    assert pool.map(_pid_of, [0, 1]) == [os.getpid(), os.getpid()]


def test_close_joins_worker_processes():
    pool = WorkerPool(2)
    pool.map(_square, [1, 2, 3, 4])
    processes = list(pool._executor._processes.values())
    assert processes
    pool.close()
    assert all(not process.is_alive() for process in processes)


# -- degrade paths ---------------------------------------------------------------


class _UnavailableExecutor:
    """Stands in for ProcessPoolExecutor in fork-less sandboxes."""

    def __init__(self, max_workers):
        raise OSError("fork unavailable")


class _FlakyExecutor:
    """Completes the first ``fail_after`` submissions inline, then breaks
    like a pool whose workers were killed mid-map."""

    def __init__(self, max_workers, fail_after=2):
        self.fail_after = fail_after
        self.submitted = 0

    def submit(self, fn, payload):
        future = Future()
        if self.submitted < self.fail_after:
            future.set_result(fn(payload))
        else:
            future.set_exception(BrokenProcessPool("workers died"))
        self.submitted += 1
        return future

    def shutdown(self, wait=True):
        pass


def test_fork_unavailable_degrades_serially_with_plan_warning(monkeypatch):
    monkeypatch.setattr(
        worker_pool_module, "ProcessPoolExecutor", _UnavailableExecutor
    )
    pool = WorkerPool(2)
    with pytest.warns(PlanWarning, match="could not start"):
        assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]
    assert pool.broken
    assert any("could not start" in line for line in pool.take_decisions())
    # the degrade is permanent and quiet afterwards: no pool restart, no
    # second warning
    assert pool.map(_square, [5, 6]) == [25, 36]
    assert pool.take_decisions() == []


def test_broken_pool_reruns_only_unfinished_payloads(monkeypatch):
    monkeypatch.setattr(worker_pool_module, "ProcessPoolExecutor", _FlakyExecutor)
    calls = []

    def tracked(value):
        calls.append(value)
        return value * 10

    pool = WorkerPool(2)
    with pytest.warns(PlanWarning, match="broke mid-map"):
        assert pool.map(tracked, [1, 2, 3, 4]) == [10, 20, 30, 40]
    # payloads 1 and 2 completed before the break (inline, so recorded
    # once); only 3 and 4 were re-run serially — nothing ran twice
    assert calls == [1, 2, 3, 4]
    assert pool.broken


def test_degrade_is_drained_as_plan_decision(monkeypatch):
    monkeypatch.setattr(
        worker_pool_module, "ProcessPoolExecutor", _UnavailableExecutor
    )
    pool = WorkerPool(2)
    with pytest.warns(PlanWarning):
        results = pool.map(_square, [1, 2, 3])
    assert results == [1, 4, 9]
    decisions = pool.take_decisions()
    assert any("serially in-process" in line for line in decisions)
    assert pool.take_decisions() == []


def test_run_scoped_pool_degrade_lands_on_the_plan(monkeypatch):
    # no caller pool: the executor builds one for the run, and its
    # degrade events still reach the plan
    from repro.discovery import PfdDiscoverer
    from repro.engine import DataSource, build_executor, plan_detection

    monkeypatch.setattr(
        worker_pool_module, "ProcessPoolExecutor", _UnavailableExecutor
    )
    dataset = build_dataset("zip_city_state", n_rows=90, seed=11)
    rules = PfdDiscoverer(_session_config()).discover(dataset.table)
    plan = plan_detection(dataset.table.n_rows, _session_config())
    with pytest.warns(PlanWarning, match="could not start"):
        build_executor(plan).run_detection(plan, DataSource(dataset.table), rules)
    assert any("serially in-process" in line for line in plan.decisions)


# -- warm cache ------------------------------------------------------------------


def test_map_cached_skips_recompute_on_same_keys():
    calls = []

    def tracked(value):
        calls.append(value)
        return value + 100

    pool = WorkerPool(1)  # serial: calls are observable in-process
    keys = [("shard", 0, 0), ("shard", 1, 0)]
    assert pool.map_cached(tracked, keys, payloads=[1, 2]) == [101, 102]
    assert calls == [1, 2]
    # same keys: results come from the warm cache, payloads never touched
    def explode(_index):
        raise AssertionError("payload_for must not be called on a warm hit")

    assert pool.map_cached(tracked, keys, payload_for=explode) == [101, 102]
    assert calls == [1, 2]
    assert pool.warm_hits == 2
    # a changed key (bumped shard version) misses and recomputes
    bumped = [("shard", 0, 1), ("shard", 1, 0)]
    assert pool.map_cached(tracked, bumped, payloads=[5, 2]) == [105, 102]
    assert calls == [1, 2, 5]
    pool.close()


def test_map_cached_none_keys_never_cache():
    calls = []

    def tracked(value):
        calls.append(value)
        return value

    pool = WorkerPool(1)
    assert pool.map_cached(tracked, [None, None], payloads=[1, 2]) == [1, 2]
    assert pool.map_cached(tracked, [None, None], payloads=[1, 2]) == [1, 2]
    assert calls == [1, 2, 1, 2]
    assert pool.warm_hits == 0
    pool.close()


def test_warm_cache_is_bounded_lru():
    pool = WorkerPool(1, warm_cache_entries=2)
    pool.map_cached(_square, ["a", "b"], payloads=[2, 3])
    pool.map_cached(_square, ["c"], payloads=[4])  # evicts "a"
    pool.map_cached(_square, ["a"], payloads=[2])  # miss again
    assert pool.warm_hits == 0
    pool.map_cached(_square, ["c"], payloads=[4])  # still resident
    assert pool.warm_hits == 1
    pool.close()


def test_clear_warm_cache_forgets_everything():
    pool = WorkerPool(1)
    pool.map_cached(_square, ["k"], payloads=[3])
    pool.clear_warm_cache()
    pool.map_cached(_square, ["k"], payloads=[3])
    assert pool.warm_hits == 0
    pool.close()


# -- session lifecycle -----------------------------------------------------------


def _session_config():
    return DiscoveryConfig(
        min_coverage=0.4,
        allowed_violation_ratio=0.2,
        shard_rows=13,
        n_workers=2,
    )


def test_session_pool_maps_at_detection_and_serves_recheck():
    dataset = build_dataset("zip_city_state", n_rows=90, seed=11)
    with AnmatSession(dataset_name="pool-reuse", config=_session_config()) as session:
        session.load_table(dataset.table)
        session.run_discovery()
        # discovery mines merged encodings in-process: no pool yet
        assert session._worker_pool is None
        session.confirm_all()
        session.run_detection()
        pool = session._worker_pool
        assert pool is not None and not pool.closed
        maps_after_detection = pool.maps_run
        assert maps_after_detection > 0, "detection must map over the pool"
        session.edit_cell(0, "city", "")
        session.recheck()
        # the edited table is re-cut: the fallback is recorded on the plan
        assert session.last_plan.rule_maintenance == "full"
        assert any("falling back" in d for d in session.last_plan.decisions)
        assert session._worker_pool is pool, "recheck's detection must reuse the pool"
        assert pool.maps_run > maps_after_detection
    assert pool.closed


def test_session_redetection_after_edit_hits_the_warm_cache():
    from repro.detection import ErrorDetector
    from repro.sharding import ShardedTable

    dataset = build_dataset("zip_city_state", n_rows=90, seed=11)
    with AnmatSession(dataset_name="warm", config=_session_config()) as session:
        session.load_table(ShardedTable.from_table(dataset.table, 13))
        session.run_discovery()
        session.confirm_all()
        session.run_detection()
        pool = session._worker_pool
        assert pool.warm_hits == 0
        # the sealed view after an edit keeps untouched shards' versions
        session.edit_cell(0, "city", "Mutated")
        report = session.run_detection()
        assert pool.warm_hits > 0, "unchanged shards should hit the warm cache"
        expected = ErrorDetector(session.table.materialize()).detect_all(
            session.confirmed_pfds()
        )
    assert report.canonical_violations() == expected.canonical_violations()


def test_session_without_workers_starts_no_pool():
    dataset = build_dataset("zip_city_state", n_rows=90, seed=11)
    config = _session_config().with_overrides(n_workers=0)
    with AnmatSession(dataset_name="no-workers", config=config) as session:
        session.load_table(dataset.table)
        session.run_discovery()
        assert session._worker_pool is None
    # the pool lifecycle is no longer a config option
    with pytest.raises(TypeError, match="pool"):
        DiscoveryConfig(pool="per-call")


def test_recut_after_edit_misses_the_warm_cache():
    # an edited monolithic table is re-cut into fresh shards whose
    # versions restart at 0; their statistics must not hit the cache
    # entries of the previous cut
    from repro.detection import ErrorDetector

    dataset = build_dataset("zip_city_state", n_rows=90, seed=11)
    table = dataset.table.copy()
    with AnmatSession(dataset_name="recut", config=_session_config()) as session:
        session.load_table(table)
        session.run_discovery()
        session.confirm_all()
        session.run_detection()
        table.set_cell(0, "city", "Mutated")
        table.set_cell(50, "state", "ZZ")
        report = session.run_detection()
        expected = ErrorDetector(table).detect_all(session.confirmed_pfds())
    assert report.canonical_violations() == expected.canonical_violations()


def test_no_leaked_processes_after_session_context_exit():
    dataset = build_dataset("zip_city_state", n_rows=90, seed=11)
    with AnmatSession(dataset_name="leak", config=_session_config()) as session:
        session.load_table(dataset.table)
        session.run_discovery()
        session.confirm_all()
        session.run_detection()
        pool = session._worker_pool
        processes = (
            list(pool._executor._processes.values()) if pool.started else []
        )
    assert pool.closed
    assert all(not process.is_alive() for process in processes)


def test_plan_records_pool_decisions():
    config = DiscoveryConfig(shard_rows=8, n_workers=2, store="object")
    dataset = build_dataset("zip_city_state", n_rows=40, seed=5)
    with AnmatSession(dataset_name="decisions", config=config) as session:
        session.load_table(dataset.table)
        plan = session.plan_detection()
        discovery_plan = session.plan_discovery()
    assert any("WorkerPool of 2 processes" in line for line in plan.decisions)
    assert not any("WorkerPool" in line for line in discovery_plan.decisions)
    assert "workers=2" in plan.describe()
