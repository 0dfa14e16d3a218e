"""Randomized equivalence of the tree reduction and the left fold.

The sharded detector replaced its driver-side left fold
(:func:`merge_pair_groups`) with a pairwise tree reduction that can fan
each level out across the worker pool.
Correctness rests on one invariant: merging *adjacent* partials keeps
row lists ascending at every level, so the tree result is value-equal
to the fold for any shard count.  These tests prove that over random
shardings — serial, through a serial ``merge_map``, and through a real
pool-backed shard map — and pin that level-0 inputs (potentially cached
artifacts) are never mutated.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.pool import make_shard_map, serial_map
from repro.engine.worker_pool import WorkerPool
from repro.sharding.stats import (
    extract_pair_groups,
    merge_pair_groups,
    tree_merge_pair_groups,
)

SHARD_COUNTS = [0, 1, 2, 3, 5, 8, 13]


def random_column(rng, n_rows, alphabet):
    return [rng.choice(alphabet) for _ in range(n_rows)]


def random_sharding(rng, n_rows, n_shards):
    """Split ``range(n_rows)`` into ``n_shards`` contiguous runs (some
    possibly empty) and return their (start, stop) bounds."""
    cuts = sorted(rng.randint(0, n_rows) for _ in range(n_shards - 1))
    bounds = []
    start = 0
    for cut in cuts + [n_rows]:
        bounds.append((start, cut))
        start = cut
    return bounds


def groups_as_plain(merged):
    """MergedPairGroups → comparable nested dict with list row ids."""
    return {
        lhs: {rhs: list(rows) for rhs, rows in by_rhs.items()}
        for lhs, by_rhs in merged.groups.items()
    }


def shard_partials(rng, n_shards, n_rows=60):
    lhs = random_column(rng, n_rows, ["a", "b", "c", "d"])
    rhs = random_column(rng, n_rows, ["x", "y", "z"])
    return [
        extract_pair_groups(lhs[start:stop], rhs[start:stop], start)
        for start, stop in random_sharding(rng, n_rows, n_shards)
    ]


@pytest.mark.parametrize("n_shards", [c for c in SHARD_COUNTS if c > 0])
@pytest.mark.parametrize("seed", [0, 7, 42])
def test_tree_merge_pair_groups_equals_fold(n_shards, seed):
    partials = shard_partials(random.Random(seed), n_shards)
    fold = merge_pair_groups(partials)
    tree = tree_merge_pair_groups(partials)
    assert groups_as_plain(tree) == groups_as_plain(fold)
    # row ids stayed ascending through every level
    for by_rhs in tree.groups.values():
        for rows in by_rhs.values():
            assert list(rows) == sorted(rows)


def test_empty_input_merges_to_empty():
    assert groups_as_plain(tree_merge_pair_groups([])) == {}


def test_single_shard_result_does_not_alias_the_input():
    partials = shard_partials(random.Random(1), 1)
    tree = tree_merge_pair_groups(partials)
    some_lhs = next(iter(tree.groups))
    some_rhs = next(iter(tree.groups[some_lhs]))
    tree.groups[some_lhs][some_rhs].append(10_000)
    assert 10_000 not in partials[0][some_lhs][some_rhs]


@pytest.mark.parametrize("n_shards", [2, 5, 8])
def test_level0_partials_are_never_mutated(n_shards):
    partials = shard_partials(random.Random(3), n_shards)
    snapshots = [
        {lhs: {rhs: list(rows) for rhs, rows in by_rhs.items()}
         for lhs, by_rhs in groups.items()}
        for groups in partials
    ]
    tree_merge_pair_groups(partials)
    observed = [
        {lhs: {rhs: list(rows) for rhs, rows in by_rhs.items()}
         for lhs, by_rhs in groups.items()}
        for groups in partials
    ]
    assert observed == snapshots


@pytest.mark.parametrize("n_shards", [2, 3, 7, 10])
def test_tree_merge_through_serial_merge_map(n_shards):
    rng = random.Random(11)
    partials = shard_partials(rng, n_shards)
    expected = groups_as_plain(merge_pair_groups(partials))
    observed = tree_merge_pair_groups(partials, merge_map=serial_map)
    assert groups_as_plain(observed) == expected


def test_tree_merge_through_pool_backed_shard_map():
    rng = random.Random(23)
    partials = shard_partials(rng, 9)
    expected = groups_as_plain(merge_pair_groups(partials))
    with WorkerPool(2) as pool:
        shard_map = make_shard_map(pool)
        observed = tree_merge_pair_groups(partials, merge_map=shard_map)
        assert groups_as_plain(observed) == expected
        # level-0 partials survive a process fan-out untouched too
        # (workers get pickled copies; the driver's dicts are not written)
        assert groups_as_plain(merge_pair_groups(partials)) == expected
