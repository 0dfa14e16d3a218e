"""Delta-shard semantics of the mergeable per-shard statistics.

``merged = base − old_delta + new_delta``: retracting one shard's pair
groups (:func:`unmerge_pair_groups`) and merging a replacement back
(:func:`merge_into_pair_groups`) must leave the statistic equal to a
from-scratch merge over the replacement shards — for any shard, in any
order, including delta shards that are empty or that remove every row of
a distinct value.
"""

from __future__ import annotations

import random

import pytest

from repro.sharding import (
    MergedPairGroups,
    extract_pair_groups,
    merge_into_pair_groups,
    merge_pair_groups,
    unmerge_pair_groups,
)

SEEDS = [3, 11, 58]


def random_columns(rng, n_rows, n_lhs=5, n_rhs=4):
    lhs = [f"L{rng.randrange(n_lhs)}" for _ in range(n_rows)]
    rhs = [f"R{rng.randrange(n_rhs)}" for _ in range(n_rows)]
    return lhs, rhs


def make_shards(rng, shard_sizes):
    """Per-shard (lhs, rhs, offset) triples with contiguous offsets."""
    shards = []
    offset = 0
    for size in shard_sizes:
        lhs, rhs = random_columns(rng, size)
        shards.append((lhs, rhs, offset))
        offset += size
    return shards


def merged_of(shards):
    return merge_pair_groups(
        [extract_pair_groups(lhs, rhs, offset) for lhs, rhs, offset in shards]
    )


def as_plain(merged: MergedPairGroups):
    """A comparable snapshot: nested dicts with plain row-id lists."""
    return {
        lhs: {rhs: list(rows) for rhs, rows in by_rhs.items()}
        for lhs, by_rhs in merged.groups.items()
    }


def assert_equal_statistic(actual: MergedPairGroups, expected: MergedPairGroups):
    assert as_plain(actual) == as_plain(expected)
    assert actual.sorted_values == expected.sorted_values
    assert actual.n_distinct == expected.n_distinct


class TestPairGroupRoundTrips:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_unmerge_then_merge_identity(self, seed):
        """Retracting and re-adding the same shard is the identity."""
        rng = random.Random(seed)
        shards = make_shards(rng, [7, 1, 12, 0, 9])
        merged = merged_of(shards)
        baseline = merged_of(shards)
        for lhs, rhs, offset in shards:
            delta = extract_pair_groups(lhs, rhs, offset)
            unmerge_pair_groups(merged, delta)
            merge_into_pair_groups(
                merged, extract_pair_groups(lhs, rhs, offset)
            )
            assert_equal_statistic(merged, baseline)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_replace_shards_in_random_order(self, seed):
        """base − old + new, applied per shard in a random permutation,
        equals a fresh merge over the replacement shards."""
        rng = random.Random(seed)
        sizes = [7, 1, 12, 9, 5]
        old_shards = make_shards(rng, sizes)
        new_shards = [
            (new_lhs, new_rhs, offset)
            for (_, _, offset), (new_lhs, new_rhs) in zip(
                old_shards,
                (random_columns(rng, size) for size in sizes),
            )
        ]
        merged = merged_of(old_shards)
        order = list(range(len(sizes)))
        rng.shuffle(order)
        for index in order:
            old_lhs, old_rhs, offset = old_shards[index]
            new_lhs, new_rhs, _ = new_shards[index]
            unmerge_pair_groups(
                merged, extract_pair_groups(old_lhs, old_rhs, offset)
            )
            merge_into_pair_groups(
                merged, extract_pair_groups(new_lhs, new_rhs, offset)
            )
        assert_equal_statistic(merged, merged_of(new_shards))

    def test_empty_delta_shard(self):
        """A zero-row shard contributes nothing and retracts nothing."""
        rng = random.Random(7)
        shards = make_shards(rng, [5, 0, 5])
        merged = merged_of(shards)
        baseline = merged_of(shards)
        empty = extract_pair_groups([], [], 5)
        assert empty == {}
        unmerge_pair_groups(merged, empty)
        merge_into_pair_groups(merged, empty)
        assert_equal_statistic(merged, baseline)

    def test_delta_removes_every_row_of_a_distinct_value(self):
        """When the replacement shard drops the only rows carrying a
        distinct LHS value, the value must disappear from the statistic
        (groups and sorted_values both)."""
        # shard 0 is the only shard mentioning LHS value "ONLY"
        shard0 = (["ONLY", "ONLY", "A"], ["x", "x", "y"], 0)
        shard1 = (["A", "B", "A"], ["y", "z", "y"], 3)
        merged = merged_of([shard0, shard1])
        assert "ONLY" in merged.sorted_values
        replacement = (["A", "B", "A"], ["y", "z", "q"], 0)
        unmerge_pair_groups(merged, extract_pair_groups(*shard0))
        merge_into_pair_groups(merged, extract_pair_groups(*replacement))
        expected = merged_of([replacement, shard1])
        assert "ONLY" not in merged.sorted_values
        assert_equal_statistic(merged, expected)

    def test_delta_removes_every_rhs_of_a_pair(self):
        """Retraction that empties one (lhs, rhs) row list prunes the RHS
        entry but keeps the LHS value alive via its other RHS values."""
        shard0 = (["A", "A"], ["x", "y"], 0)
        shard1 = (["A"], ["y"], 2)
        merged = merged_of([shard0, shard1])
        replacement = (["A", "A"], ["y", "y"], 0)
        unmerge_pair_groups(merged, extract_pair_groups(*shard0))
        merge_into_pair_groups(merged, extract_pair_groups(*replacement))
        expected = merged_of([replacement, shard1])
        assert "x" not in merged.groups["A"]
        assert_equal_statistic(merged, expected)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_row_lists_stay_ascending(self, seed):
        """The contiguous-splice invariant: after any replacement, every
        row list is strictly ascending (what matching/lookup relies on)."""
        rng = random.Random(seed)
        shards = make_shards(rng, [6, 6, 6])
        merged = merged_of(shards)
        lhs, rhs, offset = shards[1]
        new_lhs, new_rhs = random_columns(rng, 6)
        unmerge_pair_groups(merged, extract_pair_groups(lhs, rhs, offset))
        merge_into_pair_groups(
            merged, extract_pair_groups(new_lhs, new_rhs, offset)
        )
        for by_rhs in merged.groups.values():
            for rows in by_rhs.values():
                assert list(rows) == sorted(set(rows))
