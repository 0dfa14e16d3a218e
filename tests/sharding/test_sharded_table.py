"""Unit tests for ShardedTable and the mergeable statistics."""

from __future__ import annotations

import pytest

from repro.dataset import Table
from repro.dataset.rowids import row_ids
from repro.errors import TableError
from repro.sharding import ShardedTable, extract_pair_groups
from repro.sharding.detection import pair_groups


def make_table(n_rows: int) -> Table:
    return Table.from_rows(
        ["code", "label"],
        [[f"{i % 5:03d}", f"L{i % 3}"] for i in range(n_rows)],
    )


class TestShardedTable:
    def test_from_table_partitions_in_order(self):
        table = make_table(10)
        sharded = ShardedTable.from_table(table, 4)
        assert sharded.n_shards == 3
        assert [s.n_rows for s in sharded.shards] == [4, 4, 2]
        assert sharded.n_rows == 10
        assert [sharded.offset_of(i) for i in range(3)] == [0, 4, 8]

    def test_round_trip_to_table(self):
        table = make_table(11)
        assert ShardedTable.from_table(table, 3).to_table() == table

    def test_single_and_oversized_shard(self):
        table = make_table(6)
        assert ShardedTable.from_table(table, 6).n_shards == 1
        assert ShardedTable.from_table(table, 100).n_shards == 1
        assert ShardedTable.from_table(table, 1).n_shards == 6

    def test_zero_row_table_becomes_one_empty_shard(self):
        sharded = ShardedTable.from_table(Table.empty(["a", "b"]), 5)
        assert sharded.n_shards == 1
        assert sharded.n_rows == 0
        assert sharded.to_table().n_rows == 0

    def test_invalid_shard_rows_rejected(self):
        with pytest.raises(TableError):
            ShardedTable.from_table(make_table(4), 0)

    def test_mismatched_shard_schemas_rejected(self):
        a = Table.from_rows(["x"], [["1"]])
        b = Table.from_rows(["y"], [["2"]])
        with pytest.raises(TableError):
            ShardedTable([a, b])
        with pytest.raises(TableError):
            ShardedTable([])

    def test_locate_and_global_row_are_inverse(self):
        sharded = ShardedTable.from_table(make_table(10), 3)
        for global_row in range(10):
            shard_index, local_row = sharded.locate(global_row)
            assert sharded.global_row(shard_index, local_row) == global_row
        with pytest.raises(TableError):
            sharded.locate(10)

    def test_column_concat_matches_monolithic_column(self):
        table = make_table(9)
        sharded = ShardedTable.from_table(table, 2)
        assert sharded.column_concat("code") == table.column("code")

    def test_merged_artifact_invalidated_by_shard_mutation(self):
        sharded = ShardedTable.from_table(make_table(8), 4)
        builds = []
        build = lambda: builds.append(1) or sharded.shards  # noqa: E731
        sharded.merged_artifact("k", build)
        sharded.merged_artifact("k", build)
        assert len(builds) == 1  # cached
        sharded.store.get(0).set_cell(0, "code", "999")
        sharded.merged_artifact("k", build)
        assert len(builds) == 2  # version change rebuilt


class TestPairGroups:
    def test_extract_globalizes_rows(self):
        groups = extract_pair_groups(["a", "b", "a"], ["x", "y", "z"], offset=10)
        assert groups == {
            "a": {"x": row_ids([10]), "z": row_ids([12])},
            "b": {"y": row_ids([11])},
        }

    def test_pair_groups_span_shards_in_row_order(self):
        sharded = ShardedTable.from_chunks(
            [
                Table(["code", "label"], [["a", "a"], ["x", "x"]]),
                Table(["code", "label"], [["a", "c"], ["x", "y"]]),
            ]
        )
        merged = pair_groups(sharded, "code", "label")
        assert list(merged.groups["a"]["x"]) == [0, 1, 2]
        assert merged.sorted_values == ["a", "c"]
