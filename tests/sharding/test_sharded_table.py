"""Unit tests for ShardedTable and the mergeable statistics."""

from __future__ import annotations

import pytest

from repro.dataset import Table
from repro.dataset.rowids import row_ids
from repro.errors import TableError
from repro.sharding import ShardedTable, extract_pair_groups
from repro.sharding.detection import pair_groups
from sharded_values import column_of, rows_of


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
        assert sharded.shard_row_counts() == [4, 4, 2]
        assert sharded.n_rows == 10
        assert [sharded.offset_of(i) for i in range(3)] == [0, 4, 8]

    def test_shards_concatenate_to_the_table(self):
        table = make_table(11)
        sharded = ShardedTable.from_table(table, 3)
        assert rows_of(sharded) == list(table.iter_rows())
        assert column_of(sharded, "code") == table.column("code")

    def test_single_and_oversized_shard(self):
        table = make_table(6)
        assert ShardedTable.from_table(table, 6).n_shards == 1
        assert ShardedTable.from_table(table, 100).n_shards == 1
        assert ShardedTable.from_table(table, 1).n_shards == 6

    def test_zero_row_table_becomes_one_empty_shard(self):
        sharded = ShardedTable.from_table(Table.empty(["a", "b"]), 5)
        assert sharded.n_shards == 1
        assert sharded.n_rows == 0
        assert sharded.store.get(0).n_rows == 0

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

    def test_locate_inverts_the_offsets(self):
        sharded = ShardedTable.from_table(make_table(10), 3)
        for global_row in range(10):
            shard_index, local_row = sharded.locate(global_row)
            assert sharded.offset_of(shard_index) + local_row == global_row
        with pytest.raises(TableError):
            sharded.locate(10)

    def test_a_shard_list_is_adopted(self):
        shards = [make_table(3), make_table(2)]
        sharded = ShardedTable(shards)
        assert [sharded.store.get(i) for i in range(2)] == shards
        assert all(sharded.store.get(i) is shard for i, shard in enumerate(shards))
        assert sharded.n_rows == 5

    def test_from_table_cuts_copies(self):
        # a view is a snapshot: later writes to the source table never
        # reach the shards or what the view derived from them
        table = make_table(8)
        sharded = ShardedTable.from_table(table, 4)
        encoding = sharded.column_encodings(["code"])["code"]
        table.set_cell(0, "code", "999")
        assert sharded.store.get(0).cell(0, "code") == "000"
        assert sharded.column_encodings(["code"])["code"] is encoding


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
