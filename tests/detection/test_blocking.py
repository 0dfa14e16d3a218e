"""Tests for blocking helpers."""

from repro.constrained.constrained_pattern import ConstrainedPattern
from repro.dataset.table import Table
from repro.detection.blocking import (
    block_by_key,
    block_by_projection,
    majority_value,
    split_block_by_rhs,
)


def groups(values):
    """``value → rows`` of one column, as ``Table.group_rows`` builds it."""
    return Table(["v"], [values]).group_rows("v")


class TestBlockByKey:
    def test_groups_by_key(self):
        blocks = block_by_key(groups(["90001", "90002", "60601"]), key=lambda v: v[:3])
        assert blocks == {"900": [0, 1], "606": [2]}

    def test_none_keys_are_dropped(self):
        values = ["90001", "bad", "90002"]
        blocks = block_by_key(groups(values), key=lambda v: v[:3] if v.isdigit() else None)
        assert blocks == {"900": [0, 2]}

    def test_value_subset(self):
        blocks = block_by_key({"60601": [2]}, key=lambda v: v[:3])
        assert blocks == {"606": [2]}

    def test_blocks_keep_row_order_across_values(self):
        # rows of several values interleave in a block: ascending, and
        # blocks in the order of their first row
        values = ["60602", "90001", "60601", "90002", "60602", "90001"]
        blocks = block_by_key(groups(values), key=lambda v: v[:3])
        assert list(blocks.items()) == [("606", [0, 2, 4]), ("900", [1, 3, 5])]


class TestBlockByProjection:
    def test_zip_prefix_projection(self):
        q = ConstrainedPattern.parse("⟨\\D{3}⟩\\D{2}")
        values = ["90001", "90002", "60601", "banana"]
        blocks = block_by_projection(groups(values), q)
        assert blocks == {("900",): [0, 1], ("606",): [2]}

    def test_first_name_projection(self):
        from repro.constrained.constrained_pattern import constrained_first_token

        q = constrained_first_token()
        values = ["John Charles", "John Bosco", "Susan Boyle"]
        blocks = block_by_projection(groups(values), q)
        assert blocks == {("John ",): [0, 1], ("Susan ",): [2]}


class TestBlockSplitting:
    def test_split_block_by_rhs(self):
        rhs = ["LA", "LA", "NY", "LA"]
        groups = split_block_by_rhs([0, 1, 2, 3], rhs)
        assert groups == {"LA": [0, 1, 3], "NY": [2]}

    def test_majority_value(self):
        assert majority_value({"LA": [0, 1, 3], "NY": [2]}) == "LA"

    def test_majority_tie_breaks_lexicographically(self):
        # deterministic: with equal counts the lexicographically larger wins
        assert majority_value({"AA": [0], "ZZ": [1]}) == "ZZ"
        assert majority_value({"B": [0], "A": [1]}) == "B"
