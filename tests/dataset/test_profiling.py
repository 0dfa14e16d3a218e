"""Tests for the column profiler (the Figure 3 backend)."""

import pytest

from repro.dataset.profiling import (
    profile_column,
    profile_encoding,
    profile_sharded,
    profile_table,
)
from repro.dataset.schema import DataType
from repro.dataset.table import Table
from repro.kernels.encoder import encode_chunks


class TestProfileColumn:
    def test_basic_statistics(self):
        profile = profile_column("zip", ["90001", "90002", "90001", ""])
        assert profile.n_values == 4
        assert profile.n_empty == 1
        assert profile.n_distinct == 3  # two zips + the empty string
        assert profile.min_length == 5
        assert profile.max_length == 5
        assert profile.avg_length == pytest.approx(5.0)

    def test_value_patterns(self):
        profile = profile_column("zip", ["90001", "90002", "abc"])
        top = profile.value_patterns[0]
        assert top.pattern_text == "\\D{5}"
        assert top.frequency == 2
        assert top.ratio == pytest.approx(2 / 3)
        assert top.position == 0

    def test_render_format_matches_gui(self):
        profile = profile_column("zip", ["90001", "90002"])
        assert profile.value_patterns[0].render() == "\\D{5}::0, 2"

    def test_token_patterns_have_positions(self):
        profile = profile_column(
            "full_name", ["Holloway, Donald E.", "Jones, Stacey R."]
        )
        positions = {p.position for p in profile.token_patterns}
        assert positions == {0, 1, 2}

    def test_single_token_detection(self):
        codes = profile_column("zip", ["90001", "90002"])
        names = profile_column("name", ["John Smith", "Jane Doe"])
        assert codes.is_single_token
        assert not names.is_single_token

    def test_distinct_ratio(self):
        profile = profile_column("x", ["a", "a", "b", ""])
        assert profile.distinct_ratio == pytest.approx(2 / 3)

    def test_empty_column(self):
        profile = profile_column("x", ["", ""])
        assert profile.dtype is DataType.EMPTY
        assert profile.distinct_ratio == 0.0
        assert profile.value_patterns == []


class TestProfileTable:
    def test_profiles_every_column(self, mixed_table):
        profile = profile_table(mixed_table)
        assert set(profile.column_names()) == set(mixed_table.column_names())
        assert profile.n_rows == mixed_table.n_rows
        assert profile["age"].dtype is DataType.INTEGER

    def test_candidate_columns_exclude_plain_numeric_measures(self):
        table = Table.from_rows(
            ["measure", "city"],
            [[str(i * 17 % 997), "Boston"] for i in range(50)],
        )
        profile = profile_table(table)
        candidates = profile.pfd_candidate_columns()
        assert "city" in candidates
        assert "measure" not in candidates

    def test_candidate_columns_keep_code_like_numeric_columns(self, small_zip_city_state):
        profile = profile_table(small_zip_city_state.table)
        candidates = profile.pfd_candidate_columns()
        assert "zip" in candidates
        assert "city" in candidates
        assert "state" in candidates

    def test_candidate_columns_drop_free_text_keys(self):
        import random

        rng = random.Random(3)
        alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJ 0123456789-"
        rows = []
        for i in range(60):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(5, 30)))
            rows.append([text, "constant"])
        table = Table.from_rows(["free_text", "group"], rows)
        profile = profile_table(table)
        assert "free_text" not in profile.pfd_candidate_columns()

    def test_iteration_and_getitem(self, mixed_table):
        profile = profile_table(mixed_table)
        assert {c.name for c in profile} == set(mixed_table.column_names())
        assert profile["city"].name == "city"


class TestStreamingProfile:
    """The shard-major profiler must equal the monolithic one field for
    field — both profile an encoding's distinct values and counts, one
    built shard by shard, the other from the flat column."""

    def awkward_table(self):
        return Table.from_rows(
            ["zip", "city", "blank", "padded", "num"],
            [
                ["90001", "Los Angeles", "", "  x  ", "1"],
                ["90002", "Los Angeles", "", "\t", "2"],
                ["", "New York", "", "x", "3"],
                ["10001", "New York", "", "", "-4"],
                ["10001", "Boston", "", "  x  ", "5.5"],
            ],
        )

    @pytest.mark.parametrize("shard_rows", [1, 2, 5])
    def test_identical_to_monolithic(self, shard_rows):
        from repro.sharding import ShardedTable

        table = self.awkward_table()
        sharded = ShardedTable.from_table(table, shard_rows)
        assert profile_sharded(sharded) == profile_table(table)

    def test_identical_on_mixed_table(self, mixed_table):
        from repro.sharding import ShardedTable

        sharded = ShardedTable.from_table(mixed_table, 3)
        assert profile_sharded(sharded) == profile_table(mixed_table)

    def test_chunked_encoding_profiles_like_one_shot(self):
        values = ["90001", "90002", "", "abc", "90001"]
        encoding = encode_chunks([value] for value in values)
        assert profile_encoding("zip", encoding) == profile_column("zip", values)

    def test_zero_row_sharded_table(self):
        from repro.sharding import ShardedTable

        table = Table.empty(["a", "b"])
        sharded = ShardedTable.from_table(table, 4)
        assert profile_sharded(sharded) == profile_table(table)
