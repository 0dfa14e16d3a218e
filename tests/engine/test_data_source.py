"""Unit tests for the :class:`DataSource` duality — monolithic sources
vs the never-materialized shard-store sources of the out-of-core
session path."""

import pytest

from repro.dataset import Table
from repro.dataset.profiling import profile_table
from repro.engine import DataSource
from repro.sharding import ShardOverlay, ShardedTable, SpillToDiskShardStore


def small_table(n_rows: int = 10) -> Table:
    return Table(
        ["zip", "city"],
        [
            [f"{90000 + i}" for i in range(n_rows)],
            [f"city{i % 3}" for i in range(n_rows)],
        ],
    )


def lazy_source(n_rows: int = 10, shard_rows: int = 4) -> DataSource:
    sharded = ShardedTable.from_table(small_table(n_rows), shard_rows)
    return DataSource.from_sharded(sharded)


class TestLazySource:
    def test_from_sharded_is_never_materialized(self):
        source = lazy_source()
        assert isinstance(source.view, ShardOverlay)
        assert source.is_sharded_upload
        assert source.upload_shard_rows == 4

    def test_from_sharded_has_no_monolithic_table(self):
        # the planner never runs a sharded upload on the serial backend,
        # so nothing can ask for (and silently build) a monolithic table
        source = lazy_source()
        assert not hasattr(source, "table")
        source.view.set_cell(0, "city", "edited")
        assert not hasattr(source, "table")

    def test_sharded_keyword_is_gone(self):
        sharded = ShardedTable.from_table(small_table(), 4)
        with pytest.raises(TypeError, match="sharded"):
            DataSource(small_table(), sharded=sharded)

    def test_untouched_overlay_returns_the_base_shards(self):
        sharded = ShardedTable.from_table(small_table(), 4)
        source = DataSource.from_sharded(sharded)
        assert source.sharded_view(0) is sharded
        assert source.sharded_view(4) is sharded

    def test_touched_overlay_seals_a_patched_view_cached_by_version(self):
        source = lazy_source()
        source.view.set_cell(1, "city", "patched")
        view = source.sharded_view(0)
        assert view.cell(1, "city") == "patched"
        assert source.sharded_view(0) is view
        source.view.set_cell(2, "city", "again")
        assert source.sharded_view(0) is not view

    def test_explicit_shard_rows_repartitions_by_streaming(self):
        source = lazy_source(n_rows=10, shard_rows=4)
        view = source.sharded_view(3)
        assert view.shard_row_counts() == [3, 3, 3, 1]
        assert view.to_table().column("zip") == small_table().column("zip")
        # the recut view is cached per (version, shard_rows) too
        assert source.sharded_view(3) is view

    def test_repartition_covers_appends_and_deletes(self):
        source = lazy_source(n_rows=6, shard_rows=3)
        source.view.append_row(["99999", "newtown"])
        source.view.delete_row(0)
        view = source.sharded_view(2)
        assert view.n_rows == 6
        assert view.to_table().column("city") == source.view.materialize().column("city")

    def test_profile_streams_and_matches_the_materialized_profile(self):
        source = lazy_source()
        assert source.profile() == profile_table(small_table())

    def test_close_releases_the_spill_store(self):
        store = SpillToDiskShardStore()
        sharded = ShardedTable.from_table(small_table(), 4, store=store)
        source = DataSource.from_sharded(sharded)
        source.sharded_view(3)
        spill_dir = store.directory
        assert spill_dir.exists()
        source.close()
        assert not spill_dir.exists()
        # idempotent
        source.close()


class TestEagerSource:
    def test_view_is_the_monolithic_table(self):
        table = small_table()
        source = DataSource(table)
        assert source.table is table
        assert source.view is table
        assert not source.is_sharded_upload
        assert source.upload_shard_rows == 0

    def test_sharded_view_recut_on_edit_or_size_change(self):
        table = small_table()
        source = DataSource(table)
        first = source.sharded_view(4)
        assert first.shard_row_counts() == [4, 4, 2]
        assert source.sharded_view(4) is first
        recut = source.sharded_view(5)
        assert recut.shard_row_counts() == [5, 5]
        table.set_cell(0, "city", "edited")
        assert source.sharded_view(5) is not recut

    def test_profile_matches_table_profile(self):
        table = small_table()
        assert DataSource(table).profile() == profile_table(table)
