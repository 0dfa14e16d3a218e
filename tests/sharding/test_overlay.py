"""Unit tests for the shard-overlay edit loop.

The load-bearing property is *protocol parity*: a :class:`ShardOverlay`
over a sharded base must behave exactly like the monolithic
:class:`Table` it replaces — same reads, same mutation semantics, same
version counter, same error messages — while the base store is never
written.  Its delta log is checked against literal expected deltas.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataset import Table
from repro.errors import TableError
from repro.sharding import InMemoryShardStore, ShardedTable, ShardOverlay
from repro.sharding.overlay import (
    MAX_DELTA_LOG,
    CellEdit,
    OverlayShardStore,
    RowAppend,
    RowDelete,
)


def make_base(n_rows=10, shard_rows=3):
    table = Table.from_rows(
        ["code", "label"],
        [[f"{100 + i}", f"v{i}"] for i in range(n_rows)],
    )
    return table, ShardedTable.from_table(table, shard_rows)


@pytest.fixture
def pair():
    """(mirror Table, overlay over an equal sharded base)."""
    table, sharded = make_base()
    return table.copy(), ShardOverlay(sharded)


def assert_same_state(table, overlay):
    assert overlay.n_rows == table.n_rows
    assert overlay.column_names() == table.column_names()
    assert list(overlay.iter_rows()) == list(table.iter_rows())
    for name in table.column_names():
        assert overlay.column(name) == table.column(name)
    for row in range(table.n_rows):
        assert overlay.row(row) == table.row(row)
        assert overlay.row_dict(row) == table.row_dict(row)


class TestReads:
    def test_fresh_overlay_mirrors_base(self, pair):
        table, overlay = pair
        assert_same_state(table, overlay)
        assert overlay.version == 0
        assert not overlay.is_touched
        assert len(overlay) == table.n_rows

    def test_cell_addressing_across_shards(self, pair):
        table, overlay = pair
        for row in range(table.n_rows):
            for name in table.column_names():
                assert overlay.cell(row, name) == table.cell(row, name)

    def test_out_of_range_reads_match_table_errors(self, pair):
        table, overlay = pair
        for bad in (-1, table.n_rows):
            with pytest.raises(TableError) as table_err:
                table.row(bad)
            with pytest.raises(TableError) as overlay_err:
                overlay.row(bad)
            assert str(overlay_err.value) == str(table_err.value)


class TestMutationParity:
    def test_mixed_edit_session_stays_equal(self, pair):
        table, overlay = pair
        for target in (table, overlay):
            target.set_cell(0, "label", "edited")
            target.set_cell(7, "code", "999")
            target.append_row(["200", "tail"])
            target.delete_row(2)
            target.set_cell(2, "label", "post-shift")  # old row 3
            target.delete_row(target.n_rows - 1)  # the appended tail row
            target.append_row({"code": "201"})  # mapping: label defaults ""
        assert_same_state(table, overlay)
        assert overlay.version == table.version

    def test_delete_shifts_rows_down(self, pair):
        table, overlay = pair
        for target in (table, overlay):
            removed = target.delete_row(4)
            assert removed == ("104", "v4")
        assert_same_state(table, overlay)
        # consecutive tombstones exercise the fixpoint row mapping
        for target in (table, overlay):
            target.delete_row(4)  # old row 5
            target.delete_row(4)  # old row 6
        assert_same_state(table, overlay)
        assert overlay.row(4) == ("107", "v7")

    def test_edit_then_delete_same_region(self, pair):
        table, overlay = pair
        for target in (table, overlay):
            target.set_cell(5, "label", "X")
            target.delete_row(5)
        assert_same_state(table, overlay)

    def test_noop_set_cell_skips_version_bump(self, pair):
        table, overlay = pair
        overlay.set_cell(3, "label", overlay.cell(3, "label"))
        assert overlay.version == 0
        assert overlay.deltas_since(0) == ()

    def test_mutation_error_parity(self, pair):
        table, overlay = pair
        cases = [
            lambda t: t.append_row("oops"),
            lambda t: t.append_row(["only-one"]),
            lambda t: t.append_row({"code": "1", "bogus": "2"}),
            lambda t: t.set_cell(99, "code", "x"),
            lambda t: t.delete_row(-1),
        ]
        for case in cases:
            with pytest.raises(TableError) as table_err:
                case(table)
            with pytest.raises(TableError) as overlay_err:
                case(overlay)
            assert str(overlay_err.value) == str(table_err.value)

    def test_base_store_never_written(self, pair):
        table, overlay = pair
        base_versions = overlay.base.versions()
        before = list(overlay.base.store.get(0).iter_rows())
        overlay.set_cell(0, "code", "changed")
        overlay.delete_row(1)
        overlay.append_row(["300", "new"])
        assert overlay.base.versions() == base_versions
        assert list(overlay.base.store.get(0).iter_rows()) == before


class TestDeltaLog:
    def test_mutations_record_structured_deltas(self, pair):
        table, overlay = pair
        for target in (table, overlay):
            target.set_cell(1, "code", "777")
            target.append_row(["888", "w"])
            target.delete_row(0)
        assert overlay.version == table.version == 3
        deltas = overlay.deltas_since(0)
        assert deltas == (
            CellEdit(version=1, row=1, column="code", old="101", new="777"),
            RowAppend(version=2, row=10, values=("888", "w")),
            RowDelete(version=3, row=0, values=("100", "v0")),
        )
        assert overlay.deltas_since(2) == deltas[2:]
        assert overlay.deltas_since(3) == ()
        assert overlay.deltas_since(4) is None  # future version

    def test_tail_mutations_record_deltas(self):
        _table, sharded = make_base(n_rows=2, shard_rows=2)
        overlay = ShardOverlay(sharded)
        overlay.append_row({"label": "t"})
        overlay.set_cell(2, "code", "5")
        overlay.delete_row(2)
        assert overlay.deltas_since(0) == (
            RowAppend(version=1, row=2, values=("", "t")),
            CellEdit(version=2, row=2, column="code", old="", new="5"),
            RowDelete(version=3, row=2, values=("5", "t")),
        )

    def test_log_trims_past_its_window(self):
        _table, sharded = make_base(n_rows=2, shard_rows=2)
        overlay = ShardOverlay(sharded)
        for i in range(MAX_DELTA_LOG + 10):
            overlay.append_row([str(i), "v"])
        assert overlay.deltas_since(0) is None  # trimmed past the floor
        recent = overlay.deltas_since(overlay.version - 5)
        assert len(recent) == 5


class TestColumnCache:
    def test_column_ref_cached_per_version(self, pair):
        _table, overlay = pair
        first = overlay.column_ref("code")
        assert overlay.column_ref("code") is first
        overlay.set_cell(0, "code", "000")
        rebuilt = overlay.column_ref("code")
        assert rebuilt is not first
        assert rebuilt[0] == "000"

    def test_materialize_builds_equal_table(self, pair):
        table, overlay = pair
        overlay.set_cell(2, "label", "M")
        table.set_cell(2, "label", "M")
        materialized = overlay.materialize()
        assert isinstance(materialized, Table)
        assert list(materialized.iter_rows()) == list(table.iter_rows())


class TestAsSharded:
    def test_untouched_overlay_returns_base_identity(self, pair):
        _table, overlay = pair
        assert overlay.as_sharded() is overlay.base

    def test_untouched_shards_pass_through_by_identity(self, pair):
        _table, overlay = pair
        overlay.set_cell(0, "label", "patched")  # shard 0 only
        sealed = overlay.as_sharded()
        assert isinstance(sealed.store, OverlayShardStore)
        base_store = overlay.base.store
        assert sealed.store.get(1) is base_store.get(1)
        assert sealed.store.get(2) is base_store.get(2)
        assert sealed.store.get(0) is not base_store.get(0)
        assert sealed.store.get(0).cell(0, "label") == "patched"

    def test_sealed_view_equals_overlay(self, pair):
        table, overlay = pair
        for target in (table, overlay):
            target.set_cell(1, "code", "111")
            target.delete_row(6)
            target.append_row(["400", "tail-a"])
            target.append_row(["401", "tail-b"])
        sealed = overlay.as_sharded()
        assert sealed.n_rows == table.n_rows
        assert [sealed.row(i) for i in range(sealed.n_rows)] == list(table.iter_rows())
        for name in table.column_names():
            assert sealed.column_concat(name) == table.column(name)
        # tail rows land in one extra shard
        assert sealed.n_shards == overlay.base.n_shards + 1
        assert sealed.store.shard_row_counts()[-1] == 2

    def test_fully_deleted_shard_stays_as_zero_row_shard(self):
        _table, sharded = make_base(n_rows=6, shard_rows=2)
        overlay = ShardOverlay(sharded)
        overlay.delete_row(2)
        overlay.delete_row(2)  # wipes base shard 1 entirely
        sealed = overlay.as_sharded()
        assert sealed.n_shards == 3  # alignment with the base kept
        assert sealed.store.shard_row_counts() == [2, 0, 2]
        assert sealed.column_concat("code") == ["100", "101", "104", "105"]

    def test_versions_stable_and_edit_sensitive(self, pair):
        _table, overlay = pair
        overlay.set_cell(0, "code", "A")
        sealed = overlay.as_sharded()
        before = sealed.store.versions()
        assert before == sealed.store.versions()  # stable while idle
        # untouched shards keep their base staleness keys, so merged
        # artifacts built over them are reused
        assert before[1:] == overlay.base.versions()[1:]
        assert before[0] != overlay.base.versions()[0]
        # a seal is a snapshot: a further edit never reaches it...
        overlay.set_cell(0, "code", "B")
        assert sealed.store.versions() == before
        assert sealed.store.get(0).cell(0, "code") == "A"
        # ...the *next* seal disagrees exactly on the touched shard, so
        # merged artifacts of the untouched shards stay valid
        after = overlay.as_sharded().store.versions()
        assert after[0] != before[0]
        assert after[1:] == before[1:]

    def test_seal_is_cached_per_version(self, pair):
        table, overlay = pair
        overlay.set_cell(1, "label", "patched")
        view = overlay.as_sharded()
        assert view.cell(1, "label") == "patched"
        # every op until the next edit reads the same seal (merged
        # artifacts such as the profile survive between ops)
        assert overlay.as_sharded() is view
        assert view.profile() is overlay.as_sharded().profile()
        overlay.set_cell(2, "label", "again")
        assert overlay.as_sharded() is not view
        # a no-op write bumps nothing, so the seal is kept
        again = overlay.as_sharded()
        overlay.set_cell(2, "label", "again")
        assert overlay.as_sharded() is again

    def test_sealed_profile_matches_the_materialized_profile(self, pair):
        from repro.dataset.profiling import profile_table

        table, overlay = pair
        assert overlay.as_sharded().profile() == profile_table(table)
        for target in (table, overlay):
            target.set_cell(0, "code", "999")
            target.append_row(["400", "tail"])
        assert overlay.as_sharded().profile() == profile_table(table)

    def test_close_releases_the_base_store(self):
        from repro.sharding import SpillToDiskShardStore

        table, _sharded = make_base()
        store = SpillToDiskShardStore()
        overlay = ShardOverlay(ShardedTable.from_table(table, 4, store=store))
        overlay.set_cell(0, "code", "A")
        overlay.as_sharded()
        spill_dir = store.directory
        assert spill_dir.exists()
        overlay.close()
        assert not spill_dir.exists()
        overlay.close()  # idempotent

    def test_overlay_store_is_read_only(self, pair):
        _table, overlay = pair
        overlay.set_cell(0, "code", "A")
        sealed = overlay.as_sharded()
        with pytest.raises(TableError, match="read-only; edit the overlay"):
            sealed.store.append(Table.from_rows(["code", "label"], [["1", "a"]]))


def patch_encodings(encodings, cells):
    """``encodings`` with the cells written in, column by column."""
    by_column = {}
    for row, name, value in cells:
        by_column.setdefault(name, []).append((row, value))
    return {
        name: encoding.with_cells(
            [row for row, _ in by_column.get(name, [])],
            [value for _, value in by_column.get(name, [])],
        )
        for name, encoding in encodings.items()
    }


def fresh_encodings(sealed):
    """The seal's column encodings, built from its shards."""
    from repro.kernels.encoder import encode_column

    return {
        name: encode_column(sealed.column_concat(name))
        for name in sealed.column_names()
    }


def assert_encodings_equal(left, right):
    assert left.keys() == right.keys()
    for name in left:
        assert left[name].distinct == right[name].distinct, name
        assert left[name].codes.tolist() == right[name].codes.tolist(), name


class TestEditedCells:
    def test_cells_address_seal_rows_around_tombstones(self):
        table, sharded = make_base(n_rows=10, shard_rows=4)
        overlay = ShardOverlay(sharded)
        for target in (table, overlay):
            target.delete_row(1)  # base shard 0 keeps rows 0, 2, 3
            target.set_cell(2, "label", "e2")  # base row 3
            target.set_cell(5, "code", "e5")  # base row 6, shard 1
            target.append_row(["900", "tail"])
            target.set_cell(9, "label", "t9")  # the tail row
        sealed = overlay.as_sharded()
        cells = sorted(sealed.store.edited_cells())
        assert cells == [
            (2, "label", "e2"),
            (5, "code", "e5"),
            (9, "code", "900"),
            (9, "label", "t9"),
        ]
        for row, name, value in cells:
            assert table.cell(row, name) == value

    def test_edits_on_deleted_rows_are_not_cells(self):
        _table, sharded = make_base(n_rows=6, shard_rows=3)
        overlay = ShardOverlay(sharded)
        overlay.set_cell(4, "label", "gone")
        overlay.delete_row(4)
        overlay.set_cell(4, "label", "kept")  # base row 5 now
        assert list(overlay.as_sharded().store.edited_cells()) == [(4, "label", "kept")]

    def test_extends_the_base_and_earlier_seals_of_an_edit_batch(self):
        _table, sharded = make_base()
        overlay = ShardOverlay(sharded)
        overlay.set_cell(0, "code", "A")
        first = overlay.as_sharded().store
        assert first.extends(sharded.store)
        overlay.set_cell(7, "label", "B")
        second = overlay.as_sharded().store
        assert second.extends(first) and second.extends(sharded.store)
        # the earlier seal lacks the later edit
        assert not first.extends(second)

    def test_structural_changes_do_not_extend(self):
        _table, sharded = make_base()
        overlay = ShardOverlay(sharded)
        overlay.set_cell(0, "code", "A")
        before = overlay.as_sharded().store
        overlay.delete_row(4)
        deleted = overlay.as_sharded().store
        assert not deleted.extends(before)
        assert not deleted.extends(sharded.store)
        overlay.append_row(["900", "tail"])
        appended = overlay.as_sharded().store
        assert not appended.extends(deleted)
        # same tombstones, same tail length: cell edits extend again
        overlay.set_cell(8, "label", "C")
        assert overlay.as_sharded().store.extends(appended)

    def test_another_overlay_of_the_same_base_is_not_extended(self):
        _table, sharded = make_base()
        one, other = ShardOverlay(sharded), ShardOverlay(sharded)
        one.delete_row(1)
        other.delete_row(2)  # same shard, same count, other row
        assert not one.as_sharded().store.extends(other.as_sharded().store)
        other_base = make_base()[1]
        edited = ShardOverlay(other_base)
        edited.set_cell(0, "code", "A")
        assert not edited.as_sharded().store.extends(sharded.store)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["set", "set", "set", "delete", "append"]),
            st.integers(0, 1000),
            st.sampled_from(["code", "label"]),
            st.sampled_from(["100", "v1", "x", "", "v7"]),
        ),
        max_size=12,
    ),
    st.lists(
        st.tuples(
            st.integers(0, 1000),
            st.sampled_from(["code", "label"]),
            st.sampled_from(["100", "v1", "y", "", "v9"]),
        ),
        max_size=8,
    ),
)
def test_property_cells_patch_an_earlier_seal_into_the_next(structural, edits):
    """Any mutations, a seal, then cell edits only: the later seal
    extends the earlier one, and writing its edited cells into the
    earlier seal's encodings gives the later seal's encodings."""
    table, sharded = make_base(n_rows=10, shard_rows=3)
    overlay = ShardOverlay(sharded)
    for op, row, name, value in structural:
        for target in (table, overlay):
            if op == "append":
                target.append_row([value, value])
            elif target.n_rows and op == "delete":
                target.delete_row(row % target.n_rows)
            elif target.n_rows:
                target.set_cell(row % target.n_rows, name, value)
    first = overlay.as_sharded()
    for row, name, value in edits:
        if overlay.n_rows:
            overlay.set_cell(row % overlay.n_rows, name, value)
    second = overlay.as_sharded()
    if second is first:
        return
    assert second.store.extends(first.store)
    patched = patch_encodings(fresh_encodings(first), second.store.edited_cells())
    assert_encodings_equal(patched, fresh_encodings(second))
