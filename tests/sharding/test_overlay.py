"""Unit tests for the shard-overlay edit loop.

The load-bearing property is *protocol parity*: a :class:`ShardOverlay`
over a sharded base must behave exactly like the monolithic
:class:`Table` it replaces — same reads, same cell writes, same error
messages — while the base store is never written and a row id means the
same row in the overlay, in every seal and in the base.  The one
difference: the overlay never reads the cell a write replaces, so it
counts a write of the value the cell already holds as a mutation too.
"""

import random

import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataset import Table
from repro.errors import TableError
from repro.sharding import InMemoryShardStore, ShardedTable, ShardOverlay, make_shard_store
from repro.sharding.overlay import OverlayShardStore
from sharded_values import column_of, rows_of


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
            target.set_cell(7, "code", 999)  # stringified like a Table cell
            target.set_cell(2, "label", "")
            target.set_cell(9, "code", None)  # the last, one-row shard
            target.set_cell(3, "label", "shard-1")
        assert_same_state(table, overlay)
        assert overlay.version == 5

    def test_the_last_write_of_a_cell_wins(self, pair):
        table, overlay = pair
        for target in (table, overlay):
            for value in ("a", "b", "c"):
                target.set_cell(4, "label", value)
            for row in (3, 4, 5):  # every row of base shard 1
                target.set_cell(row, "code", f"c{row}")
        assert_same_state(table, overlay)
        assert overlay.row(4) == ("c4", "c")
        assert overlay.version == 6

    def test_same_value_set_cell_is_recorded(self, pair):
        # the overlay does not read the cell it replaces, so a write of
        # the value already there is a mutation (a Table skips it)
        table, overlay = pair
        for target in (table, overlay):
            target.set_cell(3, "label", table.cell(3, "label"))
        assert overlay.version == 1
        assert overlay.is_touched
        assert_same_state(table, overlay)

    def test_mutation_error_parity(self, pair):
        table, overlay = pair
        cases = [
            lambda t: t.set_cell(99, "code", "x"),
            lambda t: t.set_cell(-1, "code", "x"),
            lambda t: t.set_cell(10, "label", "x"),
            lambda t: t.cell(10, "code"),
        ]
        for case in cases:
            with pytest.raises(TableError) as table_err:
                case(table)
            with pytest.raises(TableError) as overlay_err:
                case(overlay)
            assert str(overlay_err.value) == str(table_err.value)

    def test_mutations_read_no_base_shard(self, monkeypatch):
        # the overlay records writes without reading the cells they
        # replace
        _table, sharded = make_base()
        overlay = ShardOverlay(sharded)
        reads = []
        real_get = InMemoryShardStore.get
        monkeypatch.setattr(
            InMemoryShardStore, "get", lambda self, i: reads.append(i) or real_get(self, i)
        )
        overlay.set_cell(4, "label", "x")
        overlay.set_cell(7, "code", "y")
        overlay.set_cell(0, "code", "z")
        overlay.set_cell(9, "label", "w")
        assert reads == []
        assert overlay.n_rows == 10

    def test_base_store_never_written(self, pair):
        table, overlay = pair
        store = overlay.base.store
        before = [list(store.get(i).iter_rows()) for i in range(store.n_shards)]
        overlay.set_cell(0, "code", "changed")
        overlay.set_cell(4, "label", "changed")
        overlay.set_cell(9, "code", "changed")
        assert [list(store.get(i).iter_rows()) for i in range(store.n_shards)] == before


class TestMaterialize:
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
            target.set_cell(6, "label", "six")
            target.set_cell(9, "code", "400")
        sealed = overlay.as_sharded()
        assert sealed.n_rows == table.n_rows
        assert rows_of(sealed) == list(table.iter_rows())
        for name in table.column_names():
            assert column_of(sealed, name) == table.column(name)
        # the seal keeps the base's layout: the same shards, row for row
        assert sealed.n_shards == overlay.base.n_shards
        assert sealed.store.shard_row_counts() == [3, 3, 3, 1]

    def test_seal_patches_only_its_edited_shards(self, pair, patched_shards):
        table, overlay = pair
        for target in (table, overlay):
            target.set_cell(0, "code", "A")
        sealed = overlay.as_sharded()
        # a cold read patches the edited shard; the others pass through
        encoding = sealed.column_encodings(["code"])["code"]
        assert patched_shards == [0]
        assert column_of(sealed, "code") == table.column("code")
        # a seal never changes, so what it derived stays valid
        assert sealed.column_encodings(["code"])["code"] is encoding
        # a seal is a snapshot: a further edit never reaches it...
        for target in (table, overlay):
            target.set_cell(0, "code", "B")
            target.set_cell(7, "label", "C")  # base shard 2
        assert sealed.store.get(0).cell(0, "code") == "A"
        assert column_of(sealed, "code")[0] == "A"
        # ...the next seal patches exactly the shards edited so far
        patched_shards.clear()
        after = overlay.as_sharded()
        assert rows_of(after) == list(table.iter_rows())
        assert patched_shards == [0, 2]

    def test_seal_is_cached_per_version(self, pair):
        table, overlay = pair
        overlay.set_cell(1, "label", "patched")
        view = overlay.as_sharded()
        assert view.store.get(0).cell(1, "label") == "patched"
        # every op until the next edit reads the same seal (what it
        # derived, such as the profile, survives between ops)
        assert overlay.as_sharded() is view
        assert view.profile() is overlay.as_sharded().profile()
        overlay.set_cell(2, "label", "again")
        assert overlay.as_sharded() is not view
        # the overlay does not read the cell it replaces, so a write of
        # the value already there is a new version with a new seal
        again = overlay.as_sharded()
        overlay.set_cell(2, "label", "again")
        assert overlay.as_sharded() is not again
        assert overlay.as_sharded().store.get(0).cell(2, "label") == "again"

    def test_sealed_profile_matches_the_materialized_profile(self, pair):
        from repro.dataset.profiling import profile_table

        table, overlay = pair
        assert overlay.as_sharded().profile() == profile_table(table)
        for target in (table, overlay):
            target.set_cell(0, "code", "999")
            target.set_cell(9, "label", "")
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

    @pytest.mark.parametrize("kind", ["spill", "object"])
    def test_patched_shards_are_not_kept_resident(self, kind, tmp_path):
        """A seal keeps no patched shard: after a cold encoding pass,
        no more shards stay alive than the base store's cache holds."""
        from repro.sharding import SpillToDiskShardStore
        from repro.sharding.object_store import ObjectShardStore

        cache_shards = 1
        if kind == "spill":
            store = SpillToDiskShardStore(tmp_path / "spill", cache_shards=cache_shards)
        else:
            store = ObjectShardStore(root=tmp_path / "objects", cache_shards=cache_shards)
        table, _sharded = make_base(n_rows=400)
        overlay = ShardOverlay(ShardedTable.from_table(table, 40, store=store))
        try:
            for shard in range(10):
                overlay.set_cell(shard * 40 + 7, "label", "x")  # one edit in every shard
            sealed = overlay.as_sharded()
            returned = []
            get = sealed.store.get

            def recording_get(index):
                shard = get(index)
                returned.append(weakref.ref(shard))
                return shard

            sealed.store.get = recording_get
            sealed.column_encodings(["code", "label"])
            assert len(returned) == 10
            gc.collect()
            alive = [ref for ref in returned if ref() is not None]
            assert len(alive) <= cache_shards
        finally:
            overlay.close()

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
        )[0]
        for name, encoding in encodings.items()
    }


def fresh_encodings(sealed):
    """The seal's column encodings, built from its shards."""
    from repro.kernels.encoder import encode_column

    return {
        name: encode_column(column_of(sealed, name))
        for name in sealed.column_names()
    }


def assert_encodings_equal(left, right):
    assert left.keys() == right.keys()
    for name in left:
        assert left[name].distinct == right[name].distinct, name
        assert left[name].codes.tolist() == right[name].codes.tolist(), name


class TestEditedCells:
    def test_cells_address_base_rows(self):
        table, sharded = make_base(n_rows=10, shard_rows=4)
        overlay = ShardOverlay(sharded)
        for target in (table, overlay):
            target.set_cell(2, "label", "e2")  # shard 0
            target.set_cell(5, "code", "e5")  # shard 1, local row 1
            target.set_cell(9, "label", "e9")  # the last shard
            target.set_cell(9, "label", "t9")  # rewritten: listed once
        sealed = overlay.as_sharded()
        cells = sorted(sealed.store.edited_cells())
        assert cells == [(2, "label", "e2"), (5, "code", "e5"), (9, "label", "t9")]
        for row, name, value in cells:
            assert table.cell(row, name) == value

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

    def test_another_overlay_of_the_same_base_is_not_extended(self):
        _table, sharded = make_base()
        one, other = ShardOverlay(sharded), ShardOverlay(sharded)
        one.set_cell(1, "code", "A")
        other.set_cell(2, "code", "A")  # same shard, another cell
        assert not one.as_sharded().store.extends(other.as_sharded().store)
        other_base = make_base()[1]
        edited = ShardOverlay(other_base)
        edited.set_cell(0, "code", "A")
        assert not edited.as_sharded().store.extends(sharded.store)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.tuples(
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
def test_property_cells_patch_an_earlier_seal_into_the_next(earlier, edits):
    """Cell edits, a seal, then more cell edits: the later seal extends
    the earlier one, and writing its edited cells into the earlier
    seal's encodings gives the later seal's encodings."""
    table, sharded = make_base(n_rows=10, shard_rows=3)
    overlay = ShardOverlay(sharded)
    for row, name, value in earlier:
        for target in (table, overlay):
            target.set_cell(row % target.n_rows, name, value)
    first = overlay.as_sharded()
    assert rows_of(first) == list(table.iter_rows())
    for row, name, value in edits:
        overlay.set_cell(row % overlay.n_rows, name, value)
    second = overlay.as_sharded()
    if second is first:
        return
    assert second.store.extends(first.store)
    patched = patch_encodings(fresh_encodings(first), second.store.edited_cells())
    assert_encodings_equal(patched, fresh_encodings(second))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["memory", "spill", "object"])
def test_a_seal_keeps_the_base_layout_on_every_store(kind, seed, tmp_path):
    """After random cell edits, on every store: the seal's shards have
    the base's row counts, and every edited cell addresses the overlay
    row that holds it."""
    table, _sharded = make_base(n_rows=23, shard_rows=5)
    directory = None if kind == "memory" else tmp_path / kind
    base = ShardedTable.from_table(table, 5, store=make_shard_store(kind, directory))
    overlay = ShardOverlay(base)
    rng = random.Random(seed)
    try:
        for _ in range(12):
            row = rng.randrange(overlay.n_rows)
            name = rng.choice(overlay.column_names())
            overlay.set_cell(row, name, rng.choice(["100", "v1", f"new{seed}", ""]))
            table.set_cell(row, name, overlay.cell(row, name))
        seal = overlay.as_sharded()
        assert seal.store.shard_row_counts() == base.shard_row_counts() == [5, 5, 5, 5, 3]
        cells = list(seal.store.edited_cells())
        assert cells
        for row, name, value in cells:
            assert overlay.cell(row, name) == value
        assert rows_of(seal) == list(table.iter_rows())
    finally:
        overlay.close()
