"""Unit tests for the pluggable shard stores."""

import pytest

from repro.dataset import Table
from repro.errors import TableError
from repro.sharding import (
    InMemoryShardStore,
    LocalObjectClient,
    ObjectShardStore,
    ObjectStoreError,
    RetryPolicy,
    STORE_KINDS,
    ShardedTable,
    SpillToDiskShardStore,
    make_shard_store,
)
from repro.sharding.codec import encode_shard
from sharded_values import column_of


def make_shard(values):
    return Table.from_rows(["code", "label"], values)


SHARD_A = [["10", "x"], ["20", "y"]]
SHARD_B = [["30", "z"]]
#: a well-formed shard with one column too many, for corruption tests
WIDE_SHARD = Table.from_rows(["code", "label", "extra"], [["10", "x", "!"], ["20", "y", "!"]])


@pytest.fixture(params=["memory", "disk", "object"])
def store(request, tmp_path):
    if request.param == "memory":
        return InMemoryShardStore()
    if request.param == "disk":
        return SpillToDiskShardStore(tmp_path / "spill")
    return ObjectShardStore(root=tmp_path / "objects")


class TestStoreContract:
    def test_append_get_roundtrip(self, store):
        store.append(make_shard(SHARD_A))
        store.append(make_shard(SHARD_B))
        assert store.n_shards == 2
        assert len(store) == 2
        assert store.shard_row_counts() == [2, 1]
        assert store.get(0).column("code") == ["10", "20"]
        assert store.get(1).row(0) == ("30", "z")
        assert store.column_names() == ["code", "label"]

    def test_schema_mismatch_rejected(self, store):
        store.append(make_shard(SHARD_A))
        with pytest.raises(TableError, match="shard 1 has columns"):
            store.append(Table.from_rows(["code", "other"], SHARD_B))

    def test_empty_store_has_no_schema(self, store):
        with pytest.raises(TableError, match="empty"):
            store.schema

    def test_sealed_into_sharded_table(self, store):
        store.append(make_shard(SHARD_A))
        store.append(make_shard(SHARD_B))
        sharded = ShardedTable(store)
        assert sharded.n_rows == 3
        assert column_of(sharded, "code") == ["10", "20", "30"]
        assert sharded.store.get(1).cell(0, "label") == "z"
        assert sharded.store is store


class TestSpillToDisk:
    def test_round_trips_awkward_values(self, tmp_path):
        store = SpillToDiskShardStore(tmp_path / "spill")
        awkward = [
            ['has,comma', 'has "quote"'],
            ["multi\nline", ""],
            ["  padded  ", "naïve·unicode"],
        ]
        store.append(make_shard(awkward))
        assert [list(row) for row in store.get(0).iter_rows()] == awkward

    def test_lru_keeps_memory_bounded(self, tmp_path):
        store = SpillToDiskShardStore(tmp_path / "spill", cache_shards=1)
        store.append(make_shard(SHARD_A))
        store.append(make_shard(SHARD_B))
        first = store.get(0)
        assert store.get(0) is first  # cached
        store.get(1)  # evicts shard 0 from the one-slot LRU
        assert store.get(0) is not first  # decoded again from disk
        assert store.get(0).column("code") == first.column("code")

    def test_files_live_in_directory(self, tmp_path):
        directory = tmp_path / "spill"
        store = SpillToDiskShardStore(directory)
        store.append(make_shard(SHARD_A))
        assert sorted(p.name for p in directory.iterdir()) == ["shard_000000.shard"]

    def test_private_tempdir_removed_on_close(self):
        store = SpillToDiskShardStore()
        store.append(make_shard(SHARD_A))
        directory = store.directory
        assert directory.exists()
        store.close()
        assert not directory.exists()

    def test_zero_row_shard_roundtrip(self, tmp_path):
        store = SpillToDiskShardStore(tmp_path / "spill")
        store.append(Table.empty(["code", "label"]))
        assert store.get(0).n_rows == 0
        assert store.shard_row_counts() == [0]

    def test_corrupted_spill_file_rejected_with_file_name(self, tmp_path):
        store = SpillToDiskShardStore(tmp_path / "spill", cache_shards=1)
        store.append(make_shard(SHARD_A))
        path = tmp_path / "spill" / "shard_000000.shard"
        path.write_bytes(encode_shard(WIDE_SHARD))
        with pytest.raises(
            TableError, match="spill file shard_000000.shard has 3 columns, expected 2"
        ):
            store.get(0)

    def test_bad_cache_size_rejected(self, tmp_path):
        with pytest.raises(TableError, match="cache_shards"):
            SpillToDiskShardStore(tmp_path, cache_shards=0)

    def test_corrupted_spill_row_count_mismatch(self, tmp_path):
        # the other corruption branch: a well-formed shard, wrong row count
        store = SpillToDiskShardStore(tmp_path / "spill", cache_shards=1)
        store.append(make_shard(SHARD_A))
        path = tmp_path / "spill" / "shard_000000.shard"
        path.write_bytes(encode_shard(make_shard([["10", "x"]])))
        with pytest.raises(TableError, match="holds 1 rows, expected 2"):
            store.get(0)

    def test_lru_accounting_under_cross_shard_access(self, tmp_path):
        # repeated alternating access across more shards than LRU slots:
        # the resident set never exceeds cache_shards, reloads produce
        # fresh-but-equal tables, and a cache hit refreshes recency
        store = SpillToDiskShardStore(tmp_path / "spill", cache_shards=2)
        shards = [make_shard([[str(10 * i), "v"]]) for i in range(4)]
        for shard in shards:
            store.append(shard)
        for round_trip in range(3):
            for index in (0, 1, 2, 3, 1, 0):
                loaded = store.get(index)
                assert loaded.column("code") == [str(10 * index)]
                assert len(store._loaded) <= 2
        # recency: touching 2 then 3 leaves exactly {2, 3} resident
        store.get(2)
        store.get(3)
        assert sorted(store._loaded) == [2, 3]
        # a hit moves the shard to most-recent, protecting it from the
        # next eviction
        second = store.get(2)
        store.get(0)  # evicts 3, not the freshly touched 2
        assert store.get(2) is second
        assert sorted(store._loaded) == [0, 2]


class FlakyClient(LocalObjectClient):
    """A client whose first ``fail_reads`` get() / ``fail_puts`` put()
    calls raise."""

    def __init__(self, root, fail_reads=0, fail_puts=0):
        super().__init__(root)
        self.fail_reads = fail_reads
        self.fail_puts = fail_puts

    def get(self, key):
        if self.fail_reads > 0:
            self.fail_reads -= 1
            raise ObjectStoreError(f"transient outage reading {key!r}")
        return super().get(key)

    def put(self, key, data):
        if self.fail_puts > 0:
            self.fail_puts -= 1
            raise ObjectStoreError(f"transient outage writing {key!r}", transient=True)
        super().put(key, data)


class TestObjectStore:
    def test_round_trips_awkward_values(self, tmp_path):
        store = ObjectShardStore(root=tmp_path / "objects")
        awkward = [
            ['has,comma', 'has "quote"'],
            ["multi\nline", ""],
            ["  padded  ", "naïve·unicode"],
        ]
        store.append(make_shard(awkward))
        assert [list(row) for row in store.get(0).iter_rows()] == awkward

    def test_objects_live_under_prefix(self, tmp_path):
        store = ObjectShardStore(root=tmp_path / "objects", prefix="ds1")
        store.append(make_shard(SHARD_A))
        store.append(make_shard(SHARD_B))
        assert store.client.list("ds1/") == [
            "ds1/shard_000000.shard",
            "ds1/shard_000001.shard",
        ]

    def test_transient_read_failure_is_retried(self, tmp_path):
        client = FlakyClient(tmp_path / "objects", fail_reads=0)
        store = ObjectShardStore(client=client)
        store.append(make_shard(SHARD_A))
        client.fail_reads = 2  # fewer than the default policy's 3 attempts
        assert store.get(0).column("code") == ["10", "20"]
        assert store.retried_reads == 2

    def test_persistent_read_failure_surfaces(self, tmp_path):
        client = FlakyClient(tmp_path / "objects", fail_reads=99)
        store = ObjectShardStore(client=client, retry_policy=RetryPolicy(max_attempts=3))
        store.append(make_shard(SHARD_A))
        with pytest.raises(TableError, match="unreadable after 3 attempts"):
            store.get(0)
        assert store.retried_reads == 2

    def test_transient_put_failure_is_retried(self, tmp_path):
        # regression: puts used to go out un-retried, so one transient
        # failure lost the shard instead of healing like reads do
        client = FlakyClient(tmp_path / "objects", fail_puts=2)
        store = ObjectShardStore(client=client)
        store.append(make_shard(SHARD_A))
        assert store.retried_puts == 2
        assert store.n_shards == 1
        assert store.get(0).column("code") == ["10", "20"]

    def test_persistent_put_failure_surfaces(self, tmp_path):
        client = FlakyClient(tmp_path / "objects", fail_puts=99)
        store = ObjectShardStore(client=client, retry_policy=RetryPolicy(max_attempts=3))
        with pytest.raises(TableError, match="upload failed after 3 attempts"):
            store.append(make_shard(SHARD_A))
        assert store.n_shards == 0  # the failed shard was never recorded

    def test_checksum_mismatch_rejected(self, tmp_path):
        store = ObjectShardStore(root=tmp_path / "objects")
        store.append(make_shard(SHARD_A))
        # flip bytes behind the store's back: same shape, wrong content
        store.client.put(
            "shards/shard_000000.shard", encode_shard(make_shard([["99", "x"], ["20", "y"]]))
        )
        with pytest.raises(TableError, match="failed its checksum") as excinfo:
            store.get(0)
        # regression: the error must carry enough context to diagnose —
        # which object, how hard we tried, and both digests
        message = str(excinfo.value)
        assert "shards/shard_000000.shard" in message
        assert "attempts" in message
        assert "expected sha256" in message and "got" in message

    def test_deleted_object_surfaces_client_error(self, tmp_path):
        store = ObjectShardStore(root=tmp_path / "objects")
        store.append(make_shard(SHARD_A))
        store.client.delete("shards/shard_000000.shard")
        with pytest.raises(TableError, match="could not be read"):
            store.get(0)

    def test_corrupted_object_wrong_column_count(self, tmp_path):
        store = ObjectShardStore(root=tmp_path / "objects")
        store.append(make_shard(SHARD_A))
        data = encode_shard(WIDE_SHARD)
        store.client.put("shards/shard_000000.shard", data)
        store._meta[0] = store._meta[0][:-1] + (
            __import__("hashlib").sha256(data).hexdigest(),
        )
        with pytest.raises(
            TableError, match="object shards/shard_000000.shard has 3 columns, expected 2"
        ):
            store.get(0)

    def test_corrupted_object_row_count_mismatch(self, tmp_path):
        store = ObjectShardStore(root=tmp_path / "objects")
        store.append(make_shard(SHARD_A))
        data = encode_shard(make_shard([["10", "x"]]))
        store.client.put("shards/shard_000000.shard", data)
        store._meta[0] = store._meta[0][:-1] + (
            __import__("hashlib").sha256(data).hexdigest(),
        )
        with pytest.raises(TableError, match="holds 1 rows, expected 2"):
            store.get(0)

    def test_lru_keeps_memory_bounded(self, tmp_path):
        store = ObjectShardStore(root=tmp_path / "objects", cache_shards=1)
        store.append(make_shard(SHARD_A))
        store.append(make_shard(SHARD_B))
        first = store.get(0)
        assert store.get(0) is first  # cached
        store.get(1)  # evicts shard 0 from the one-slot LRU
        assert store.get(0) is not first
        assert store.get(0).column("code") == first.column("code")

    def test_invalid_keys_rejected(self, tmp_path):
        client = LocalObjectClient(tmp_path / "objects")
        for key in ("", "/abs", "../escape", "a/../b", ".hidden"):
            with pytest.raises(ObjectStoreError, match="invalid object key"):
                client.get(key)

    def test_owned_tempdir_removed_on_close(self):
        store = ObjectShardStore()
        store.append(make_shard(SHARD_A))
        root = store.client.root
        assert root.exists()
        store.close()
        assert not root.exists()

    def test_shared_client_survives_close(self, tmp_path):
        client = LocalObjectClient(tmp_path / "objects")
        store = ObjectShardStore(client=client)
        store.append(make_shard(SHARD_A))
        store.close()
        # the caller owns the client; its objects are untouched
        assert client.list() == ["shards/shard_000000.shard"]

    def test_bad_parameters_rejected(self, tmp_path):
        with pytest.raises(TableError, match="cache_shards"):
            ObjectShardStore(root=tmp_path, cache_shards=0)
        with pytest.raises(TableError, match="max_attempts"):
            ObjectShardStore(root=tmp_path, retry_policy=RetryPolicy(max_attempts=0))


class TestMakeShardStore:
    def test_kinds_cover_the_factory(self, tmp_path):
        assert STORE_KINDS == ("memory", "spill", "object")
        assert isinstance(make_shard_store("memory"), InMemoryShardStore)
        spill = make_shard_store("spill", tmp_path / "spill")
        assert isinstance(spill, SpillToDiskShardStore)
        assert spill.directory == tmp_path / "spill"
        obj = make_shard_store("object", tmp_path / "objects")
        assert isinstance(obj, ObjectShardStore)
        assert obj.client.root == tmp_path / "objects"

    def test_unknown_kind_rejected(self):
        with pytest.raises(TableError, match="unknown shard store kind"):
            make_shard_store("cloud")


class TestStreamingIngest:
    def test_from_chunks_feeds_store_incrementally(self, tmp_path):
        store = SpillToDiskShardStore(tmp_path / "spill", cache_shards=1)
        chunks = (make_shard([[str(i), "v"]]) for i in range(5))
        sharded = ShardedTable.from_chunks(chunks, store=store)
        assert sharded.n_shards == 5
        assert column_of(sharded, "code") == [str(i) for i in range(5)]

    def test_from_chunks_rejects_prepopulated_store(self, tmp_path):
        # regression: re-uploading into a used store would silently
        # concatenate the two datasets
        store = SpillToDiskShardStore(tmp_path / "spill")
        ShardedTable.from_chunks([make_shard(SHARD_A)], store=store)
        with pytest.raises(TableError, match="empty store"):
            ShardedTable.from_chunks([make_shard(SHARD_B)], store=store)
        # adopting existing shards stays possible via the constructor
        assert ShardedTable(store).n_rows == 2

    def test_read_csv_sharded_into_spill_store(self, tmp_path):
        from repro.dataset.csvio import read_csv_sharded

        path = tmp_path / "data.csv"
        path.write_text("code,label\n10,x\n20,y\n30,z\n")
        store = SpillToDiskShardStore(tmp_path / "spill")
        sharded = read_csv_sharded(path, 2, store=store)
        assert sharded.n_shards == 2
        assert column_of(sharded, "code") == ["10", "20", "30"]
        assert store.n_shards == 2
