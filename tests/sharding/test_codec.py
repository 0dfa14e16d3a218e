"""The dictionary-encoded shard format (:mod:`repro.sharding.codec`).

Round trips run through both disk-backed stores, so what is pinned is
what a session reads back; each rejection branch of ``decode_shard`` has
its own corruption test, and every rejection names the file or object.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataset import Table
from repro.errors import TableError
from repro.sharding import ObjectShardStore, SpillToDiskShardStore
from repro.sharding.codec import MAGIC, decode_shard, encode_shard

NAMES = ["code", "label", "note"]
SOURCE = "spill file shard_000042.shard"

awkward_values = st.one_of(
    st.sampled_from(
        ["", ",", '"', '""quoted""', "a,b", "\r\n", "line\nbreak", "cr\rlf", "naïve·ü", "日本語", "🙂"]
    ),
    st.text(max_size=12),
    st.text(min_size=300, max_size=2000),
)
awkward_rows = st.lists(st.lists(awkward_values, min_size=3, max_size=3), max_size=25)


def _shard(rows):
    return Table.from_rows(NAMES, rows)


def _decode(data, n_rows=2):
    return decode_shard(data, _shard([]).schema, n_rows, SOURCE, str)


@pytest.fixture
def two_rows():
    return encode_shard(_shard([["10", "x", ""], ["20", "x", "y"]]))


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(shards=st.lists(awkward_rows, min_size=1, max_size=3))
    def test_awkward_values_round_trip_through_both_stores(self, tmp_path_factory, shards):
        root = tmp_path_factory.mktemp("codec")
        stores = [
            SpillToDiskShardStore(root / "spill", cache_shards=1),
            ObjectShardStore(root=root / "objects", cache_shards=1),
        ]
        try:
            for store in stores:
                for rows in shards:
                    store.append(_shard(rows))
                # read back in reverse, so every get decodes from bytes
                for index in reversed(range(len(shards))):
                    shard = store.get(index)
                    assert [list(row) for row in shard.iter_rows()] == shards[index]
                    assert shard.column_names() == NAMES
                assert store.shard_row_counts() == [len(rows) for rows in shards]
        finally:
            for store in stores:
                store.close()

    def test_zero_row_shard(self):
        data = encode_shard(_shard([]))
        assert _decode(data, n_rows=0).n_rows == 0

    def test_distinct_values_are_interned_and_shared(self):
        rows = [["10", "x", "same"]] * 50
        seen = []

        def intern(value):
            seen.append(value)
            return value

        shard = decode_shard(encode_shard(_shard(rows)), _shard([]).schema, 50, SOURCE, intern)
        # one intern call per distinct value per column, none per cell
        assert sorted(seen) == ["10", "same", "x"]
        column = shard.column_ref("note")
        assert all(value is column[0] for value in column)


class TestRejections:
    @pytest.mark.parametrize("data", [b"code,label,note\r\n10,x,\r\n", b"RPSH", b""])
    def test_bad_magic(self, data):
        with pytest.raises(TableError, match=f"{SOURCE} is not an encoded shard"):
            _decode(data)

    def test_truncated_payload(self, two_rows):
        for cut in (len(MAGIC) + 3, len(two_rows) // 2, len(two_rows) - 1):
            with pytest.raises(TableError, match=f"{SOURCE} is truncated"):
                _decode(two_rows[:cut])

    def test_oversized_payload(self, two_rows):
        with pytest.raises(TableError, match=f"{SOURCE} has 3 trailing bytes"):
            _decode(two_rows + b"xyz")

    def test_wrong_column_count(self):
        data = encode_shard(Table.from_rows(["code", "label"], [["10", "x"], ["20", "y"]]))
        with pytest.raises(TableError, match=f"{SOURCE} has 2 columns, expected 3"):
            _decode(data)

    def test_row_count_mismatch(self, two_rows):
        with pytest.raises(TableError, match=f"{SOURCE} holds 2 rows, expected 3"):
            _decode(two_rows, n_rows=3)

    @pytest.mark.parametrize("code", [2, 7, -1])
    def test_out_of_range_code(self, code):
        # one column of two distinct values; the last row's code is forged
        data = bytearray(encode_shard(Table.from_rows(["code"], [["a"], ["b"]])))
        struct.pack_into("<i", data, len(data) - 4, code)
        with pytest.raises(TableError, match=rf"{SOURCE} has a value code outside \[0, 2\)"):
            decode_shard(bytes(data), Table.empty(["code"]).schema, 2, SOURCE, str)

    def test_invalid_utf8(self):
        data = bytearray(encode_shard(Table.from_rows(["code"], [["a"]])))
        # layout: magic, header, (n_distinct, n_text), one length, "a", one code
        data[len(MAGIC) + 8 + 8 + 4] = 0xFF
        with pytest.raises(TableError, match=f"{SOURCE} holds invalid UTF-8"):
            decode_shard(bytes(data), Table.empty(["code"]).schema, 1, SOURCE, str)

    def test_value_lengths_disagree_with_text(self):
        data = bytearray(encode_shard(Table.from_rows(["code"], [["ab"]])))
        struct.pack_into("<I", data, len(MAGIC) + 8 + 8, 1)  # claims len("ab") == 1
        with pytest.raises(TableError, match=f"{SOURCE} value lengths do not add up"):
            decode_shard(bytes(data), Table.empty(["code"]).schema, 1, SOURCE, str)

    def test_object_store_names_the_object(self, tmp_path):
        import hashlib

        store = ObjectShardStore(root=tmp_path / "objects")
        store.append(_shard([["10", "x", ""]]))
        data = encode_shard(_shard([["10", "x", ""]]))[:-1]
        store.client.put("shards/shard_000000.shard", data)
        # re-sign the bytes so the checksum passes and the decoder is reached
        store._meta[0] = store._meta[0][:-1] + (hashlib.sha256(data).hexdigest(),)
        with pytest.raises(TableError, match="object shards/shard_000000.shard is truncated"):
            store.get(0)
