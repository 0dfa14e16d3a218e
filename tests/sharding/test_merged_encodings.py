"""Merged column encodings of a sharded table stand in for a flat column.

Sharded discovery mines over :meth:`ShardedTable.column_encodings`: one
shard-major factorization per column, with its distinct-level token
triples cached beside it as a merged artifact.  The mined rule set is
identical to a monolithic run only if the encoding, and the tokenization
rebuilt from it, equal what one flat column gives — for any sharding
(empty shards included) and after an edit batch re-seals a shard.  These
tests pin that over random shardings, and pin the artifact lifecycle:
each (LHS, mode) pair is tokenized once, and discovery drops its O(n)
mining inputs when it finishes.
"""

from __future__ import annotations

import random

import pytest

from repro.datagen import build_dataset
from repro.dataset.table import Table
from repro.discovery import DiscoveryConfig, PfdDiscoverer
from repro.discovery.candidates import candidate_dependencies
from repro.discovery.inverted_index import ColumnTokenization
from repro.kernels.encoder import encode_column
from repro.kernels.tokenize import batch_tokenize, tokenization_from_encoding
from repro.sharding import ShardedDiscoverer, ShardedTable, ShardOverlay, make_shard_store
from repro.sharding.discovery import MINING_ARTIFACTS

NAME = "value"
MODES = ["token", "ngram", "prefix"]
PIECES = ["alpha beta", "alpha", "beta-7", "gamma", "", "Gamma delta", "x1 y2 z3"]
CONFIG = DiscoveryConfig(min_coverage=0.4, allowed_violation_ratio=0.2)


def random_sharding(rng, n_rows, n_shards):
    """Split ``range(n_rows)`` into ``n_shards`` contiguous runs (some
    possibly empty) and return their (start, stop) bounds."""
    cuts = sorted(rng.randint(0, n_rows) for _ in range(n_shards - 1))
    bounds = []
    start = 0
    for cut in cuts + [n_rows]:
        bounds.append((start, cut))
        start = cut
    return bounds


def sharded_column(values, bounds):
    """A one-column sharded table cut at ``bounds``."""
    return ShardedTable.from_chunks(
        Table([NAME], [values[start:stop]]) for start, stop in bounds
    )


def assert_matches_flat(encoding, values, modes=MODES):
    """The encoding, and each tokenization rebuilt from it, equal what
    the flat column gives."""
    flat = encode_column(values)
    assert encoding.distinct == flat.distinct
    assert encoding.codes.tolist() == flat.codes.tolist()
    for mode in modes:
        triples = batch_tokenize(encoding, mode, 3)
        rebuilt = tokenization_from_encoding(encoding, mode, 3, triples)
        expected = ColumnTokenization.extract(values, mode, 3)
        assert rebuilt.row_tokens == expected.row_tokens, mode


@pytest.mark.parametrize("n_shards", [1, 2, 3, 5, 8, 13])
@pytest.mark.parametrize("seed", [0, 7, 42])
def test_shard_major_encoding_equals_flat_column(n_shards, seed):
    rng = random.Random(seed)
    values = [rng.choice(PIECES) for _ in range(40)]
    sharded = sharded_column(values, random_sharding(rng, len(values), n_shards))
    assert sharded.n_shards == n_shards
    assert_matches_flat(sharded.column_encodings([NAME])[NAME], values)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", [3, 11, 58])
def test_edited_shard_reencodes_like_full_reextraction(mode, seed):
    rng = random.Random(seed)
    values = [f"v{rng.randrange(6)} w{rng.randrange(3)}" for _ in range(16)]
    base = sharded_column(values, [(0, 5), (5, 8), (8, 16)])
    before = base.column_encodings([NAME])[NAME]
    overlay = ShardOverlay(base)
    edited = list(values)
    for row in range(5, 8):  # replace the middle shard's values
        edited[row] = f"q{rng.randrange(4)}"
        overlay.set_cell(row, NAME, edited[row])
    view = overlay.as_sharded()
    assert view.dirty_shards(base.versions()) == [1]
    assert_matches_flat(view.column_encodings([NAME])[NAME], edited, [mode])
    # the base keeps its own cached encoding of the unedited column
    assert base.column_encodings([NAME])[NAME] is before
    assert_matches_flat(before, values, [mode])


def test_empty_shard_encodes_to_nothing():
    values = ["a b", "c d"]
    sharded = sharded_column(values, [(0, 2), (2, 2)])
    encoding = sharded.column_encodings([NAME])[NAME]
    assert encoding.n_rows == 2
    assert_matches_flat(encoding, values)


@pytest.mark.parametrize("store", ["memory", "spill", "object"])
def test_discovery_drops_its_mining_artifacts(store):
    table = build_dataset("zip_city_state", n_rows=60, seed=4).table
    sharded = ShardedTable.from_table(table, 13, store=make_shard_store(store))
    try:
        result = ShardedDiscoverer(CONFIG).discover_with_report(sharded)
        for prefix in MINING_ARTIFACTS:
            assert sharded.merged_artifact_keys(prefix) == [], prefix
        # the profile outlives discovery: detection and re-checks reuse it
        assert sharded.peek_merged_artifact(("profile",)) is result.profile
        expected = PfdDiscoverer(CONFIG).discover(table)
        assert [p.describe() for p in result.pfds] == [p.describe() for p in expected]
    finally:
        sharded.store.close()


def test_each_lhs_mode_is_tokenized_once():
    table = build_dataset("zip_city_state", n_rows=60, seed=4).table
    sharded = ShardedTable.from_table(table, 13)
    candidates = candidate_dependencies(sharded, CONFIG, sharded.profile())
    built = []

    def cached(key, build):
        def counted():
            built.append(key)
            return build()

        return sharded.merged_artifact(key, counted)

    discoverer = PfdDiscoverer(CONFIG)
    discoverer.mine_candidates(candidates, sharded.column_encodings, cached)
    expected = {
        ("kernel_triples", c.lhs, c.lhs_mode, CONFIG.ngram_size) for c in candidates
    }
    assert len(built) == len(set(built)) and set(built) == expected
    # a second run over unchanged shards reuses every cached triple set
    built.clear()
    discoverer.mine_candidates(candidates, sharded.column_encodings, cached)
    assert built == []
