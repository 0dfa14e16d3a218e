"""Merged column encodings of a sharded table stand in for a flat column.

Sharded discovery mines over :meth:`ShardedTable.column_encodings`: one
shard-major factorization per column, tokenized at the distinct level
once per mining call, and sharded detection groups each rule pair from
the same encodings.  The mined rule set is
identical to a monolithic run only if the encoding, and the row tokens
it hands out, equal what one flat column gives — and the detected
violations only if the pair groups built from two encodings equal the
scalar groups of the flat columns — for any sharding (empty shards
included), on every store, and after an edit batch re-seals a shard.
These tests pin that over random shardings, and pin the artifact
lifecycle: each (LHS, mode) pair is tokenized once per mining call, and
discovery drops the derived per-code arrays when it finishes, keeping
every column's codes.
"""

from __future__ import annotations

import random

import figure2_reference
import pytest

from repro.datagen import build_dataset
from repro.dataset.table import Table
from repro.discovery import DiscoveryConfig, PfdDiscoverer
from repro.discovery.candidates import candidate_dependencies
from repro.kernels.encoder import encode_column
from repro.kernels.groupby import pair_groups_kernel
from repro.kernels.tokenize import batch_tokenize
from repro.sharding import (
    ShardedDiscoverer,
    ShardedTable,
    ShardOverlay,
    extract_pair_groups,
    make_shard_store,
)

NAME = "value"
#: the second column: the values in reverse row order, so every pair
#: groups differently from a plain self-join
OTHER = "other"
STORES = ["memory", "spill", "object"]
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


@pytest.fixture(params=STORES)
def store(request):
    """A factory for empty shard stores of one kind, closed at teardown."""
    stores = []

    def make():
        stores.append(make_shard_store(request.param))
        return stores[-1]

    yield make
    for opened in stores:
        opened.close()


def sharded_column(values, bounds, store):
    """A two-column sharded table (``NAME`` holds ``values``, ``OTHER``
    their reverse) cut at ``bounds``."""
    others = values[::-1]
    return ShardedTable.from_chunks(
        (
            Table([NAME, OTHER], [values[start:stop], others[start:stop]])
            for start, stop in bounds
        ),
        store=store,
    )


def assert_pair_groups_match_flat(sharded, values, others):
    """The groupby kernel over the merged encodings equals the scalar
    pair groups of the flat columns: keys, inner order and rows."""
    encodings = sharded.column_encodings([NAME, OTHER])
    kernel = pair_groups_kernel(encodings[NAME], encodings[OTHER])
    scalar = extract_pair_groups(values, others, 0)
    assert kernel == scalar
    assert list(kernel) == list(scalar)
    for value, by_rhs in scalar.items():
        assert list(kernel[value]) == list(by_rhs), value


def assert_matches_flat(encoding, values, modes=MODES):
    """The encoding, and the row tokens its batch tokenization hands
    out, equal what the flat column gives."""
    flat = encode_column(values)
    assert encoding.distinct == flat.distinct
    assert encoding.codes.tolist() == flat.codes.tolist()
    for mode in modes:
        triples = batch_tokenize(encoding, mode)
        rows = [triples[code] for code in encoding.codes.tolist()]
        assert rows == [tuple(figure2_reference.tokens(v, mode)) for v in values], mode


@pytest.mark.parametrize("n_shards", [1, 2, 3, 5, 8, 13])
@pytest.mark.parametrize("seed", [0, 7, 42])
def test_shard_major_encoding_equals_flat_column(n_shards, seed, store):
    rng = random.Random(seed)
    values = [rng.choice(PIECES) for _ in range(40)]
    sharded = sharded_column(values, random_sharding(rng, len(values), n_shards), store())
    assert sharded.n_shards == n_shards
    assert_matches_flat(sharded.column_encodings([NAME])[NAME], values)
    assert_pair_groups_match_flat(sharded, values, values[::-1])


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", [3, 11, 58])
def test_edited_shard_reencodes_like_full_reextraction(mode, seed, store, patched_shards):
    rng = random.Random(seed)
    values = [f"v{rng.randrange(6)} w{rng.randrange(3)}" for _ in range(16)]
    base = sharded_column(values, [(0, 5), (5, 8), (8, 16)], store())
    before = base.column_encodings([NAME])[NAME]
    overlay = ShardOverlay(base)
    edited = list(values)
    for row in range(5, 8):  # replace the middle shard's values
        edited[row] = f"q{rng.randrange(4)}"
        overlay.set_cell(row, NAME, edited[row])
    view = overlay.as_sharded()
    assert_matches_flat(view.column_encodings([NAME])[NAME], edited, [mode])
    # only the edited shard is patched; the others pass through
    assert patched_shards == [1]
    # patching the base encoding with the seal's cells gives the same
    cells = list(view.store.edited_cells())
    assert cells == [(row, NAME, edited[row]) for row in range(5, 8)]
    patched = before.with_cells([row for row, _, _ in cells], [v for _, _, v in cells])
    assert_matches_flat(patched, edited, [mode])
    assert_pair_groups_match_flat(view, edited, values[::-1])
    # the base keeps its own cached encoding of the unedited column
    assert base.column_encodings([NAME])[NAME] is before
    assert_matches_flat(before, values, [mode])


def test_empty_shard_encodes_to_nothing(store):
    values = ["a b", "c d"]
    sharded = sharded_column(values, [(0, 2), (2, 2)], store())
    encoding = sharded.column_encodings([NAME])[NAME]
    assert encoding.n_rows == 2
    assert_matches_flat(encoding, values)
    assert_pair_groups_match_flat(sharded, values, values[::-1])


def test_discovery_drops_its_mining_artifacts(store):
    table = build_dataset("zip_city_state", n_rows=60, seed=4).table
    table = Table(
        table.column_names() + ["serial"],
        [table.column_ref(name) for name in table.column_names()]
        + [[f"s{row}" for row in range(table.n_rows)]],
    )
    sharded = ShardedTable.from_table(table, 13, store=store())
    result = ShardedDiscoverer(CONFIG).discover_with_report(sharded)
    rule_columns = {
        name for p in result.pfds for name in (p.lhs_attribute, p.rhs_attribute)
    }
    assert rule_columns and "serial" not in rule_columns
    # every column's codes stay (detection, the edit loop and re-checks
    # read them), with their derived per-code arrays released
    assert set(sharded.encodings) == set(table.column_names())
    for encoding in sharded.encodings.values():
        assert encoding._counts is None and encoding._rows_by_code is None
        assert encoding._lengths is None and encoding._signatures is None
    # the profile outlives discovery: detection and re-checks reuse it
    assert sharded.profile() is result.profile
    expected = PfdDiscoverer(CONFIG).discover(table)
    assert [p.describe() for p in result.pfds] == [p.describe() for p in expected]


def test_each_lhs_mode_is_tokenized_once(monkeypatch):
    import repro.discovery.discoverer as discoverer_module

    table = build_dataset("zip_city_state", n_rows=60, seed=4).table
    sharded = ShardedTable.from_table(table, 13)
    candidates = candidate_dependencies(sharded, CONFIG, sharded.profile())
    names = {id(encoding): name for name, encoding in sharded.encodings.items()}
    built = []

    def counted(encoding, mode):
        built.append((names[id(encoding)], mode))
        return batch_tokenize(encoding, mode)

    monkeypatch.setattr(discoverer_module, "batch_tokenize", counted)
    PfdDiscoverer(CONFIG).mine_candidates(candidates, sharded.column_encodings)
    expected = {(c.lhs, c.lhs_mode) for c in candidates}
    assert len(expected) < len(candidates)  # some LHS serves several candidates
    assert len(built) == len(set(built)) and set(built) == expected
