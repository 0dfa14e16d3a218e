"""The maintained mining state equals a fresh build after every batch.

A re-check patches each candidate's mining state
(:class:`repro.kernels.mine.MiningState`) with the batch's cell deltas
instead of rebuilding it.  After every random cell batch the patched
state must equal the state a fresh build over the edited columns has:
the pair counts, the inverted list's entries and their order, the entry
bounds, the variable block tallies drawn from the pair counts (compared
by block key and RHS value), every cached entry verdict and variable
pattern — and the mined reports.  Every
batch makes a value appear, makes one vanish and edits a value at its
first row, the three writes that renumber codes.
"""

from __future__ import annotations

import figure2_reference
from hypothesis import given, settings, strategies as st

from repro.dataset.table import Table
from repro.discovery import DiscoveryConfig, PfdDiscoverer
from repro.discovery.candidates import CandidateDependency
from repro.discovery.discoverer import DiscoveryResult
from repro.discovery.maintenance import _patched_encodings
from repro.kernels.encoder import encode_column
from repro.kernels.mine import MiningState, _EntryBounds, _level_pattern, block_tally
from repro.pfd.fd import EmbeddedFD
from repro.sharding import ShardedTable

COLUMNS = ["a", "b", "c"]
#: values columns start from (the empty string included)
POOL = ["90001", "90002", "90112", "606 01", "60602", "9 0", "x y", "x-y z", "", "a b c"]
#: values no column starts with
NEW = ["90003", "707 x", "n e w", "zz"]
#: one candidate per token mode, over every column as LHS and RHS
CANDIDATES = [
    CandidateDependency(EmbeddedFD.between(lhs, rhs), lhs_mode=mode)
    for lhs, rhs, mode in [
        ("a", "b", "prefix"), ("a", "c", "token"), ("b", "a", "token"), ("c", "b", "ngram"),
    ]
]
CONFIG = DiscoveryConfig(min_support=1, min_coverage=0.1, allowed_violation_ratio=0.3)


def mined(columns, state):
    """Mine ``CANDIDATES`` over the columns from ``state``."""
    view = ShardedTable([Table(COLUMNS, [columns[name] for name in COLUMNS])])
    return PfdDiscoverer(CONFIG).mine_candidates(CANDIDATES, view, state)


def draw_batch(draw, columns):
    """Random writes, then a value that vanishes, one that appears and
    a write at some value's first row, on rows the others leave alone."""
    n = len(columns["a"])
    cells = [
        (draw(st.integers(0, n - 1)), draw(st.sampled_from(COLUMNS)), draw(st.sampled_from(POOL)))
        for _ in range(draw(st.integers(0, 4)))
    ]
    vanishing_column = draw(st.sampled_from(COLUMNS))
    values = columns[vanishing_column]
    gone = draw(st.sampled_from(sorted(set(values))))
    gone_rows = [row for row, value in enumerate(values) if value == gone]
    kept = draw(st.sampled_from([v for v in POOL if v != gone]))
    cells += [(row, vanishing_column, kept) for row in gone_rows]

    appearing_column = draw(st.sampled_from(COLUMNS))
    free = [
        row for row in range(n)
        if appearing_column != vanishing_column or row not in gone_rows
    ]
    if free:
        new = draw(st.sampled_from([v for v in NEW if v not in columns[appearing_column]] or NEW))
        appear_row = draw(st.sampled_from(free))
        cells.append((appear_row, appearing_column, new))

    first_column = draw(st.sampled_from(COLUMNS))
    firsts = {}
    for row, value in enumerate(columns[first_column]):
        firsts.setdefault(value, row)
    candidates = [
        row for value, row in firsts.items()
        if (first_column != vanishing_column or value != gone)
        and (not free or first_column != appearing_column or row != appear_row)
    ]
    if candidates:
        row = draw(st.sampled_from(candidates))
        cells.append((row, first_column, draw(st.sampled_from([v for v in POOL if v != gone]))))
    return cells


def tally_by_value(pairs, entries, level, rhs):
    """A level's block tally keyed by (block key, RHS value)."""
    keys, counts = block_tally(pairs, entries, level, rhs)
    block_key = dict(zip(entries.block_codes(level).tolist(), entries.block_keys(level)))
    return {
        (block_key[key >> 32], rhs.distinct[key & 0xFFFFFFFF]): count
        for key, count in zip(keys.tolist(), counts.tolist())
    }


def value_keys(entries):
    """Per distinct value, its tokens' (key, position) in triple order."""
    starts, tokens = entries.value_starts, entries.value_entries.tolist()
    return [
        [entries._entry_keys[entry] for entry in tokens[starts[code] : starts[code + 1]]]
        for code in range(entries.encoding.n_distinct)
    ]


def verdict_text(found):
    pattern, unmatched = found
    return (None if pattern is None else pattern.to_text(), unmatched)


def assert_state_equals_fresh(state, fresh, columns):
    encodings = {name: encode_column(values) for name, values in columns.items()}
    assert set(state.candidates) == set(fresh.candidates)
    assert set(state.lhs) == set(fresh.lhs)
    for key, entries in state.lhs.items():
        built = fresh.lhs[key]
        assert entries.encoding.distinct == built.encoding.distinct
        assert value_keys(entries) == value_keys(built)
        assert entries.keys == built.keys
        assert entries.starts.tolist() == built.starts.tolist()
        assert entries.codes.tolist() == built.codes.tolist()
        for entry_key, found in entries.verified.items():
            entry = built.keys.index(entry_key)
            assert verdict_text(found) == verdict_text(built.verdicts(entry)), entry_key
    for (lhs, rhs, mode), pairs in state.candidates.items():
        built = fresh.candidates[(lhs, rhs, mode)]
        for kept, new in zip(pairs.pairs, built.pairs):
            assert kept.tolist() == new.tolist()
        entries, built_entries = state.lhs[(lhs, mode)], fresh.lhs[(lhs, mode)]
        rhs_encoding = encodings[rhs]
        if entries.keys:
            bounds = _EntryBounds(entries, rhs_encoding, pairs.pairs)
            built_bounds = _EntryBounds(built_entries, rhs_encoding, built.pairs)
            for name in ("support", "top_code", "top_count"):
                assert getattr(bounds, name).tolist() == getattr(built_bounds, name).tolist()
        for level in range(8):
            assert tally_by_value(pairs.pairs, entries, level, rhs_encoding) == tally_by_value(
                built.pairs, built_entries, level, rhs_encoding
            ), level
        if pairs.present is not None and built.present is not None:
            assert pairs.present.tolist() == built.present.tolist()
        for level, found in pairs.patterns.items():
            assert verdict_text(found) == verdict_text(
                _level_pattern(built_entries, level, pairs.present)
            ), level


@st.composite
def tables_and_batches(draw):
    n = draw(st.integers(4, 24))
    columns = {
        name: draw(st.lists(st.sampled_from(POOL), min_size=n, max_size=n)) for name in COLUMNS
    }
    batches = []
    current = {name: list(values) for name, values in columns.items()}
    for _ in range(draw(st.integers(1, 3))):
        batch = draw_batch(draw, current)
        for row, name, value in batch:
            current[name][row] = value
        batches.append(batch)
    return columns, batches


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(tables_and_batches())
def test_property_patched_state_equals_a_fresh_build(case):
    columns, batches = case
    columns = {name: list(values) for name, values in columns.items()}
    state = MiningState()
    mined(columns, state)
    encodings = {name: encode_column(values) for name, values in columns.items()}
    for batch in batches:
        # the seal lists each edited cell once, with its last write
        last = {(row, name): value for row, name, value in batch}
        patches = _patched_encodings(
            encodings, [(row, name, value) for (row, name), value in last.items()]
        )
        for row, name, value in batch:
            columns[name][row] = value
        encodings = {name: encode_column(values) for name, values in columns.items()}
        for name, patch in patches.items():
            # the patched encoding is the fresh one
            assert patch.new.distinct == encodings[name].distinct
            assert patch.new.codes.tolist() == encodings[name].codes.tolist()
        state.patch(patches, encodings)
        reports = mined(columns, state)
        fresh = MiningState()
        fresh_reports = mined(columns, fresh)
        assert_state_equals_fresh(state, fresh, columns)
        table = Table(COLUMNS, [columns[name] for name in COLUMNS])

        def fields(found):
            result = DiscoveryResult(
                pfds=[], reports=found, profile=None, config=CONFIG, elapsed_seconds=0.0
            )
            return figure2_reference.report_fields(result, table)

        assert fields(reports) == fields(fresh_reports)
