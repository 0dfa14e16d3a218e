"""Differential tests: sharded execution vs. the monolithic engines.

Randomized dirty tables (the seeded datagen generators, plus extra
injected corruption) run through monolithic and sharded discovery and
detection at shard sizes {1, 7, n_rows // 2, n_rows}; the sharded path
must produce the *identical* rule set and violations canonically equal
to the monolithic ``ErrorDetector``'s, whose variable violations agree
with the literal pairwise check.  Each case is fully determined by the
(generator, seed) pair in the test id, so a failure replays with
``pytest -k <test id>``.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.anmat.session import AnmatSession
from repro.constrained import constrained_prefix
from repro.datagen import build_dataset
from repro.dataset import Table
from repro.dataset.csvio import read_csv, read_csv_sharded, write_csv
from repro.patterns import parse_pattern
from repro.perf import clear_caches
from repro.pfd import PFD, WILDCARD
from repro.datagen.corruption import CorruptionSpec, ErrorInjector
from repro.detection import ErrorDetector
from repro.detection.violation import ViolationReport
from repro.discovery import DiscoveryConfig, PfdDiscoverer
from repro.sharding import (
    ShardedDetector,
    ShardedDiscoverer,
    ShardedTable,
    SpillToDiskShardStore,
    make_shard_store,
)

from pairwise_reference import assert_matches_pairwise, violating_pairs

#: (generator name, rows, extra corruption specs) — small enough that the
#: literal pairwise check stays cheap, varied enough to cover prefix- and
#: token-mode discovery, constant and variable rules, and empty cells.
GENERATORS = [
    ("zip_city_state", 90, [CorruptionSpec("city", 0.05, kind="swap")]),
    ("phone_state", 80, [CorruptionSpec("state", 0.06, kind="case")]),
    ("fullname_gender", 80, [CorruptionSpec("gender", 0.08, kind="swap")]),
    ("employee_ids", 70, [CorruptionSpec("employee_id", 0.05, kind="typo")]),
]

SEEDS = [3, 11, 58]

CONFIG = DiscoveryConfig(min_coverage=0.4, allowed_violation_ratio=0.2)


def shard_sizes(n_rows: int):
    """The mandated sweep: degenerate one-row shards, a ragged small
    size, two halves, and the single-shard identity case."""
    return sorted({1, 7, max(1, n_rows // 2), n_rows})


def dirty_table(name: str, n_rows: int, specs, seed: int):
    """A generator's (already dirty) table with extra injected corruption."""
    dataset = build_dataset(name, n_rows=n_rows, seed=seed)
    dirty, _cells = ErrorInjector(seed=seed + 1).corrupt(dataset.table, specs)
    return dirty


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name,n_rows,specs", GENERATORS, ids=lambda v: str(v))
class TestDifferential:
    def test_discovery_identical(self, name, n_rows, specs, seed):
        table = dirty_table(name, n_rows, specs, seed)
        mono = PfdDiscoverer(CONFIG).discover_with_report(table)
        mono_rules = [pfd.describe() for pfd in mono.pfds]
        mono_accepted = [(r.lhs, r.rhs, r.accepted, r.coverage) for r in mono.reports]
        for shard_rows in shard_sizes(table.n_rows):
            sharded = ShardedTable.from_table(table, shard_rows)
            result = ShardedDiscoverer(CONFIG).discover_with_report(sharded)
            assert [pfd.describe() for pfd in result.pfds] == mono_rules, (
                f"rule set diverged at shard_rows={shard_rows}"
            )
            assert [
                (r.lhs, r.rhs, r.accepted, r.coverage) for r in result.reports
            ] == mono_accepted, f"mining reports diverged at shard_rows={shard_rows}"

    def test_detection_canonically_equal_to_the_table_detector(
        self, name, n_rows, specs, seed
    ):
        table = dirty_table(name, n_rows, specs, seed)
        pfds = PfdDiscoverer(CONFIG).discover(table)
        if not pfds:
            pytest.skip("generator/seed pair discovered no rules")
        report = ErrorDetector(table).detect_all(pfds)
        for pfd in pfds:
            if pfd.is_variable:
                violations = [v for v in report if v.pfd_name == pfd.name]
                assert_matches_pairwise(violations, violating_pairs(table, pfd))
        expected = report.canonical_violations()
        for shard_rows in shard_sizes(table.n_rows):
            sharded = ShardedTable.from_table(table, shard_rows)
            canonical = ShardedDetector(sharded).detect_all(pfds).canonical_violations()
            assert canonical == expected, (
                f"sharded violations diverged at shard_rows={shard_rows}"
            )

    def test_handwritten_rules_equal(self, name, n_rows, specs, seed):
        """Hand-written rule shapes discovery never emits — notably a
        wildcard LHS on a constant rule, which matches every row — must
        also agree between the engines."""
        table = dirty_table(name, n_rows, specs, seed)
        lhs, rhs = table.column_names()[0], table.column_names()[-1]
        majority = max(
            table.value_counts(rhs).items(), key=lambda item: item[1]
        )[0]
        pfd = PFD.constant(lhs, rhs, name="wild")
        pfd.add_rule({lhs: WILDCARD, rhs: majority})
        expected = ErrorDetector(table).detect(pfd).canonical_violations()
        assert expected, "probe rule should flag the non-majority rows"
        sharded = ShardedTable.from_table(table, 7)
        assert (
            ShardedDetector(sharded).detect(pfd).canonical_violations() == expected
        )

    def test_detection_equal_from_discovery_encodings(self, name, n_rows, specs, seed):
        """Detection right after sharded discovery groups from the
        encodings discovery kept (with their per-code arrays released)
        and must agree with a cold detection that encodes the shards
        itself, and with the monolithic detector."""
        table = dirty_table(name, n_rows, specs, seed)
        shard_rows = max(1, table.n_rows // 3)
        warm = ShardedTable.from_table(table, shard_rows)
        pfds = ShardedDiscoverer(CONFIG).discover(warm)
        assert pfds, "every generator/seed pair discovers rules"
        for pfd in pfds:
            for column in (pfd.lhs_attribute, pfd.rhs_attribute):
                assert warm.peek_merged_artifact(("column_encoding", column)) is not None
        from_encodings = ShardedDetector(warm).detect_all(pfds).canonical_violations()
        cold = ShardedTable.from_table(table, shard_rows)
        assert cold.merged_artifact_keys("column_encoding") == []
        assert ShardedDetector(cold).detect_all(pfds).canonical_violations() == (
            from_encodings
        )
        monolithic = ErrorDetector(table).detect_all(pfds)
        assert monolithic.canonical_violations() == from_encodings


# -- bounded-memory differential: the out-of-core session ----------------------
#
# The acceptance bar for never-materialized sessions: a 256k-row upload
# through a disk-backed store must run the whole profile → discover →
# detect workflow with a tracemalloc peak below 40% of what merely
# *loading* the table into memory costs — while producing exactly the
# monolithic rule set and canonical violations, on every store backend.

OOC_ROWS = 256_000
OOC_SHARD_ROWS = 16_000
OOC_SEED = 23
#: the spill peak must stay below this fraction of the materialized
#: table's tracemalloc footprint
OOC_PEAK_RATIO_CEILING = 0.40


@pytest.fixture(scope="module")
def ooc_csv(tmp_path_factory):
    """The 256k-row dirty CSV, generated once per module."""
    path = tmp_path_factory.mktemp("ooc") / "zip_city_state_256k.csv"
    dataset = build_dataset("zip_city_state", n_rows=OOC_ROWS, seed=OOC_SEED)
    write_csv(dataset.table, path)
    del dataset
    gc.collect()
    return path


def _run_workflow(table):
    """profile → discover → confirm → detect through the session API;
    returns the rule descriptions and canonical violations."""
    session = AnmatSession(dataset_name="ooc-differential")
    session.load_table(table)
    session.set_parameters(min_coverage=0.5)
    session.run_profiling()
    result = session.run_discovery()
    session.confirm_all()
    report = session.run_detection()
    rules = [pfd.describe() for pfd in result.pfds]
    canonical = report.canonical_violations()
    session.close()
    return rules, canonical


@pytest.fixture(scope="module")
def ooc_monolithic(ooc_csv):
    """Rules and canonical violations of the fully materialized run."""
    rules, canonical = _run_workflow(read_csv(ooc_csv))
    clear_caches()
    gc.collect()
    return rules, canonical


class TestOutOfCoreBoundedMemory:
    def test_spill_run_bounded_and_identical(
        self, ooc_csv, ooc_monolithic, monkeypatch
    ):
        """The spill-store session must never materialize the table and
        must peak below 40% of the materialized footprint."""
        # the acceptance criterion verbatim: no `to_table()` anywhere on
        # the session path
        def _forbidden(self):
            raise AssertionError("to_table() called on the out-of-core session path")

        monkeypatch.setattr(ShardedTable, "to_table", _forbidden)

        clear_caches()
        gc.collect()
        tracemalloc.start()
        table = read_csv(ooc_csv)
        table_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        del table
        clear_caches()
        gc.collect()

        tracemalloc.start()
        store = SpillToDiskShardStore(cache_shards=2)
        sharded = read_csv_sharded(ooc_csv, OOC_SHARD_ROWS, store=store)
        rules, canonical = _run_workflow(sharded)
        spill_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

        mono_rules, mono_canonical = ooc_monolithic
        assert rules == mono_rules
        assert canonical == mono_canonical
        ratio = spill_peak / table_peak
        assert ratio < OOC_PEAK_RATIO_CEILING, (
            f"spill-store session peaked at {spill_peak / 1e6:.1f}MB — "
            f"{ratio:.2f}x the {table_peak / 1e6:.1f}MB materialized footprint "
            f"(ceiling {OOC_PEAK_RATIO_CEILING})"
        )

    @pytest.mark.parametrize("kind", ["memory", "object"])
    def test_backend_identical_to_monolithic(self, kind, ooc_csv, ooc_monolithic):
        """The remaining store backends produce the same rules and
        canonical violations as the monolithic run (the spill backend is
        covered by the traced test above)."""
        store = make_shard_store(kind)
        sharded = read_csv_sharded(ooc_csv, OOC_SHARD_ROWS, store=store)
        rules, canonical = _run_workflow(sharded)
        mono_rules, mono_canonical = ooc_monolithic
        assert rules == mono_rules
        assert canonical == mono_canonical
        clear_caches()
        gc.collect()


def test_detect_all_folds_reports_like_merged_with():
    """One dedup pass over the per-PFD reports equals folding them with
    ``merged_with``: same order, same first-kept duplicates — two PFDs
    named alike flag the same cells under the same identity key."""
    table = Table.from_rows(
        ["zip", "city"],
        [
            ["90001", "LA"], ["90002", "NY"], ["91234", "NY"], ["90003", "SF"],
            ["10001", "NY"], ["10002", "NY"], ["10003", "LA"], ["90004", "LA"],
        ],
    )
    prefix = constrained_prefix(3, parse_pattern("\\D{2}"), head=parse_pattern("\\D{3}"))
    pfds = [
        PFD.constant("zip", "city", [{"zip": "900\\D{2}", "city": "LA"}], name="dup"),
        PFD.variable("zip", "city", prefix, name="blocks"),
        PFD.constant("zip", "city", [{"zip": "9\\D{4}", "city": "LA"}], name="dup"),
        PFD.variable("zip", "city", prefix, name="blocks"),
    ]
    detector = ShardedDetector(ShardedTable.from_table(table, 3))
    folded = ViolationReport(n_rows=table.n_rows, strategy="sharded")
    for pfd in pfds:
        folded = folded.merged_with(detector.detect(pfd))
    merged = detector.detect_all(pfds)
    assert merged.violations == folded.violations
    assert (merged.n_rows, merged.comparisons, merged.strategy) == (
        folded.n_rows, folded.comparisons, "sharded",
    )
    # the second "dup" adds only the row the first did not flag
    dup = [v.suspect_cell for v in merged if v.pfd_name == "dup"]
    assert dup == [(1, "city"), (3, "city"), (2, "city")]
    assert merged.canonical_violations() == (
        ErrorDetector(table).detect_all(pfds).canonical_violations()
    )
