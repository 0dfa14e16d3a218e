"""Tests for incremental violation maintenance under table updates.

The correctness anchor is randomized equivalence: any sequence of
mutations (edits, appends, deletes) applied through or alongside an
:class:`IncrementalDetector` must yield a report whose canonical
violations are identical to a from-scratch ``detect_all`` on the final
table.
"""

import random

import pytest

from repro.datagen import (
    generate_fullname_gender,
    generate_phone_state,
    generate_zip_city_state,
)
from repro.dataset.table import CellEdit, RowAppend, RowDelete, Table
from repro.detection import ErrorDetector, IncrementalDetector
from repro.detection.detector import DetectionStrategy
from repro.discovery import PfdDiscoverer
from repro.pfd.pfd import PFD


GENERATORS = {
    "zip_city_state": generate_zip_city_state,
    "phone_state": generate_phone_state,
    "fullname_gender": generate_fullname_gender,
}


@pytest.fixture(scope="module")
def rulesets():
    """dataset name → (pristine table, discovered PFDs) for 3 datasets."""
    out = {}
    for name, generate in GENERATORS.items():
        table = generate(n_rows=120, seed=5).table
        out[name] = (table, PfdDiscoverer().discover(table))
    return out


@pytest.fixture
def make_rng():
    """Seeded RNG factory so every randomized sequence is reproducible."""
    return lambda seed: random.Random(seed)


def random_mutation(rng, table: Table, step: int) -> None:
    """Apply one random append/edit/delete to the table in place."""
    columns = table.column_names()
    op = rng.choice(("edit", "edit", "append", "delete"))
    if op == "delete" and table.n_rows <= 2:
        op = "append"
    if op == "edit":
        column = rng.choice(columns)
        # usually merge into an existing value (exercises block merges),
        # sometimes introduce a never-seen one (block splits / new
        # blocks), occasionally an empty string (the adversarial value
        # for RHS grouping and describe())
        roll = rng.random()
        if roll < 0.65:
            value = rng.choice(table.column_ref(column))
        elif roll < 0.9:
            value = f"novel-{step}"
        else:
            value = ""
        table.set_cell(rng.randrange(table.n_rows), column, value)
    elif op == "append":
        table.append_row(
            [rng.choice(table.column_ref(column)) for column in columns]
        )
    else:
        table.delete_row(rng.randrange(table.n_rows))


def assert_equivalent(incremental: IncrementalDetector, pfds, context: str) -> None:
    fresh = incremental.table.copy()
    full = ErrorDetector(fresh).detect_all(pfds)
    got = incremental.report()
    assert got.n_rows == full.n_rows, context
    assert got.canonical_violations() == full.canonical_violations(), context


def assert_all_strategies_equivalent(
    incremental: IncrementalDetector, pfds, context: str
) -> None:
    """Stronger form: the maintained report equals a from-scratch run of
    *every* batch strategy — one emission engine, one answer."""
    fresh = incremental.table.copy()
    got = incremental.report().canonical_violations()
    detector = ErrorDetector(fresh)
    for strategy in (
        DetectionStrategy.SCAN,
        DetectionStrategy.INDEX,
        DetectionStrategy.BRUTEFORCE,
    ):
        full = detector.detect_all(pfds, strategy=strategy)
        assert got == full.canonical_violations(), f"{context} [{strategy}]"


class TestRandomizedEquivalence:
    """Property-style: 70 random mutation sequences × 3 datasets (210
    sequences), each checked against full re-detection at the end."""

    @pytest.mark.parametrize("dataset", sorted(GENERATORS))
    @pytest.mark.parametrize("seed", range(70))
    def test_mutation_sequence_matches_full_redetection(
        self, rulesets, make_rng, dataset, seed
    ):
        pristine, pfds = rulesets[dataset]
        table = pristine.copy()
        rng = make_rng(seed)
        incremental = IncrementalDetector(table, pfds)
        for step in range(8):
            random_mutation(rng, table, step)
        assert_equivalent(incremental, pfds, f"{dataset} seed={seed}")

    @pytest.mark.parametrize("dataset", sorted(GENERATORS))
    def test_equivalence_after_every_single_mutation(
        self, rulesets, make_rng, dataset
    ):
        pristine, pfds = rulesets[dataset]
        table = pristine.copy()
        rng = make_rng(99)
        incremental = IncrementalDetector(table, pfds)
        for step in range(25):
            random_mutation(rng, table, step)
            assert_equivalent(incremental, pfds, f"{dataset} step={step}")

    @pytest.mark.parametrize("dataset", sorted(GENERATORS))
    @pytest.mark.parametrize("seed", range(10))
    def test_mutation_sequence_matches_every_batch_strategy(
        self, rulesets, make_rng, dataset, seed
    ):
        # scan, index, AND bruteforce — all strategies share one emission
        # engine, so the maintained report must equal each of them
        pristine, pfds = rulesets[dataset]
        table = pristine.copy()
        rng = make_rng(1000 + seed)
        incremental = IncrementalDetector(table, pfds)
        for step in range(8):
            random_mutation(rng, table, step)
        assert_all_strategies_equivalent(
            incremental, pfds, f"{dataset} seed={seed}"
        )


class TestMutationAPI:
    @pytest.fixture
    def zip_setup(self, rulesets):
        pristine, pfds = rulesets["zip_city_state"]
        table = pristine.copy()
        return table, pfds, IncrementalDetector(table, pfds)

    def test_initial_report_matches_batch_detector(self, zip_setup):
        table, pfds, incremental = zip_setup
        full = ErrorDetector(table.copy()).detect_all(pfds)
        assert incremental.report().canonical_violations() == full.canonical_violations()

    def test_set_cell_through_detector(self, zip_setup):
        table, pfds, incremental = zip_setup
        incremental.set_cell(0, "city", "Nowhereville")
        assert table.cell(0, "city") == "Nowhereville"
        assert_equivalent(incremental, pfds, "set_cell")

    def test_append_and_delete_through_detector(self, zip_setup):
        table, pfds, incremental = zip_setup
        n = table.n_rows
        row = incremental.append_row(table.row(0))
        assert row == n
        removed = incremental.delete_row(1)
        assert len(removed) == table.n_columns
        assert_equivalent(incremental, pfds, "append+delete")

    def test_repairing_a_suspect_cell_shrinks_the_report(self, zip_setup):
        table, pfds, incremental = zip_setup
        from repro.detection.repair import suggest_repairs

        before = incremental.report()
        suggestion = suggest_repairs(before)[0]
        incremental.set_cell(
            suggestion.row, suggestion.attribute, suggestion.suggested_value
        )
        after = incremental.report()
        assert len(after) < len(before)
        assert_equivalent(incremental, pfds, "repair")

    def test_refresh_catches_up_on_direct_mutations(self, zip_setup):
        table, pfds, incremental = zip_setup
        table.set_cell(3, "city", "Elsewhere")
        table.append_row(table.row(0))
        table.delete_row(2)
        incremental.refresh()
        assert_equivalent(incremental, pfds, "direct mutations")

    def test_rebuild_fallback_when_delta_log_is_exhausted(self, zip_setup):
        from repro.dataset.table import MAX_DELTA_LOG

        table, pfds, incremental = zip_setup
        for step in range(MAX_DELTA_LOG + 10):
            table.set_cell(step % table.n_rows, "city", f"v{step}")
        assert table.deltas_since(0) is None
        assert_equivalent(incremental, pfds, "log exhausted")

    def test_strategy_argument_is_gone(self, zip_setup):
        # the maintained report is the answer of every batch strategy;
        # there is nothing to choose
        table, pfds, _ = zip_setup
        with pytest.raises(TypeError, match="strategy"):
            IncrementalDetector(table, pfds, strategy=DetectionStrategy.SCAN)

    def test_maintained_report_matches_the_bruteforce_baseline(self, zip_setup):
        # bruteforce emission goes through the same shared evaluators as
        # blocking, so the maintained report equals it before and after edits
        table, pfds, incremental = zip_setup
        full = ErrorDetector(table.copy()).detect_all(
            pfds, strategy=DetectionStrategy.BRUTEFORCE
        )
        report = incremental.report()
        assert report.strategy == DetectionStrategy.AUTO
        assert report.canonical_violations() == full.canonical_violations()
        incremental.set_cell(0, "city", "Bruteville")
        assert_all_strategies_equivalent(incremental, pfds, "bruteforce edit")

    def test_report_strategy_and_n_rows(self, zip_setup):
        table, pfds, incremental = zip_setup
        report = incremental.report()
        assert report.strategy == DetectionStrategy.AUTO
        assert report.n_rows == table.n_rows


class TestDeltaLog:
    def test_mutations_record_structured_deltas(self):
        table = Table.from_rows(["a", "b"], [["x", "1"], ["y", "2"]])
        table.set_cell(0, "a", "z")
        table.append_row(["w", "3"])
        table.delete_row(1)
        deltas = table.deltas_since(0)
        assert [type(d) for d in deltas] == [CellEdit, RowAppend, RowDelete]
        edit, append, delete = deltas
        assert (edit.row, edit.column, edit.old, edit.new) == (0, "a", "x", "z")
        assert (append.row, append.values) == (2, ("w", "3"))
        assert (delete.row, delete.values) == (1, ("y", "2"))
        assert [d.version for d in deltas] == [1, 2, 3]
        assert table.version == 3

    def test_noop_set_cell_neither_bumps_version_nor_logs(self):
        table = Table.from_rows(["a"], [["x"]])
        table.set_cell(0, "a", "x")
        assert table.version == 0
        assert table.deltas_since(0) == ()

    def test_deltas_since_partial_and_empty(self):
        table = Table.from_rows(["a"], [["x"]])
        table.set_cell(0, "a", "y")
        table.set_cell(0, "a", "z")
        assert table.deltas_since(table.version) == ()
        assert len(table.deltas_since(1)) == 1
        assert table.deltas_since(table.version + 1) is None

    def test_append_row_from_mapping(self):
        table = Table.from_rows(["a", "b"], [["x", "1"]])
        row = table.append_row({"b": "2"})
        assert table.row(row) == ("", "2")
        from repro.errors import TableError

        with pytest.raises(TableError):
            table.append_row({"nope": "v"})
        with pytest.raises(TableError):
            table.append_row(["only-one-value"])
        # a bare string is a sequence of characters — must not shred
        # into per-character cells just because the lengths line up
        with pytest.raises(TableError):
            table.append_row("xy")

    def test_variable_rule_block_merge_and_split(self):
        # Hand-built λ5-style check: editing the zip prefix moves a row
        # between blocks; the violations follow it.
        table = Table.from_rows(
            ["zip", "city"],
            [
                ["90001", "Los Angeles"],
                ["90002", "Los Angeles"],
                ["90003", "Chicago"],  # violates within the 900 block
                ["10001", "New York"],
                ["10002", "New York"],
            ],
        )
        from repro.constrained import constrained_prefix
        from repro.patterns import parse_pattern

        pfd = PFD.variable(
            "zip",
            "city",
            constrained_prefix(3, parse_pattern("\\D{2}"), head=parse_pattern("\\D{3}")),
            name="lambda5",
        )
        incremental = IncrementalDetector(table, [pfd])
        report = incremental.report()
        assert [v.suspect_cell for v in report] == [(2, "city")]
        # the edit moves the odd row into the 100 block, where it is the
        # minority again — the violation follows it with a new witness
        incremental.set_cell(2, "zip", "10003")
        report = incremental.report()
        assert [v.suspect_cell for v in report] == [(2, "city")]
        assert report.violations[0].expected_value == "New York"
        assert_equivalent(incremental, [pfd], "block move")
        # and repairing the city clears everything
        incremental.set_cell(2, "city", "New York")
        assert incremental.report().is_empty()
        assert_equivalent(incremental, [pfd], "repaired")
