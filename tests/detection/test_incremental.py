"""Tests for incremental violation maintenance under table updates.

The correctness anchor is randomized equivalence: any sequence of
mutations (edits, appends, deletes) applied through or alongside an
:class:`IncrementalDetector` must yield a report whose canonical
violations are identical to a from-scratch ``detect_all`` on the final
table.  The detector maintains a :class:`ShardOverlay`; the sequences run
on overlays cut into shards of a few rows, so edits, appends and
tombstones land across shards.  A property test adds small tables with
big blocks and few RHS values and checks the report's order too.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.constrained import constrained_prefix
from repro.datagen import (
    generate_fullname_gender,
    generate_phone_state,
    generate_zip_city_state,
)
from repro.dataset.table import Table
from repro.detection import ErrorDetector, IncrementalDetector
from repro.detection.violation import ViolationReport
from repro.discovery import PfdDiscoverer
from repro.patterns import parse_pattern
from repro.pfd.pfd import PFD
from repro.pfd.tableau import WILDCARD

from pairwise_reference import assert_matches_pairwise, violating_pairs
from repro.sharding import ShardedTable, ShardOverlay
from repro.sharding.overlay import MAX_DELTA_LOG


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


def overlay_of(table: Table, shard_rows: int = 32) -> ShardOverlay:
    """A fresh overlay over ``table`` cut into ``shard_rows``-row shards."""
    return ShardOverlay(ShardedTable.from_table(table, shard_rows))


@pytest.fixture
def make_rng():
    """Seeded RNG factory so every randomized sequence is reproducible."""
    return lambda seed: random.Random(seed)


def random_mutation(rng, table: ShardOverlay, step: int) -> None:
    """Apply one random append/edit/delete to the overlay in place."""
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
    full = ErrorDetector(incremental.table.materialize()).detect_all(pfds)
    got = incremental.report()
    assert got.n_rows == full.n_rows, context
    assert got.canonical_violations() == full.canonical_violations(), context


class TestRandomizedEquivalence:
    """Property-style: 70 random mutation sequences × 3 datasets (210
    sequences), each checked against full re-detection at the end."""

    @pytest.mark.parametrize("dataset", sorted(GENERATORS))
    @pytest.mark.parametrize("seed", range(70))
    def test_mutation_sequence_matches_full_redetection(
        self, rulesets, make_rng, dataset, seed
    ):
        pristine, pfds = rulesets[dataset]
        table = overlay_of(pristine)
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
        table = overlay_of(pristine)
        rng = make_rng(99)
        incremental = IncrementalDetector(table, pfds)
        for step in range(25):
            random_mutation(rng, table, step)
            assert_equivalent(incremental, pfds, f"{dataset} step={step}")

    @pytest.mark.parametrize("shard_rows", [1, 3, None], ids=["1", "3", "n"])
    @pytest.mark.parametrize("dataset", sorted(GENERATORS))
    @pytest.mark.parametrize("seed", range(10))
    def test_mutation_sequence_matches_every_shard_size(
        self, rulesets, make_rng, dataset, seed, shard_rows
    ):
        # one-row shards, three-row shards and one shard of every row:
        # the same sequence's edits, appends and tombstones land in one
        # shard or spread over many
        pristine, pfds = rulesets[dataset]
        table = overlay_of(pristine, shard_rows or pristine.n_rows)
        rng = make_rng(1000 + seed)
        incremental = IncrementalDetector(table, pfds)
        for step in range(8):
            random_mutation(rng, table, step)
        assert_equivalent(
            incremental, pfds, f"{dataset} seed={seed} shard_rows={shard_rows}"
        )


class TestMutationAPI:
    @pytest.fixture
    def zip_setup(self, rulesets):
        pristine, pfds = rulesets["zip_city_state"]
        table = overlay_of(pristine)
        return table, pfds, IncrementalDetector(table, pfds)

    def test_initial_report_matches_batch_detector(self, zip_setup):
        table, pfds, incremental = zip_setup
        full = ErrorDetector(table.materialize()).detect_all(pfds)
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
        table, pfds, incremental = zip_setup
        for step in range(MAX_DELTA_LOG + 10):
            table.set_cell(step % table.n_rows, "city", f"v{step}")
        assert table.deltas_since(0) is None
        assert_equivalent(incremental, pfds, "log exhausted")

    def test_rebuild_fallback_after_an_append(self, rulesets):
        pristine, pfds = rulesets["zip_city_state"]
        overlay = overlay_of(pristine)
        incremental = IncrementalDetector(overlay, pfds)
        overlay.append_row(overlay.row(0))
        for step in range(MAX_DELTA_LOG + 10):
            overlay.set_cell(step % overlay.n_rows, "city", f"v{step % 7}")
        assert overlay.deltas_since(0) is None
        # re-seeded from a fresh seal of the edited overlay
        full = ErrorDetector(overlay.materialize()).detect_all(pfds)
        got = incremental.report()
        assert got.canonical_violations() == full.canonical_violations()
        incremental.set_cell(1, "city", overlay.cell(0, "city"))
        full = ErrorDetector(overlay.materialize()).detect_all(pfds)
        assert incremental.report().canonical_violations() == full.canonical_violations()

    def test_strategy_argument_is_gone(self, zip_setup):
        table, pfds, _ = zip_setup
        with pytest.raises(TypeError, match="strategy"):
            IncrementalDetector(table, pfds, strategy="scan")

    def test_maintained_report_matches_the_literal_pairwise_check(self, zip_setup):
        # the maintained variable violations agree with the paper's naive
        # pair enumeration, before and after an edit
        table, pfds, incremental = zip_setup
        variable = [pfd for pfd in pfds if pfd.is_variable]
        assert variable
        for edit in (None, (0, "city", "Bruteville")):
            if edit is not None:
                incremental.set_cell(*edit)
            report = incremental.report()
            snapshot = table.materialize()
            for pfd in variable:
                violations = [v for v in report if v.pfd_name == pfd.name]
                assert_matches_pairwise(violations, violating_pairs(snapshot, pfd))
        assert_equivalent(incremental, pfds, "edit")

    def test_report_strategy_and_n_rows(self, zip_setup):
        table, pfds, incremental = zip_setup
        report = incremental.report()
        assert report.strategy == "auto"
        assert report.n_rows == table.n_rows


class TestHandBuilt:
    def test_variable_rule_block_merge_and_split(self):
        # Hand-built λ5-style check: editing the zip prefix moves a row
        # between blocks; the violations follow it.
        table = overlay_of(
            Table.from_rows(
                ["zip", "city"],
                [
                    ["90001", "Los Angeles"],
                    ["90002", "Los Angeles"],
                    ["90003", "Chicago"],  # violates within the 900 block
                    ["10001", "New York"],
                    ["10002", "New York"],
                ],
            ),
            2,
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


# -- property: any mutation sequence, big blocks, few RHS values ---------------

ZIPS = ("90001", "90002", "90013", "10001", "10002")
VALUES = {
    "zip": ZIPS + ("99999", "", "9001"),
    "city": ("A", "B", "C", "", "Zz"),
    "state": ("X", "Y", "Q"),
}
COLUMNS = ("zip", "city", "state")


def property_pfds():
    """Variable rules with few, big blocks and 2–3 RHS values (majority
    ties and flips, witnesses leaving their group), constant rules, and
    two PFDs sharing a name (their violations coincide)."""
    prefix = constrained_prefix(3, parse_pattern("\\D{2}"), head=parse_pattern("\\D{3}"))
    mixed = PFD.constant("zip", "state", [{"zip": "100\\D{2}", "state": "Y"}], name="mixed")
    mixed.add_rule({"zip": prefix, "state": WILDCARD})
    return [
        PFD.variable("zip", "city", prefix, name="prefix"),
        PFD.variable("city", "state", "\\LU", name="letter"),
        mixed,
        PFD.constant("zip", "city", [{"zip": "900\\D{2}", "city": "A"}], name="dup"),
        PFD.constant("zip", "city", [{"zip": "9\\D{4}", "city": "A"}], name="dup"),
    ]


def expected_report_order(table, pfds):
    """The maintained report's order from batch runs: evaluator order
    (PFDs, then tableau rules), each rule's violations by ``(rows,
    suspect cell)``, the first of each identity key kept."""
    detector = ErrorDetector(table)
    ordered = []
    for pfd in pfds:
        by_rule = {}
        for violation in detector.detect(pfd):
            by_rule.setdefault(violation.rule_index, []).append(violation)
        for rule_index in range(len(pfd.tableau)):
            ordered.extend(
                sorted(by_rule.get(rule_index, []), key=lambda v: (v.rows, v.suspect_cell))
            )
    seen, out = set(), []
    for violation in ordered:
        key = ViolationReport().identity_key(violation)
        if key not in seen:
            seen.add(key)
            out.append(violation)
    return out


def _row_strategy():
    return st.tuples(*(st.sampled_from(VALUES[column]) for column in COLUMNS))


def _mutation_strategy():
    return st.one_of(
        st.tuples(
            st.just("set"),
            st.integers(0, 63),
            st.sampled_from(COLUMNS),
            st.integers(0, len(VALUES["zip"]) - 1),
        ),
        st.tuples(st.just("append"), _row_strategy()),
        st.tuples(st.just("delete"), st.integers(0, 63)),
    )


def _apply(target, mutation) -> None:
    """One mutation through ``target`` (the detector or the table);
    row indexes wrap around the current size."""
    table = target.table if isinstance(target, IncrementalDetector) else target
    kind = mutation[0]
    if kind == "append":
        target.append_row(list(mutation[1]))
    elif table.n_rows == 0:
        return
    elif kind == "set":
        _, row, column, pick = mutation
        values = VALUES[column]
        target.set_cell(row % table.n_rows, column, values[pick % len(values)])
    else:
        target.delete_row(mutation[1] % table.n_rows)


def _check(incremental, pfds, context):
    snapshot = incremental.table.materialize()
    got = incremental.report()
    full = ErrorDetector(snapshot).detect_all(pfds)
    assert got.canonical_violations() == full.canonical_violations(), context
    assert got.violations == expected_report_order(snapshot, pfds), context


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    rows=st.lists(_row_strategy(), min_size=0, max_size=14),
    steps=st.lists(
        st.one_of(
            _mutation_strategy(),
            st.tuples(st.just("refresh"), st.lists(_mutation_strategy(), max_size=4)),
        ),
        max_size=10,
    ),
    small_shards=st.booleans(),
)
def test_property_any_mutation_sequence_matches_batch_detection(rows, steps, small_shards):
    """After every step — a mutation through the detector, or a batch of
    direct overlay mutations caught up by ``refresh()`` — the maintained
    report equals batch detection canonically, in the stated order."""
    table = Table.from_rows(list(COLUMNS), [list(row) for row in rows])
    table = overlay_of(table, 3 if small_shards else max(table.n_rows, 1))
    pfds = property_pfds()
    incremental = IncrementalDetector(table, pfds)
    _check(incremental, pfds, "seed")
    for number, step in enumerate(steps):
        if step[0] == "refresh":
            for mutation in step[1]:
                _apply(table, mutation)
            incremental.refresh()
        else:
            _apply(incremental, step)
        _check(incremental, pfds, f"step {number}: {step}")
