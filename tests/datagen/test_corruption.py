"""Tests for the error injector and GeneratedDataset bookkeeping."""

import pytest

from repro.datagen.corruption import CorruptionSpec, ErrorInjector, GeneratedDataset, _case_flip, _typo
from repro.dataset.table import Table
import random


@pytest.fixture
def city_table():
    return Table.from_rows(
        ["zip", "city"],
        [[f"900{i:02d}", "Los Angeles"] for i in range(50)],
    )


class TestCorruptionSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            CorruptionSpec("city", error_rate=1.5)
        with pytest.raises(ValueError):
            CorruptionSpec("city", error_rate=0.1, kind="explode")


class TestValueCorruptors:
    def test_typo_changes_the_value(self):
        rng = random.Random(0)
        for value in ("Chicago", "IL", "90001", "x"):
            assert _typo(value, rng) != value

    def test_typo_on_empty_value(self):
        assert _typo("", random.Random(0)) == "?"

    def test_case_flip_changes_exactly_one_letter_case(self):
        rng = random.Random(1)
        flipped = _case_flip("IL", rng)
        assert flipped != "IL"
        assert flipped.upper() == "IL"

    def test_case_flip_without_letters_falls_back_to_typo(self):
        rng = random.Random(2)
        assert _case_flip("1234", rng) != "1234"


class TestErrorInjector:
    def test_corrupts_requested_fraction(self, city_table):
        injector = ErrorInjector(seed=3)
        dirty, cells = injector.corrupt(
            city_table, [CorruptionSpec("city", 0.1, kind="typo")]
        )
        assert len(cells) == 5
        for row, attribute in cells:
            assert attribute == "city"
            assert dirty.cell(row, attribute) != city_table.cell(row, attribute)

    def test_untouched_cells_are_identical(self, city_table):
        injector = ErrorInjector(seed=3)
        dirty, cells = injector.corrupt(
            city_table, [CorruptionSpec("city", 0.1, kind="typo")]
        )
        corrupted_rows = {row for row, _ in cells}
        for row in range(city_table.n_rows):
            if row not in corrupted_rows:
                assert dirty.row(row) == city_table.row(row)

    def test_zero_rate_still_injects_at_least_one_error(self, city_table):
        # a strictly positive rate rounds up to one cell so experiments
        # always have something to find
        injector = ErrorInjector(seed=3)
        _dirty, cells = injector.corrupt(city_table, [CorruptionSpec("city", 0.001)])
        assert len(cells) == 1

    def test_rate_zero_injects_nothing(self, city_table):
        injector = ErrorInjector(seed=3)
        dirty, cells = injector.corrupt(city_table, [CorruptionSpec("city", 0.0)])
        assert cells == set()
        assert dirty == city_table

    def test_swap_uses_alternatives(self, city_table):
        injector = ErrorInjector(seed=4)
        dirty, cells = injector.corrupt(
            city_table,
            [CorruptionSpec("city", 0.1, kind="swap", alternatives=["Chicago", "Los Angeles"])],
        )
        for row, attribute in cells:
            assert dirty.cell(row, attribute) == "Chicago"

    def test_seeded_injection_is_reproducible(self, city_table):
        first = ErrorInjector(seed=9).corrupt(city_table, [CorruptionSpec("city", 0.1)])
        second = ErrorInjector(seed=9).corrupt(city_table, [CorruptionSpec("city", 0.1)])
        assert first[1] == second[1]
        assert first[0] == second[0]

    def test_original_table_never_mutated(self, city_table):
        snapshot = city_table.copy()
        ErrorInjector(seed=5).corrupt(city_table, [CorruptionSpec("city", 0.2, kind="typo")])
        assert city_table == snapshot


class TestGeneratedDataset:
    def test_bookkeeping(self, city_table):
        injector = ErrorInjector(seed=3)
        dirty, cells = injector.corrupt(city_table, [CorruptionSpec("city", 0.1)])
        dataset = GeneratedDataset(
            name="demo", table=dirty, clean_table=city_table, error_cells=cells
        )
        assert dataset.n_errors == len(cells)
