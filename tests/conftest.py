"""Shared fixtures: the paper's running-example tables and small synthetic
datasets reused across the test suite."""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help=(
            "rewrite the golden snapshot files under tests/golden/ from the "
            "current behaviour instead of comparing against them"
        ),
    )

from repro.datagen import (
    generate_fullname_gender,
    generate_phone_state,
    generate_zip_city_state,
    name_table_d1,
    zip_table_d2,
)
from repro.dataset import Table


@pytest.fixture
def name_table() -> Table:
    """Table 1 of the paper (dirty: r4[gender] is wrong)."""
    return name_table_d1().table


@pytest.fixture
def name_dataset():
    return name_table_d1()


@pytest.fixture
def zip_table() -> Table:
    """Table 2 of the paper (dirty: s4[city] is wrong)."""
    return zip_table_d2().table


@pytest.fixture
def zip_dataset():
    return zip_table_d2()


@pytest.fixture(scope="session")
def small_zip_city_state():
    """A 400-row zip/city/state dataset with injected errors."""
    return generate_zip_city_state(n_rows=400, seed=5)


@pytest.fixture(scope="session")
def small_phone_state():
    """A 400-row phone/state dataset with injected errors."""
    return generate_phone_state(n_rows=400, seed=5)


@pytest.fixture(scope="session")
def small_fullname_gender():
    """A 400-row full-name/gender dataset with injected errors."""
    return generate_fullname_gender(n_rows=400, seed=5)


@pytest.fixture
def mixed_table() -> Table:
    """A small heterogeneous table used by dataset-layer tests."""
    return Table.from_rows(
        ["id", "name", "age", "city"],
        [
            ["1", "Alice Smith", "34", "Boston"],
            ["2", "Bob Jones", "28", "Boston"],
            ["3", "Carol White", "45", "Chicago"],
            ["4", "Dan Brown", "", "Chicago"],
            ["5", "Eve Black", "52", "Seattle"],
        ],
    )
