"""The per-candidate fallback to the scalar loop body.

The kernels are the only mining route, except where they cannot
reproduce the miners: a customized decision function or variable miner
sends each candidate through the scalar Figure 2 loop body, fed from the
same column encodings.  These tests pin which body runs, and that the
fallback changes nothing in the results.
"""

from __future__ import annotations

import pytest
from reference_decision import ReferenceMajority

from repro.datagen import build_dataset
from repro.discovery import DiscoveryConfig, PfdDiscoverer
from repro.discovery.variable_miner import VariablePfdMiner
from repro.kernels import mine
from repro.perf import clear_caches
from repro.sharding import ShardedDiscoverer, ShardedTable

CONFIG = DiscoveryConfig(min_coverage=0.4, allowed_violation_ratio=0.2)


class _LoggedVariableMiner(VariablePfdMiner):
    """A customized miner: the variable kernel does not reproduce it."""


@pytest.fixture
def table():
    return build_dataset("zip_city_state", n_rows=60, seed=4).table


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts calls of each mining kernel (the loop imports them per call)."""
    calls = {"constant": 0, "variable": 0}

    def counted(name, kernel):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        mine, "mine_constant_kernel", counted("constant", mine.mine_constant_kernel)
    )
    monkeypatch.setattr(
        mine, "mine_variable_kernel", counted("variable", mine.mine_variable_kernel)
    )
    return calls


def source_for(build, table):
    """The input each discoverer mines: the table, or 9-row shards of it."""
    return table if build is PfdDiscoverer else ShardedTable.from_table(table, 9)


ROUTES = pytest.mark.parametrize(
    "build", [PfdDiscoverer, ShardedDiscoverer], ids=["mono", "sharded"]
)


@ROUTES
def test_default_route_runs_the_kernels(table, kernel_calls, build):
    result = build(CONFIG).discover_with_report(source_for(build, table))
    assert kernel_calls["constant"] == len(result.reports) > 0
    assert kernel_calls["variable"] == len(result.reports)


@ROUTES
def test_customized_decision_runs_the_scalar_body(table, kernel_calls, build):
    discoverer = build(CONFIG, ReferenceMajority())
    result = discoverer.discover_with_report(source_for(build, table))
    assert result.reports
    assert kernel_calls == {"constant": 0, "variable": 0}


@ROUTES
def test_customized_variable_miner_falls_back_identically(table, kernel_calls, build):
    clear_caches()
    expected = build(CONFIG).discover_with_report(source_for(build, table))
    kernel_calls.update(constant=0, variable=0)
    discoverer = build(CONFIG)
    # the sharded discoverer mines through its monolithic driver
    driver = discoverer if build is PfdDiscoverer else discoverer.discoverer
    driver.variable_miner = _LoggedVariableMiner(CONFIG)
    clear_caches()
    result = discoverer.discover_with_report(source_for(build, table))
    assert kernel_calls == {"constant": 0, "variable": 0}
    assert [p.describe() for p in result.pfds] == [p.describe() for p in expected.pfds]
    assert [(r.lhs, r.rhs, r.accepted, r.coverage) for r in result.reports] == [
        (r.lhs, r.rhs, r.accepted, r.coverage) for r in expected.reports
    ]


def test_variable_only_config_keeps_the_kernel_with_a_custom_decision(table, kernel_calls):
    """The decision function only matters when constant PFDs are mined."""
    config = CONFIG.with_overrides(discover_constant=False)
    PfdDiscoverer(config, ReferenceMajority()).discover_with_report(table)
    assert kernel_calls["constant"] == 0
    assert kernel_calls["variable"] > 0
