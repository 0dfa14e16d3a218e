"""Shard reads per session op on a disk-backed store, and profile reuse.

A session op over a spill store pays for every shard it decodes, so the
contract is: profiling, discovery and detection each decode every shard
exactly once — discovery reuses the profiling step's profile and encodes
all candidate columns in one pass — and the reused profile never
outlives the data version it was built from.
"""

from __future__ import annotations

import pytest

from repro.anmat.session import AnmatSession
from repro.dataset.csvio import write_csv
from repro.dataset.profiling import profile_table
from repro.discovery.config import DiscoveryConfig
from repro.discovery.discoverer import PfdDiscoverer
from repro.sharding import sharded_table as sharded_table_module
from repro.sharding import store as store_module

SHARD_ROWS = 40


@pytest.fixture
def spill_session(tmp_path, small_zip_city_state):
    path = tmp_path / "zips.csv"
    write_csv(small_zip_city_state.table, path)
    session = AnmatSession(dataset_name="reads", config=DiscoveryConfig(store="spill"))
    session.upload_csv(path, shard_rows=SHARD_ROWS)
    yield session
    session.close()


@pytest.fixture
def decoded(monkeypatch):
    """The sources of every spill-file decode, in call order."""
    sources = []
    real = store_module.decode_shard

    def counting(data, schema, n_rows, source, intern):
        sources.append(source)
        return real(data, schema, n_rows, source, intern)

    monkeypatch.setattr(store_module, "decode_shard", counting)
    return sources


@pytest.fixture
def sharded_profiles(monkeypatch):
    """How many times a sharded table was profiled from its shards."""
    calls = []
    real = sharded_table_module.profile_sharded

    def counting(sharded, *args, **kwargs):
        calls.append(sharded)
        return real(sharded, *args, **kwargs)

    monkeypatch.setattr(sharded_table_module, "profile_sharded", counting)
    return calls


def _rules(pfds):
    return [str(pfd) for pfd in pfds]


def test_each_session_op_decodes_every_shard_once(spill_session, decoded, sharded_profiles):
    n_shards = spill_session._source.sharded_view(0).n_shards
    assert n_shards == 10
    every_shard = [f"spill file shard_{index:06d}.shard" for index in range(n_shards)]

    spill_session.run_profiling()
    assert decoded == every_shard
    assert len(sharded_profiles) == 1

    decoded.clear()
    spill_session.run_discovery()
    assert spill_session.discovery.pfds, "the fixture should yield rules to detect with"
    # one shard-major encoding pass, and no second profile
    assert decoded == every_shard
    assert len(sharded_profiles) == 1
    assert spill_session.discovery.profile is spill_session.profile

    spill_session.confirm_all()
    decoded.clear()
    spill_session.run_detection()
    assert decoded == every_shard


def test_discovery_without_profiling_profiles_once(spill_session, decoded, sharded_profiles):
    spill_session.run_discovery()
    assert len(sharded_profiles) == 1
    # the profile pass plus the encoding pass
    assert len(decoded) == 2 * 10


def test_recheck_after_edits_reprofiles_the_edited_data(spill_session):
    session = spill_session
    session.run_profiling()
    session.run_discovery()
    session.confirm_all()
    session.run_detection()
    before = session.profile
    # rewrite a whole column: its profile (and the rules over it) must change
    for row in range(session.table.n_rows):
        session.edit_cell(row, "state", "ZZ")
    session.table.append_row(["99999", "Nowhere", "ZZ"])
    result = session.recheck()
    assert session.last_plan.rule_maintenance == "full"
    assert any("falling back" in d for d in session.last_plan.decisions)

    edited = session.table.materialize()
    assert result.profile == profile_table(edited)
    assert result.profile != before
    assert result.profile["state"].n_distinct == 1
    expected = PfdDiscoverer(session.config).discover_with_report(edited, relation="reads")
    assert _rules(result.pfds) == _rules(expected.pfds)
    # a fresh profiling step sees the edited data too
    assert session.run_profiling() == result.profile


def test_monolithic_profile_is_reused_until_the_table_changes(small_zip_city_state):
    table = small_zip_city_state.table.copy()
    session = AnmatSession(dataset_name="mono")
    session.load_table(table)
    profile = session.run_profiling()
    result = session.run_discovery()
    assert result.profile is profile

    table.set_cell(0, "state", "ZZ")
    fresh = session.run_profiling()
    assert fresh is not profile
    assert fresh == profile_table(table)
    assert session.run_discovery().profile is fresh

