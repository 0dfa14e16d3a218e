"""Shard reads per session op on a disk-backed store, and profile reuse.

A session op over a spill store pays for every shard it decodes, so the
contract is: profiling decodes every shard exactly once — it encodes
every column in one pass and profiles from the encodings — discovery
right after profiling decodes none (it reuses the profile and mines the
same encodings), a cold discovery decodes every shard once, detection
right after discovery decodes none (it groups rule pairs from the
encodings discovery kept), a cold detection decodes every shard once,
and the reused profile never outlives the data version it was built
from.  Detection seeds the edit loop's detector, so an edit reads
neither a shard nor an overlay column, and never changes the view's
encodings (the detector copies a column's codes on its first write); a
re-check patches the encodings from the seal's edited cells and reads
no shard either.  Each view groups each rule pair once, and a re-check's
view regroups only the pairs over an edited column.
"""

from __future__ import annotations

import detection_reference
import pytest

from repro.anmat.session import AnmatSession
from repro.kernels.runtime import np
from repro.dataset.csvio import write_csv
from repro.dataset.profiling import profile_table
from repro.discovery.config import DiscoveryConfig
from repro.detection import IncrementalDetector
from repro.discovery.discoverer import PfdDiscoverer
from repro.discovery.maintenance import RuleMaintainer
from repro.sharding import LocalObjectClient, ShardedTable, SpillToDiskShardStore
from repro.sharding import detection as detection_module
from repro.sharding import sharded_table as sharded_table_module
from repro.sharding.overlay import OverlayShardStore, ShardOverlay
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
    n_shards = spill_session.table.as_sharded().n_shards
    assert n_shards == 10
    every_shard = [f"spill file shard_{index:06d}.shard" for index in range(n_shards)]

    spill_session.run_profiling()
    assert decoded == every_shard
    assert len(sharded_profiles) == 1

    decoded.clear()
    spill_session.run_discovery()
    assert spill_session.discovery.pfds, "the fixture should yield rules to detect with"
    # profiling encoded every column: no shard is read, no second profile
    assert decoded == []
    assert len(sharded_profiles) == 1
    assert spill_session.discovery.profile is spill_session.profile

    spill_session.confirm_all()
    decoded.clear()
    spill_session.run_detection()
    # the rule columns' encodings outlived discovery: no shard is read
    assert decoded == []


def test_cold_detection_decodes_every_shard_once(tmp_path, small_zip_city_state, decoded):
    table = small_zip_city_state.table
    pfds = PfdDiscoverer(DiscoveryConfig()).discover(table)
    pairs = {(pfd.lhs_attribute, pfd.rhs_attribute) for pfd in pfds}
    assert len(pairs) >= 2, "the guarantee is about several rule pairs"
    store = SpillToDiskShardStore(tmp_path / "spill", cache_shards=1)
    sharded = ShardedTable.from_table(table, SHARD_ROWS, store=store)
    try:
        decoded.clear()
        report = IncrementalDetector(ShardOverlay(sharded), pfds).report()
        assert decoded == [
            f"spill file shard_{index:06d}.shard" for index in range(sharded.n_shards)
        ]
        expected = detection_reference.detect(table, pfds)
        assert report.canonical_violations() == expected.canonical_violations()
    finally:
        store.close()


def test_discovery_without_profiling_profiles_once(spill_session, decoded, sharded_profiles):
    spill_session.run_discovery()
    assert len(sharded_profiles) == 1
    # one encoding pass serves the profile and the mining
    assert decoded == [f"spill file shard_{index:06d}.shard" for index in range(10)]


def test_recheck_after_edits_reprofiles_the_edited_data(spill_session, monkeypatch):
    session = spill_session
    session.run_profiling()
    session.run_discovery()
    session.confirm_all()
    session.run_detection()
    before = session.profile
    # rewrite a whole column: its profile (and the rules over it) must change
    for row in range(session.table.n_rows):
        session.edit_cell(row, "state", "ZZ")
    # a failed re-check drops the rule maintainer: the next one re-discovers
    # in full, profiling the seal's patched shards
    def failing(self, view, relation=None):
        raise RuntimeError("injected maintenance failure")

    with monkeypatch.context() as patch:
        patch.setattr(RuleMaintainer, "maintain", failing)
        with pytest.raises(RuntimeError, match="injected"):
            session.recheck()
    result = session.recheck()
    assert session.last_plan.rule_maintenance == "full"
    assert any("no maintainable rule baseline" in d for d in session.last_plan.decisions)

    edited = session.table.materialize()
    assert result.profile == profile_table(edited)
    assert result.profile != before
    assert result.profile["state"].n_distinct == 1
    expected = PfdDiscoverer(session.config).discover_with_report(edited, relation="reads")
    assert _rules(result.pfds) == _rules(expected.pfds)
    # a fresh profiling step sees the edited data too
    assert session.run_profiling() == result.profile


def test_table_load_profile_is_reused_until_the_table_changes(
    small_zip_city_state, sharded_profiles
):
    table = small_zip_city_state.table
    session = AnmatSession(dataset_name="mono")
    session.load_table(table)
    profile = session.run_profiling()
    result = session.run_discovery()
    assert result.profile is profile
    assert len(sharded_profiles) == 1  # profiled once, from the load's cut

    session.table.set_cell(0, "state", "ZZ")
    fresh = session.run_profiling()
    assert fresh is not profile
    assert fresh == profile_table(session.table.materialize())
    assert fresh != profile_table(table)  # the caller's table is not the session's
    assert session.run_discovery().profile is fresh
    assert len(sharded_profiles) == 2
    session.close()



@pytest.fixture
def overlay_reads(monkeypatch):
    """Calls of the overlay's two read paths: patched-shard reads of a
    sealed view and column builds of the overlay itself."""
    calls = {"store_get": 0, "build_column": 0}
    real_get = OverlayShardStore.get
    real_build = ShardOverlay.column_ref

    def get(self, index):
        calls["store_get"] += 1
        return real_get(self, index)

    def build_column(self, name):
        calls["build_column"] += 1
        return real_build(self, name)

    monkeypatch.setattr(OverlayShardStore, "get", get)
    monkeypatch.setattr(ShardOverlay, "column_ref", build_column)
    return calls


def _repairs(session, n):
    return [
        (s.row, s.attribute, s.suggested_value) for s in session.repair_suggestions()[:n]
    ]


def test_edit_loop_attach_reads_nothing(spill_session, overlay_reads):
    session = spill_session
    session.run_profiling()
    session.run_discovery()
    session.confirm_all()
    session.run_detection()
    # the edits maintain the detector detection seeded: no shard or
    # column is read
    repairs = _repairs(session, 6)
    assert len(repairs) == 6
    session.edit_cell(*repairs[0])
    assert overlay_reads == {"store_get": 0, "build_column": 0}
    for repair in repairs[1:3]:
        session.edit_cell(*repair)
    session.recheck()
    assert session.violations is not None
    # nor after a re-check, which hands the detector over
    overlay_reads.update(store_get=0, build_column=0)
    session.edit_cell(*repairs[3])
    assert overlay_reads == {"store_get": 0, "build_column": 0}
    expected = detection_reference.detect(session.table.materialize(), 
        session.confirmed_pfds()
    )
    assert session.violations.canonical_violations() == expected.canonical_violations()


@pytest.mark.parametrize("kind", ["spill", "object"])
def test_edits_read_no_shard(tmp_path, small_zip_city_state, decoded, monkeypatch, kind):
    # edits in shards no op has left resident, through the session and
    # through its detector: the overlay records each write without
    # reading the cell it replaces, and the detector takes the old
    # values from its own codes
    path = tmp_path / "zips.csv"
    write_csv(small_zip_city_state.table, path)
    session = AnmatSession(
        dataset_name="edits",
        config=DiscoveryConfig(store=kind, spill_dir=str(tmp_path / kind)),
    )
    session.upload_csv(path, shard_rows=SHARD_ROWS)
    gets = []
    real_get = LocalObjectClient.get

    def counting_get(self, key):
        gets.append(key)
        return real_get(self, key)

    monkeypatch.setattr(LocalObjectClient, "get", counting_get)
    try:
        session.run_profiling()
        session.run_discovery()
        session.confirm_all()
        session.run_detection()
        base = session.table.base
        resident = set(base.store._loaded)
        cold = [i for i in range(base.n_shards) if i not in resident]
        shards, direct = cold[::3][:3], cold[1::3][:2]
        assert len(shards) == 3 and len(direct) == 2
        decoded.clear()
        gets.clear()
        for index in shards:
            offset = base.offset_of(index)
            session.edit_cell(offset + 1, "city", "Nowhere")
            session.edit_cell(offset + 2, "state", "ZZ")
            session.edit_cell(offset + 3, "zip", "00000")
        assert decoded == []
        assert gets == []
        detector = session._incremental
        for index in direct:
            detector.set_cell(base.offset_of(index) + 5, "city", "Elsewhere")
            detector.set_cell(base.offset_of(index) + 1, "zip", "99999")
        assert decoded == []
        assert gets == []
        expected = detection_reference.detect(session.table.materialize(), 
            session.confirmed_pfds()
        )
        assert detector.report().canonical_violations() == expected.canonical_violations()
    finally:
        session.close()


def test_edit_loop_leaves_the_detection_artifacts_alone(spill_session):
    session = spill_session
    session.run_profiling()
    session.run_discovery()
    session.confirm_all()
    report = session.run_detection()
    rules = session.confirmed_pfds()
    base = session.table.base
    names = sorted({n for pfd in rules for n in (pfd.lhs_attribute, pfd.rhs_attribute)})
    encodings = base.column_encodings(names)
    before = {
        name: (list(encoding.distinct), encoding.codes.copy())
        for name, encoding in encodings.items()
    }
    # repairs move rows between RHS groups of the seeded blocks; one
    # more edit introduces a value no column holds yet
    for row, attribute, value in _repairs(session, 12):
        session.edit_cell(row, attribute, value)
    session.edit_cell(0, "city", "Nowhere")
    # the view's rule-column encodings are the ones detection read,
    # unchanged: the detector copied them on its first write
    for name, encoding in base.column_encodings(names).items():
        assert encoding is encodings[name]
        assert list(encoding.distinct) == before[name][0]
        assert np.array_equal(encoding.codes, before[name][1])
    again = IncrementalDetector(ShardOverlay(base), rules).report()
    assert again.violations == report.violations


def test_recheck_reads_no_shard(spill_session, decoded, overlay_reads, patched_shards):
    session = spill_session
    session.run_profiling()
    session.run_discovery()
    session.confirm_all()
    session.run_detection()
    overlay = session.table
    # a batch over several shards and every column, one value new to
    # its column, and one write that restores the original value
    for row, donor in [(3, 390), (85, 12), (170, 250), (255, 41), (399, 0)]:
        for name in ("zip", "city", "state"):
            session.edit_cell(row, name, overlay.cell(donor, name))
    session.edit_cell(120, "city", "Nowhere")
    original = overlay.cell(200, "state")
    session.edit_cell(200, "state", "ZZ")
    session.edit_cell(200, "state", original)
    decoded.clear()
    overlay_reads.update(store_get=0, build_column=0)

    result = session.recheck()
    assert session.last_plan.rule_maintenance == "incremental"
    assert decoded == []
    assert overlay_reads == {"store_get": 0, "build_column": 0}
    assert patched_shards == []

    edited = overlay.materialize()
    expected = PfdDiscoverer(session.config).discover_with_report(edited, relation="reads")
    assert _rules(result.pfds) == _rules(expected.pfds)
    assert result.profile == expected.profile
    assert session.violations.canonical_violations() == (
        detection_reference.detect(edited, session.confirmed_pfds()).canonical_violations()
    )


@pytest.mark.parametrize("kind", ["memory", "spill", "object"])
def test_each_rule_pair_is_grouped_once_per_view(
    tmp_path, small_zip_city_state, monkeypatch, kind
):
    # detection reads a pair's groups once per tableau row; the view
    # keeps them, so each distinct (LHS, RHS) pair is grouped once.  A
    # re-check hands the detector over and groups no pair; the next
    # detection over its view regroups only the pairs over the edited
    # column
    path = tmp_path / "zips.csv"
    write_csv(small_zip_city_state.table, path)
    session = AnmatSession(
        dataset_name="pairs",
        config=DiscoveryConfig(store=kind, spill_dir=str(tmp_path / kind)),
    )
    session.upload_csv(path, shard_rows=SHARD_ROWS)
    grouped = []
    real_kernel = detection_module.pair_groups_kernel

    def counting(lhs, rhs):
        names = {id(e): name for name, e in session.table.as_sharded().encodings.items()}
        grouped.append((names[id(lhs)], names[id(rhs)]))
        return real_kernel(lhs, rhs)

    monkeypatch.setattr(detection_module, "pair_groups_kernel", counting)
    try:
        session.run_discovery()
        session.confirm_all()
        rules = session.confirmed_pfds()
        pairs = {(pfd.lhs_attribute, pfd.rhs_attribute) for pfd in rules}
        assert sum(len(pfd.tableau) for pfd in rules) > len(pairs)
        session.run_detection()
        assert len(grouped) == len(pairs)
        assert set(grouped) == pairs

        grouped.clear()
        overlay = session.table
        for row, donor in [(3, 390), (170, 250), (399, 0)]:
            session.edit_cell(row, "city", overlay.cell(donor, "city"))
        session.recheck()
        assert session.last_plan.rule_maintenance == "incremental"
        assert grouped == []
        session.run_detection()
        rechecked = {(pfd.lhs_attribute, pfd.rhs_attribute) for pfd in session.confirmed_pfds()}
        touched = {pair for pair in rechecked if "city" in pair}
        assert touched and touched != rechecked
        assert len(grouped) == len(touched)
        assert set(grouped) == touched
    finally:
        session.close()
