"""Tests for the AnmatSession workflow (upload → profile → discover →
confirm → detect)."""

import pytest

from repro.anmat.project import ProjectStore
from repro.anmat.session import AnmatSession, SessionState
from repro.dataset.table import Table
from repro.detection import ErrorDetector
from repro.discovery import PfdDiscoverer
from repro.discovery.config import DiscoveryConfig
from repro.discovery.maintenance import RuleMaintainer
from repro.errors import ProjectError
from repro.metrics.evaluation import evaluate_report
from repro.sharding import ShardedDetector, ShardOverlay

from pairwise_reference import assert_matches_pairwise, violating_pairs


class TestWorkflowOrder:
    def test_initial_state(self):
        session = AnmatSession(dataset_name="demo")
        assert session.state is SessionState.CREATED
        with pytest.raises(ProjectError):
            session.run_profiling()
        with pytest.raises(ProjectError):
            session.run_discovery()

    def test_detection_requires_confirmed_pfds(self, small_zip_city_state):
        session = AnmatSession(dataset_name="demo")
        session.load_table(small_zip_city_state.table)
        session.run_discovery()
        with pytest.raises(ProjectError):
            session.run_detection()

    def test_confirm_unknown_name(self, small_zip_city_state):
        session = AnmatSession(dataset_name="demo")
        session.load_table(small_zip_city_state.table)
        session.run_discovery()
        with pytest.raises(ProjectError):
            session.confirm(["not-a-pfd"])

    def test_confirm_is_atomic(self, small_zip_city_state):
        # Regression: a valid name followed by an unknown one used to be
        # appended to confirmed_names before the error fired, leaving the
        # session half-confirmed.
        session = AnmatSession(dataset_name="demo")
        session.load_table(small_zip_city_state.table)
        session.run_discovery()
        valid = session.discovered_pfds()[0].name
        with pytest.raises(ProjectError):
            session.confirm([valid, "not-a-pfd"])
        assert session.confirmed_names == []
        # and a later all-valid confirm still works
        assert session.confirm([valid]) == [valid]
        assert session.confirmed_names == [valid]


class TestFullWorkflow:
    @pytest.fixture
    def session(self, small_zip_city_state):
        session = AnmatSession(dataset_name="zips")
        session.load_table(small_zip_city_state.table)
        session.set_parameters(min_coverage=0.6, allowed_violation_ratio=0.05)
        return session

    def test_states_advance(self, session):
        assert session.state is SessionState.LOADED
        session.run_profiling()
        assert session.state is SessionState.PROFILED
        session.run_discovery()
        assert session.state is SessionState.DISCOVERED
        session.confirm_all()
        session.run_detection()
        assert session.state is SessionState.DETECTED

    def test_parameters_are_applied(self, session):
        assert session.config.min_coverage == 0.6
        session.set_parameters(min_coverage=0.9)
        assert session.config.min_coverage == 0.9

    def test_discovery_profiles_implicitly(self, session):
        session.run_discovery()
        assert session.profile is not None

    def test_confirm_subset(self, session):
        session.run_discovery()
        names = [pfd.name for pfd in session.discovered_pfds()]
        session.confirm(names[:1])
        assert len(session.confirmed_pfds()) == 1
        report = session.run_detection()
        assert report is session.violations

    def test_detection_finds_injected_errors(self, session, small_zip_city_state):
        session.run_discovery()
        session.confirm_all()
        report = session.run_detection()
        evaluation = evaluate_report(report, small_zip_city_state.error_cells)
        assert evaluation.recall >= 0.8

    def test_repair_suggestions_follow_detection(self, session):
        assert session.repair_suggestions() == []
        session.run_discovery()
        session.confirm_all()
        session.run_detection()
        suggestions = session.repair_suggestions()
        assert suggestions
        assert all(s.suggested_value != s.current_value for s in suggestions)

    def test_summary_contents(self, session):
        session.run_discovery()
        session.confirm_all()
        session.run_detection()
        summary = session.summary()
        assert summary["dataset"] == "zips"
        assert summary["n_pfds"] >= summary["n_confirmed"] > 0
        assert summary["n_violations"] == len(session.violations)


class TestEditLoop:
    @pytest.fixture
    def detected_session(self, small_zip_city_state):
        session = AnmatSession(dataset_name="zips")
        session.load_table(small_zip_city_state.table.copy())
        session.set_parameters(min_coverage=0.6, allowed_violation_ratio=0.05)
        session.run_discovery()
        session.confirm_all()
        session.run_detection()
        return session

    def test_edit_requires_a_detection_run(self, small_zip_city_state):
        session = AnmatSession(dataset_name="demo")
        session.load_table(small_zip_city_state.table.copy())
        with pytest.raises(ProjectError):
            session.edit_cell(0, "city", "X")

    def test_apply_repair_updates_violations_in_place(self, detected_session):
        session = detected_session
        before = len(session.violations)
        suggestion = session.repair_suggestions()[0]
        report = session.apply_repair(suggestion)
        assert session.state is SessionState.EDITING
        assert report is session.violations
        assert len(report) < before
        assert session.table.cell(suggestion.row, suggestion.attribute) == (
            suggestion.suggested_value
        )

    def test_edit_loop_matches_full_redetection(self, detected_session):
        from repro.detection import ErrorDetector

        session = detected_session
        for suggestion in session.repair_suggestions()[:5]:
            session.apply_repair(suggestion)
        full = ErrorDetector(session.table.materialize()).detect_all(
            session.confirmed_pfds()
        )
        assert (
            session.violations.canonical_violations() == full.canonical_violations()
        )

    def test_repairing_everything_empties_the_report(self, detected_session):
        session = detected_session
        # apply_repairs round-by-round (repairs can shift majorities)
        for _ in range(10):
            suggestions = session.repair_suggestions()
            if not suggestions:
                break
            for suggestion in suggestions:
                session.apply_repair(suggestion)
        assert session.violations.is_empty()

    def test_rerunning_detection_returns_to_detected(self, detected_session):
        session = detected_session
        session.edit_cell(0, "city", "Oddville")
        assert session.state is SessionState.EDITING
        in_place = session.violations
        rerun = session.run_detection()
        assert session.state is SessionState.DETECTED
        assert rerun.canonical_violations() == in_place.canonical_violations()

    def test_closing_recheck_persists_results(self, tmp_path, small_phone_state):
        from repro.anmat.project import ProjectStore

        project = ProjectStore(tmp_path).create_project("phones")
        session = AnmatSession(dataset_name="d1", project=project)
        session.load_table(small_phone_state.table.copy())
        session.run_discovery()
        session.confirm_all()
        session.run_detection()
        before_editing = project.load_results("d1")["n_violations"]
        session.apply_repair(session.repair_suggestions()[0])
        # edits do not rewrite project results (one disk write per cell
        # fix would dwarf the incremental update) ...
        assert project.load_results("d1")["n_violations"] == before_editing
        # ... the closing full re-check does
        session.run_detection()
        assert project.load_results("d1")["n_violations"] == len(session.violations)

    def test_loading_a_new_table_drops_the_edit_loop(self, detected_session):
        session = detected_session
        session.edit_cell(0, "city", "Oddville")
        old_table = session.table
        new_table = old_table.materialize()
        session.load_table(new_table)
        assert session.violations is None
        with pytest.raises(ProjectError):
            session.edit_cell(1, "city", "Elsewhere")
        # neither table was touched by the rejected edit
        assert old_table.cell(1, "city") == new_table.cell(1, "city")
        assert session.table.cell(1, "city") == new_table.cell(1, "city")

    def test_edit_loop_matches_the_literal_pairwise_check(self, detected_session):
        # the edit loop's maintained variable violations agree with the
        # paper's naive pair enumeration over the edited table
        session = detected_session
        before = session.run_detection()
        after = session.edit_cell(0, "city", "X")
        assert session.state.value == "editing"
        table = session.table.materialize()
        variable = [pfd for pfd in session.confirmed_pfds() if pfd.is_variable]
        assert variable
        for pfd in variable:
            violations = [v for v in after if v.pfd_name == pfd.name]
            assert_matches_pairwise(violations, violating_pairs(table, pfd))
        assert before is not after


class TestProjectIntegration:
    def test_session_persists_into_project(self, tmp_path, small_phone_state):
        project = ProjectStore(tmp_path).create_project("phones")
        session = AnmatSession(
            dataset_name="d1", project=project, config=DiscoveryConfig(min_coverage=0.5)
        )
        session.load_table(small_phone_state.table)
        session.run_discovery()
        session.confirm_all()
        session.run_detection()
        # the dataset, the PFDs and the detection summary are all on disk
        assert project.load_dataset("d1").n_rows == small_phone_state.table.n_rows
        assert project.load_pfds("d1")
        assert project.load_results("d1")["n_violations"] == len(session.violations)


class Reference:
    """The monolithic library engines' answer for one dataset: the
    :class:`PfdDiscoverer` rules, their :class:`ErrorDetector`
    violations and the profile."""

    def __init__(self, table, config, relation="d"):
        self.discovery = PfdDiscoverer(config).discover_with_report(
            table, relation=relation
        )
        self.profile = self.discovery.profile
        self.violations = ErrorDetector(table).detect_all(self.discovery.pfds)

    def discovered_pfds(self):
        return list(self.discovery.pfds)


class TestShardedSession:
    """config.shard_rows sizes the cut; sharded uploads keep theirs."""

    def _monolithic(self, dataset):
        return Reference(dataset.table, DiscoveryConfig(min_coverage=0.5))

    def test_shard_rows_config_routes_through_sharded_engines(
        self, small_zip_city_state
    ):
        mono = self._monolithic(small_zip_city_state)
        session = AnmatSession(
            dataset_name="d",
            config=DiscoveryConfig(min_coverage=0.5, shard_rows=64),
        )
        session.load_table(small_zip_city_state.table.copy())
        session.run_discovery()
        assert [p.describe() for p in session.discovered_pfds()] == [
            p.describe() for p in mono.discovered_pfds()
        ]
        session.confirm_all()
        report = session.run_detection()
        assert report.strategy == "sharded"
        assert report.canonical_violations() == mono.violations.canonical_violations()

    def test_sharded_upload_is_accepted(self, small_zip_city_state):
        from repro.sharding import ShardedTable

        mono = self._monolithic(small_zip_city_state)
        session = AnmatSession(
            dataset_name="d", config=DiscoveryConfig(min_coverage=0.5)
        )
        session.load_table(ShardedTable.from_table(small_zip_city_state.table, 50))
        assert session.table.n_rows == small_zip_city_state.table.n_rows
        session.run_discovery()
        session.confirm_all()
        report = session.run_detection()
        assert report.strategy == "sharded"
        assert report.canonical_violations() == mono.violations.canonical_violations()

    def test_detection_takes_no_strategy(self, small_zip_city_state):
        session = AnmatSession(
            dataset_name="one-route",
            config=DiscoveryConfig(min_coverage=0.5, shard_rows=64),
        )
        session.load_table(small_zip_city_state.table.copy())
        session.run_discovery()
        session.confirm_all()
        with pytest.raises(TypeError, match="strategy"):
            session.run_detection(strategy="scan")
        with pytest.raises(TypeError, match="strategy"):
            session.plan_detection(strategy="scan")
        assert session.run_detection().strategy == "sharded"
        assert session.last_plan.kind == "detection"

    def test_plans_are_exposed_and_recorded(self, small_zip_city_state):
        session = AnmatSession(
            dataset_name="planned",
            config=DiscoveryConfig(min_coverage=0.5, shard_rows=64),
        )
        session.load_table(small_zip_city_state.table.copy())
        plan = session.plan_discovery()
        assert plan.shard_rows == 64
        assert plan.n_shards == 7  # ceil(400 / 64)
        assert session.table.base.n_shards == 7
        session.run_discovery()
        assert session.last_plan.kind == "discovery"
        assert session.last_plan.shard_rows == 64
        session.confirm_all()
        session.run_detection()
        assert session.last_plan.kind == "detection"
        assert session.last_plan.n_shards == 7

    def test_n_workers_changes_nothing_on_a_table_load(self, small_zip_city_state):
        mono = self._monolithic(small_zip_city_state)
        session = AnmatSession(
            dataset_name="d", config=DiscoveryConfig(min_coverage=0.5, n_workers=2)
        )
        session.load_table(small_zip_city_state.table.copy())
        session.run_discovery()
        without = AnmatSession(dataset_name="d", config=DiscoveryConfig(min_coverage=0.5))
        without.load_table(small_zip_city_state.table)
        assert session.last_plan.describe() == without.plan_discovery().describe()
        without.close()
        assert [p.describe() for p in session.discovered_pfds()] == [
            p.describe() for p in mono.discovered_pfds()
        ]
        session.confirm_all()
        report = session.run_detection()
        assert report.canonical_violations() == mono.violations.canonical_violations()
        session.close()

    def test_upload_csv_streams_into_store(self, tmp_path, small_zip_city_state):
        from repro.dataset.csvio import write_csv
        from repro.sharding import SpillToDiskShardStore

        mono = self._monolithic(small_zip_city_state)
        path = tmp_path / "zips.csv"
        write_csv(small_zip_city_state.table, path)
        session = AnmatSession(
            dataset_name="streamed", config=DiscoveryConfig(min_coverage=0.5)
        )
        store = SpillToDiskShardStore(tmp_path / "spill")
        session.upload_csv(path, shard_rows=40, store=store)
        assert store.n_shards > 1  # the document was chunked into the store
        assert session.table.n_rows == small_zip_city_state.table.n_rows
        session.run_discovery()
        assert session.last_plan.shard_rows == 40
        session.confirm_all()
        report = session.run_detection()
        assert report.strategy == "sharded"
        assert report.canonical_violations() == mono.violations.canonical_violations()

    def test_upload_csv_defaults_shard_size_from_config(self, tmp_path, small_zip_city_state):
        from repro.dataset.csvio import write_csv

        path = tmp_path / "zips.csv"
        write_csv(small_zip_city_state.table, path)
        session = AnmatSession(
            dataset_name="cfg", config=DiscoveryConfig(min_coverage=0.5, shard_rows=32)
        )
        session.upload_csv(path)
        assert session.plan_discovery().shard_rows == 32

    def test_edit_loop_works_after_sharded_detection(self, small_zip_city_state):
        session = AnmatSession(
            dataset_name="editable",
            config=DiscoveryConfig(min_coverage=0.5, shard_rows=64),
        )
        session.load_table(small_zip_city_state.table.copy())
        session.run_discovery()
        session.confirm_all()
        session.run_detection()
        suggestions = session.repair_suggestions()
        if not suggestions:
            pytest.skip("no repair suggestions on this seed")
        session.apply_repair(suggestions[0])
        assert session.state is SessionState.EDITING
        # the next sharded re-check sees the edited table, not stale shards
        report = session.run_detection()
        fresh = ErrorDetector(session.table.materialize()).detect_all(
            session.confirmed_pfds()
        )
        assert report.canonical_violations() == fresh.canonical_violations()


class TestNeverMaterializedSession:
    """A sharded upload must run the whole workflow — profile, discover,
    detect, edit loop, re-check — without ever stitching a monolithic
    table."""

    def _monolithic(self, dataset):
        return Reference(dataset.table, DiscoveryConfig(min_coverage=0.5))

    @pytest.fixture
    def forbid_materializing(self, monkeypatch):
        from repro.sharding import ShardedTable, ShardOverlay

        def boom(self, *args, **kwargs):  # pragma: no cover - only on regression
            raise AssertionError("a monolithic table was built on the session path")

        monkeypatch.setattr(ShardedTable, "to_table", boom)
        monkeypatch.setattr(ShardOverlay, "materialize", boom)

    def test_full_workflow_with_spill_store(
        self, tmp_path, small_zip_city_state, forbid_materializing
    ):
        from repro.sharding import ShardedTable, ShardOverlay, SpillToDiskShardStore

        mono = self._monolithic(small_zip_city_state)
        store = SpillToDiskShardStore(tmp_path / "spill")
        sharded = ShardedTable.from_table(
            small_zip_city_state.table, 40, store=store
        )
        session = AnmatSession(
            dataset_name="d", config=DiscoveryConfig(min_coverage=0.5)
        )
        session.load_table(sharded)
        assert isinstance(session.table, ShardOverlay)
        assert session.table.base is sharded
        # profile / discover / detect all equal the monolithic run
        assert session.run_profiling() == mono.profile
        session.run_discovery()
        assert [p.describe() for p in session.discovered_pfds()] == [
            p.describe() for p in mono.discovered_pfds()
        ]
        session.confirm_all()
        report = session.run_detection()
        assert report.canonical_violations() == mono.violations.canonical_violations()
        # the edit loop lands in the overlay and the re-check matches a
        # fresh detection over the edited view
        suggestions = session.repair_suggestions()
        if not suggestions:
            pytest.skip("no repair suggestions on this seed")
        session.apply_repair(suggestions[0])
        assert session.state is SessionState.EDITING
        recheck = session.run_detection()
        # (a test-side copy streamed from the overlay's rows)
        edited = Table.from_rows(session.table.schema, session.table.iter_rows())
        fresh = ErrorDetector(edited).detect_all(session.confirmed_pfds())
        assert recheck.canonical_violations() == fresh.canonical_violations()
        session.close()

    def test_table_load_is_cut_onto_the_config_store(
        self, tmp_path, small_zip_city_state, forbid_materializing
    ):
        from repro.sharding import SpillToDiskShardStore

        session = AnmatSession(
            dataset_name="planned",
            config=DiscoveryConfig(
                min_coverage=0.5, store="spill", spill_dir=str(tmp_path / "spill")
            ),
        )
        session.load_table(small_zip_city_state.table)
        assert isinstance(session.table, ShardOverlay)
        store = session.table.base.store
        assert isinstance(store, SpillToDiskShardStore)
        assert sorted((tmp_path / "spill").glob("shard_*.shard"))
        plan = session.plan_detection()
        assert plan.store == "spill"
        assert "store=spill" in plan.describe()
        assert any("on the spill store" in d for d in plan.decisions)
        session.close()

    def test_every_plan_of_a_table_load_runs_on_its_shards(
        self, small_zip_city_state, forbid_materializing
    ):
        # one route for every run of a Table load, re-checks included:
        # the shards cut at load, with the rules maintained incrementally
        mono = self._monolithic(small_zip_city_state)
        session = AnmatSession(
            dataset_name="d", config=DiscoveryConfig(min_coverage=0.5, shard_rows=50)
        )
        session.load_table(small_zip_city_state.table)
        plans = [session.plan_discovery()]
        session.run_discovery()
        session.confirm_all()
        plans.append(session.plan_detection())
        report = session.run_detection()
        session.edit_cell(0, "city", "Oddville")
        session.recheck()
        plans.append(session.last_plan)
        for plan in plans:
            assert (plan.shard_rows, plan.n_shards) == (50, 8)
            assert "backend" not in plan.describe()
        assert plans[-1].rule_maintenance == "incremental"
        assert report.canonical_violations() == mono.violations.canonical_violations()
        session.close()


class TestSessionLifecycle:
    def test_close_releases_the_upload_store(self, tmp_path, small_zip_city_state):
        from repro.dataset.csvio import write_csv
        from repro.sharding import SpillToDiskShardStore

        path = tmp_path / "zips.csv"
        write_csv(small_zip_city_state.table, path)
        session = AnmatSession(dataset_name="closing")
        store = SpillToDiskShardStore()  # private tempdir
        session.upload_csv(path, shard_rows=40, store=store)
        directory = store.directory
        assert directory.exists()
        session.close()
        assert not directory.exists()
        assert session.table is None

    def test_context_manager_closes(self, tmp_path, small_zip_city_state):
        from repro.dataset.csvio import write_csv
        from repro.sharding import SpillToDiskShardStore

        path = tmp_path / "zips.csv"
        write_csv(small_zip_city_state.table, path)
        store = SpillToDiskShardStore()
        with AnmatSession(dataset_name="ctx") as session:
            session.upload_csv(path, shard_rows=40, store=store)
            directory = store.directory
            assert directory.exists()
        assert not directory.exists()

    def test_load_table_closes_the_replaced_store(self, small_zip_city_state):
        from repro.sharding import ShardedTable, SpillToDiskShardStore

        store = SpillToDiskShardStore()
        sharded = ShardedTable.from_table(small_zip_city_state.table, 40, store=store)
        session = AnmatSession(dataset_name="replace")
        session.load_table(sharded)
        directory = store.directory
        assert directory.exists()
        session.load_table(small_zip_city_state.table.copy())
        assert not directory.exists()
        # the session keeps working on the new table
        session.run_discovery()
        session.close()

    def test_failing_upload_releases_the_object_root(
        self, tmp_path, small_zip_city_state
    ):
        # regression: a put that kept failing mid-upload used to leak
        # the object root — the store was adopted only after from_chunks
        # succeeded, so nothing closed it on the error path
        from repro.dataset.csvio import write_csv
        from repro.sharding import (
            FaultInjectingClient,
            LocalObjectClient,
            ObjectShardStore,
            ObjectStoreError,
            RetryPolicy,
        )

        path = tmp_path / "zips.csv"
        write_csv(small_zip_city_state.table, path)
        client = FaultInjectingClient(
            LocalObjectClient(),  # private tempdir — the leakable root
            script=[("put", "transient")] * 99,
        )
        root = client.inner.root
        store = ObjectShardStore(
            client=client,
            owns_client=True,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0),
        )
        with pytest.raises(ObjectStoreError, match="upload failed"):
            with AnmatSession(dataset_name="leaky") as session:
                session.upload_csv(path, shard_rows=40, store=store)
        assert not root.exists(), "object root leaked after a failed upload"

    def test_upload_store_comes_from_config(self, tmp_path, small_zip_city_state):
        from repro.dataset.csvio import write_csv
        from repro.sharding import SpillToDiskShardStore

        path = tmp_path / "zips.csv"
        write_csv(small_zip_city_state.table, path)
        session = AnmatSession(
            dataset_name="cfg-store",
            config=DiscoveryConfig(
                shard_rows=40, store="spill", spill_dir=str(tmp_path / "spill")
            ),
        )
        session.upload_csv(path)
        source_store = session.table.base.store
        assert isinstance(source_store, SpillToDiskShardStore)
        assert source_store.directory == tmp_path / "spill"
        session.close()

    def test_close_is_idempotent_and_resets_state(self):
        session = AnmatSession(dataset_name="idempotent")
        session.close()
        session.close()
        with pytest.raises(ProjectError):
            session.run_profiling()


class TestRecheckShardSize:
    """Regression: a re-check after edits must inherit the upload's
    custom shard size instead of silently re-sharding at the default —
    a repartition would both change the plan shape and defeat the rule
    maintainer (whose baseline versions only align on the same shards)."""

    def _custom_sharded_session(self, small_zip_city_state, shard_rows=50):
        from repro.sharding import ShardedTable

        sharded = ShardedTable.from_table(small_zip_city_state.table, shard_rows)
        session = AnmatSession(dataset_name="custom-shards")
        session.set_parameters(min_coverage=0.5)
        session.load_table(sharded)
        return session, sharded.n_shards

    def test_recheck_keeps_the_uploads_shard_size(self, small_zip_city_state):
        session, n_shards = self._custom_sharded_session(small_zip_city_state)
        session.run_discovery()
        assert session.last_plan.shard_rows == 50
        session.table.set_cell(3, "city", "Mutated")
        session.recheck()
        plan = session.last_plan
        assert plan.shard_rows == 50, (
            "recheck re-sharded at a different size than the upload"
        )
        assert plan.n_shards == n_shards
        assert any("shards of 50 rows" in d for d in plan.decisions)
        # and because the partition matched, maintenance ran incrementally
        assert plan.rule_maintenance == "incremental"
        assert session.table.as_sharded().n_shards == n_shards
        session.close()

    def test_recheck_after_edit_loop_keeps_shard_size(self, small_zip_city_state):
        session, n_shards = self._custom_sharded_session(small_zip_city_state)
        session.run_discovery()
        session.confirm_all()
        session.run_detection()
        session.edit_cell(7, "city", "Springfield")
        session.recheck()
        assert session.last_plan.shard_rows == 50
        assert session.last_plan.n_shards == n_shards
        assert session.state is SessionState.DETECTED
        session.close()


def test_detection_after_overlay_edits_sees_the_edited_cells():
    # edits land in the overlay over the shards cut at load; the sealed
    # view a later detection reads carries new shard versions, so nothing
    # cached for the unedited shards may answer for them
    from repro.datagen import build_dataset

    table = build_dataset("zip_city_state", n_rows=90, seed=11).table
    config = DiscoveryConfig(min_coverage=0.4, allowed_violation_ratio=0.2, shard_rows=13)
    with AnmatSession(dataset_name="recut", config=config) as session:
        session.load_table(table)
        session.run_discovery()
        session.confirm_all()
        session.run_detection()
        session.table.set_cell(0, "city", "Mutated")
        session.table.set_cell(50, "state", "ZZ")
        report = session.run_detection()
        edited = session.table.materialize()
        expected = ErrorDetector(edited).detect_all(session.confirmed_pfds())
    assert edited.cell(0, "city") == "Mutated"
    assert report.canonical_violations() == expected.canonical_violations()


class TestLargestCodePointPrefix:
    def test_detection_over_a_prefix_ending_in_the_largest_code_point(self):
        # discovery mines constant rules with literal prefixes U+10FFFF
        # and U+10FFFE; detection narrows the distinct values by prefix
        codes = [
            ("\U0010ffff" if row % 2 else "\U0010fffe") + f"{row * 7 % 10000:04d}"
            for row in range(400)
        ]
        labels = ["X" if code[0] == "\U0010ffff" else "Y" for code in codes]
        labels[3] = labels[10] = "Z"
        table = Table(["code", "label"], [codes, labels])
        with AnmatSession(dataset_name="codes") as session:
            session.load_table(table)
            session.run_discovery()
            session.confirm_all()
            assert any("\U0010ffff" in pfd.describe() for pfd in session.confirmed_pfds())
            report = session.run_detection()
            expected = ErrorDetector(table).detect_all(session.confirmed_pfds())
            assert report.canonical_violations() == expected.canonical_violations()
            assert {(3, "label"), (10, "label")} <= report.suspect_cells()


class TestAtomicRecheck:
    """A re-check that raises midway leaves the session as it was."""

    @pytest.fixture
    def edited_session(self, small_zip_city_state):
        session = AnmatSession(
            dataset_name="atomic",
            config=DiscoveryConfig(min_coverage=0.5, shard_rows=64),
        )
        session.load_table(small_zip_city_state.table)
        session.run_discovery()
        session.confirm_all()
        session.run_detection()
        session.apply_repair(session.repair_suggestions()[0])
        assert session.plan_recheck().rule_maintenance == "incremental"
        yield session
        session.close()

    @pytest.mark.parametrize(
        "target",
        [
            (ShardedDetector, "detect_all"),
            (RuleMaintainer, "maintain"),
        ],
        ids=["detection", "maintenance"],
    )
    def test_failed_recheck_keeps_the_pre_recheck_state(
        self, edited_session, monkeypatch, target
    ):
        session = edited_session
        before = (
            session.discovery,
            list(session.confirmed_names),
            session.violations,
            session.state,
            session.last_plan,
        )

        def boom(self, *args, **kwargs):
            raise RuntimeError("failed mid-recheck")

        owner, name = target
        monkeypatch.setattr(owner, name, boom)
        with pytest.raises(RuntimeError, match="mid-recheck"):
            session.recheck()
        monkeypatch.undo()

        assert session.discovery is before[0]
        assert session.confirmed_names == before[1]
        assert session.violations is before[2]
        assert session.state is before[3] is SessionState.EDITING
        assert session.last_plan is before[4]
        # the maintainer may have advanced past the kept rules: dropped
        assert session.plan_recheck().rule_maintenance == "full"

        # the edit loop over the kept rules still works
        report = session.edit_cell(1, "city", "Elsewhere")
        expected = ErrorDetector(session.table.materialize()).detect_all(
            session.confirmed_pfds()
        )
        assert report.canonical_violations() == expected.canonical_violations()

        # and the next re-check equals a fresh discovery
        result = session.recheck()
        assert session.last_plan.rule_maintenance == "full"
        edited = session.table.materialize()
        fresh = PfdDiscoverer(session.config).discover_with_report(
            edited, relation="atomic"
        )
        assert [p.describe() for p in result.pfds] == [p.describe() for p in fresh.pfds]
        assert session.state is SessionState.DETECTED
        expected = ErrorDetector(edited).detect_all(session.confirmed_pfds())
        assert (
            session.violations.canonical_violations()
            == expected.canonical_violations()
        )
        # which re-seeded the maintainer
        assert session.plan_recheck().rule_maintenance == "incremental"
