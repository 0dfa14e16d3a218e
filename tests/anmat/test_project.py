"""Tests for the JSON project store (the MongoDB stand-in)."""

import pytest

from repro.anmat.project import ProjectStore
from repro.errors import ProjectError
from repro.pfd.pfd import PFD


class TestProjectStore:
    def test_create_open_list(self, tmp_path):
        store = ProjectStore(tmp_path)
        store.create_project("census", description="census cleaning")
        store.create_project("chembl")
        assert store.list_projects() == ["census", "chembl"]
        project = store.open_project("census")
        assert project.description == "census cleaning"

    def test_duplicate_creation_rejected(self, tmp_path):
        store = ProjectStore(tmp_path)
        store.create_project("census")
        with pytest.raises(ProjectError):
            store.create_project("census")

    def test_open_missing_project(self, tmp_path):
        with pytest.raises(ProjectError):
            ProjectStore(tmp_path).open_project("ghost")

    def test_invalid_names(self, tmp_path):
        store = ProjectStore(tmp_path)
        with pytest.raises(ProjectError):
            store.create_project("")
        with pytest.raises(ProjectError):
            store.create_project("a/b")


class TestProjectDatasets:
    def test_add_and_load_dataset(self, tmp_path, mixed_table):
        project = ProjectStore(tmp_path).create_project("census")
        project.add_dataset("people", mixed_table)
        loaded = project.load_dataset("people")
        assert loaded.column_names() == mixed_table.column_names()
        assert loaded.n_rows == mixed_table.n_rows
        assert "people" in project.datasets

    def test_dataset_listed_after_reload(self, tmp_path, mixed_table):
        store = ProjectStore(tmp_path)
        project = store.create_project("census")
        project.add_dataset("people", mixed_table)
        reopened = store.open_project("census")
        assert reopened.datasets == ["people"]

    def test_missing_dataset(self, tmp_path):
        project = ProjectStore(tmp_path).create_project("census")
        with pytest.raises(ProjectError):
            project.load_dataset("ghost")

    def test_invalid_dataset_name(self, tmp_path, mixed_table):
        project = ProjectStore(tmp_path).create_project("census")
        with pytest.raises(ProjectError):
            project.add_dataset("a/b", mixed_table)


class TestResultPersistence:
    def test_save_and_load_results(self, tmp_path):
        project = ProjectStore(tmp_path).create_project("census")
        project.save_results("people", {"n_violations": 3})
        assert project.load_results("people")["n_violations"] == 3
        with pytest.raises(ProjectError):
            project.load_results("ghost")

    def test_save_and_load_pfds(self, tmp_path):
        project = ProjectStore(tmp_path).create_project("census")
        pfd = PFD.constant(
            "zip", "city", [{"zip": "900\\D{2}", "city": "Los Angeles"}], name="psi1"
        )
        project.save_pfds("people", [pfd], confirmed=["psi1"])
        restored = project.load_pfds("people")
        assert len(restored) == 1
        assert restored[0].name == "psi1"
        assert restored[0].describe() == pfd.describe()

    def test_load_pfds_missing(self, tmp_path):
        project = ProjectStore(tmp_path).create_project("census")
        with pytest.raises(ProjectError):
            project.load_pfds("ghost")
