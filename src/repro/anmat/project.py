"""Project and dataset persistence.

The demo stores profiling results, extracted PFDs and confirmations in
MongoDB; this reproduction persists the same document-shaped payloads as
JSON files under a project directory, which exercises the identical
save / reload / confirm workflow without an external service.

Layout::

    <root>/<project>/project.json            project metadata
    <root>/<project>/datasets/<name>.csv     uploaded datasets
    <root>/<project>/results/<name>.json     discovery + detection results
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.dataset.csvio import read_csv, write_csv
from repro.dataset.table import Table
from repro.errors import ProjectError
from repro.pfd.pfd import PFD


@dataclass
class Project:
    """One ANMAT project: a named collection of datasets and results."""

    name: str
    root: Path
    description: str = ""
    datasets: List[str] = field(default_factory=list)

    @property
    def directory(self) -> Path:
        return self.root / self.name

    @property
    def dataset_directory(self) -> Path:
        return self.directory / "datasets"

    @property
    def result_directory(self) -> Path:
        return self.directory / "results"

    # -- dataset management ---------------------------------------------------

    def add_dataset(self, name: str, table: Table) -> Path:
        """Store ("upload") a dataset as CSV inside the project."""
        if not name or "/" in name:
            raise ProjectError(f"invalid dataset name {name!r}")
        self.dataset_directory.mkdir(parents=True, exist_ok=True)
        path = self.dataset_directory / f"{name}.csv"
        write_csv(table, path)
        if name not in self.datasets:
            self.datasets.append(name)
        self.save()
        return path

    def load_dataset(self, name: str) -> Table:
        """Load a previously uploaded dataset."""
        path = self.dataset_directory / f"{name}.csv"
        if not path.exists():
            raise ProjectError(f"project {self.name!r} has no dataset {name!r}")
        return read_csv(path)

    # -- result management -------------------------------------------------------

    def save_results(self, dataset: str, payload: Dict) -> Path:
        """Persist a JSON result document for a dataset."""
        self.result_directory.mkdir(parents=True, exist_ok=True)
        path = self.result_directory / f"{dataset}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
        return path

    def load_results(self, dataset: str) -> Dict:
        path = self.result_directory / f"{dataset}.json"
        if not path.exists():
            raise ProjectError(f"no stored results for dataset {dataset!r}")
        return json.loads(path.read_text(encoding="utf-8"))

    def save_pfds(self, dataset: str, pfds: List[PFD], confirmed: Optional[List[str]] = None) -> Path:
        """Persist discovered PFDs (and which ones the user confirmed)."""
        payload = {
            "dataset": dataset,
            "pfds": [pfd.to_dict() for pfd in pfds],
            "confirmed": confirmed or [],
        }
        self.result_directory.mkdir(parents=True, exist_ok=True)
        path = self.result_directory / f"{dataset}.pfds.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
        return path

    def load_pfds(self, dataset: str) -> List[PFD]:
        path = self.result_directory / f"{dataset}.pfds.json"
        if not path.exists():
            raise ProjectError(f"no stored PFDs for dataset {dataset!r}")
        payload = json.loads(path.read_text(encoding="utf-8"))
        return [PFD.from_dict(entry) for entry in payload.get("pfds", [])]

    # -- persistence of the project record itself ----------------------------------

    def save(self) -> Path:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / "project.json"
        path.write_text(
            json.dumps(
                {
                    "name": self.name,
                    "description": self.description,
                    "datasets": self.datasets,
                },
                indent=2,
                sort_keys=True,
            ),
            encoding="utf-8",
        )
        return path

    @classmethod
    def load(cls, root: Path, name: str) -> "Project":
        path = root / name / "project.json"
        if not path.exists():
            raise ProjectError(f"no project named {name!r} under {root}")
        data = json.loads(path.read_text(encoding="utf-8"))
        return cls(
            name=data["name"],
            root=root,
            description=data.get("description", ""),
            datasets=list(data.get("datasets", [])),
        )


class ProjectStore:
    """A directory of projects (the stand-in for the MongoDB instance)."""

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def create_project(self, name: str, description: str = "") -> Project:
        if not name or "/" in name:
            raise ProjectError(f"invalid project name {name!r}")
        if (self.root / name / "project.json").exists():
            raise ProjectError(f"project {name!r} already exists")
        project = Project(name=name, root=self.root, description=description)
        project.save()
        return project

    def open_project(self, name: str) -> Project:
        return Project.load(self.root, name)

    def list_projects(self) -> List[str]:
        return sorted(
            path.parent.name for path in self.root.glob("*/project.json")
        )
