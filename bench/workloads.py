"""The benchmark's workloads: seeded inputs and their reference digests.

Every input is generated from the workload seed with ``repro.datagen``
and written as the CSV a user would upload; the session processes only
ever see those files.  The reference digests come from the plain
monolithic path (``PfdDiscoverer`` plus ``ErrorDetector`` on an
in-memory ``Table``), once for the initial state and once after each
edit batch, so every route a workload takes is checked against the same
answer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.datagen import build_dataset, generate_zip_city_state
from repro.datagen.corruption import GeneratedDataset
from repro.dataset.csvio import write_csv
from repro.dataset.table import Table
from repro.detection import ErrorDetector
from repro.detection.violation import ViolationReport
from repro.discovery import PfdDiscoverer
from repro.pfd import PFD

#: the five datasets of the paper's demo, generated at paper_mix's size
PAPER_DATASETS = (
    "phone_state",
    "fullname_gender",
    "employee_ids",
    "chembl_records",
    "zip_city_state",
)

#: smoke runs keep this many rows per dataset at least, so every
#: dataset still yields rules to confirm and errors to repair
SMOKE_MIN_ROWS = 400


@dataclass(frozen=True)
class Workload:
    """One workload: what is uploaded, how, and how a round edits it.

    ``route`` is ``table`` (``read_csv`` then ``load_table``, the CLI
    default), or the shard store ``upload_csv`` streams into: ``memory``,
    ``spill`` or ``remote`` (the fault-injected HTTP object store).
    ``processes`` and ``warm_rounds`` are the most a run uses; the run's
    time budget may cut warm rounds and processes, never rows.
    """

    name: str
    why: str
    datasets: Tuple[str, ...]
    rows: int
    route: str
    batches: int
    repairs_per_batch: int
    processes: int
    warm_rounds: int
    shard_rows: int = 0
    n_workers: int = 0

    def scaled_rows(self, scale: float) -> int:
        if scale >= 1:
            return self.rows
        return max(SMOKE_MIN_ROWS, int(self.rows * scale))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper_mix_4k",
            why=(
                "five small monolithic sessions over varied value shapes: per-session "
                "cost, profiling and monolithic mining; bypasses stores, remote and pool"
            ),
            datasets=PAPER_DATASETS,
            rows=4_000,
            route="table",
            batches=1,
            repairs_per_batch=8,
            processes=3,
            warm_rounds=4,
        ),
        Workload(
            name="edit_loop_64k",
            why=(
                "edit batches over a six-column in-memory sharded upload: overlay, "
                "incremental detection and rule maintenance; store I/O negligible"
            ),
            datasets=("zip_city_state_wide",),
            rows=64_000,
            route="memory",
            shard_rows=8_192,
            batches=3,
            repairs_per_batch=16,
            processes=3,
            warm_rounds=2,
        ),
        Workload(
            name="bulk_spill_512k",
            why=(
                "read-only audit of data 32x the spill store's one-shard cache: CSV "
                "parsing, shard reads, kernels and merges; bypasses the edit loop"
            ),
            datasets=("zip_city_state",),
            rows=512_000,
            route="spill",
            shard_rows=16_384,
            batches=0,
            repairs_per_batch=0,
            processes=2,
            warm_rounds=3,
        ),
        Workload(
            name="remote_pool_128k",
            why=(
                "shards behind a fault-injected HTTP object store with prefetch and "
                "a two-worker pool: the only remote, retry and pool traffic"
            ),
            datasets=("zip_city_state",),
            rows=128_000,
            route="remote",
            shard_rows=16_384,
            n_workers=2,
            batches=1,
            repairs_per_batch=16,
            processes=2,
            warm_rounds=3,
        ),
    )
}

#: the fault-injecting client's per-operation fault probability
REMOTE_FAULT_RATE = 0.05


def generate(dataset: str, rows: int, seed: int) -> GeneratedDataset:
    """A registered paper dataset, or the widened geo relation."""
    if dataset == "zip_city_state_wide":
        return widened_geo(rows, seed)
    return build_dataset(dataset, n_rows=rows, seed=seed)


def widened_geo(rows: int, seed: int) -> GeneratedDataset:
    """``zip, city, state`` plus a state-determined ``region`` and a
    seeded ``department`` and ``grade``: six columns and 25+ candidate
    pairs, so an edit batch dirties only some candidates."""
    geo = generate_zip_city_state(n_rows=rows, seed=seed)
    clean_states = geo.clean_table.column("state")
    regions = {s: f"Region-{i % 4}" for i, s in enumerate(sorted(set(clean_states)))}
    rng = random.Random(seed)
    departments = ["Finance", "Engineering", "HR", "Marketing", "Sales", "Research"]
    grades = ["Junior", "Associate", "Senior", "Principal", "Director"]
    extra = {
        "region": [regions[s] for s in clean_states],
        "department": [rng.choice(departments) for _ in range(rows)],
        "grade": [rng.choice(grades) for _ in range(rows)],
    }

    def widen(table: Table) -> Table:
        for name, values in extra.items():
            table = table.with_column(name, values)
        return table

    return GeneratedDataset(
        name="zip_city_state_wide",
        table=widen(geo.table),
        clean_table=widen(geo.clean_table),
        error_cells=set(geo.error_cells),
        description="zip_city_state widened with region, department and grade",
    )


# -- digests -------------------------------------------------------------------


def rules_digest(pfds: Sequence[PFD]) -> str:
    """sha256 of a rule set by content, in order."""
    return _sha256("\n".join(_rule_key(pfd) for pfd in pfds))


def violations_digest(report: Optional[ViolationReport]) -> Optional[str]:
    """sha256 of a report's canonical violations (``None`` for no report)."""
    if report is None:
        return None
    rows = [dataclasses.astuple(v) for v in report.canonical_violations()]
    return _sha256(json.dumps(rows))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _rule_key(pfd: PFD) -> str:
    """A rule's content: ``to_dict()`` without the assigned ``name``."""
    data = pfd.to_dict()
    data.pop("name", None)
    return json.dumps(data, sort_keys=True)


def reference_points(
    name: str, table: Table, batches: Sequence[Sequence[Tuple[int, str, str]]]
) -> List[Dict[str, Optional[str]]]:
    """Digests of the rules and violations a session must show after its
    first detection and after each edit batch's re-check.

    Mirrors the session's confirmation rule: every discovered rule is
    confirmed, and after a re-check only rules whose content survived
    stay confirmed and are re-detected.  ``name`` is the relation the
    session names its rules after.
    """
    table = table.copy()
    result = PfdDiscoverer().discover_with_report(table, relation=name)
    confirmed = {_rule_key(pfd) for pfd in result.pfds}
    points = [
        {
            "rules": rules_digest(result.pfds),
            "violations": violations_digest(ErrorDetector(table).detect_all(result.pfds)),
        }
    ]
    for batch in batches:
        for row, attribute, value in batch:
            table.set_cell(row, attribute, value)
        result = PfdDiscoverer().discover_with_report(table, relation=name)
        survivors = [pfd for pfd in result.pfds if _rule_key(pfd) in confirmed]
        confirmed = {_rule_key(pfd) for pfd in survivors}
        report = ErrorDetector(table).detect_all(survivors) if survivors else None
        points.append(
            {"rules": rules_digest(result.pfds), "violations": violations_digest(report)}
        )
    return points


# -- inputs --------------------------------------------------------------------


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def build_inputs(workload: Workload, seed: int, directory: Path, scale: float = 1.0) -> dict:
    """Generate the workload's CSVs under ``directory`` and return the
    manifest the session processes run from: per dataset the CSV path
    and sha256, the injected error cells, the repair batches and the
    reference digests."""
    directory.mkdir(parents=True, exist_ok=True)
    rows = workload.scaled_rows(scale)
    # one generator for the whole workload, consumed in dataset order
    rng = random.Random(seed)
    datasets = []
    for name in workload.datasets:
        generated = generate(name, rows, seed)
        path = write_csv(generated.table, directory / f"{name}.csv")
        cells = sorted(generated.error_cells)
        wanted = workload.batches * workload.repairs_per_batch
        picked = rng.sample(cells, min(wanted, len(cells)))
        repairs = [
            (row, attribute, generated.clean_table.cell(row, attribute))
            for row, attribute in picked
        ]
        size = workload.repairs_per_batch
        batches = [repairs[i : i + size] for i in range(0, len(repairs), size)] if size else []
        datasets.append(
            {
                "name": name,
                "csv": str(path),
                "sha256": file_sha256(path),
                "csv_bytes": path.stat().st_size,
                "rows": rows,
                "error_cells": cells,
                "batches": batches,
                "reference": reference_points(name, generated.table, batches),
            }
        )
    return {"workload": workload.name, "seed": seed, "scale": scale, "datasets": datasets}
