"""Golden-file regression tests for the paper's running examples.

Each dataset in :mod:`repro.datagen.paper_examples` has a committed
snapshot of its discovered rules and detected violations under
``tests/golden/``.  A refactor that silently changes paper-facing
semantics — different tableaux, different suspects — fails here with a
diff against the snapshot.  After an *intended* change, regenerate with::

    PYTHONPATH=src python -m pytest tests/golden --regen-golden

and review the snapshot diff like any other code change.
"""

from __future__ import annotations

from pathlib import Path

import detection_reference
import pytest

from repro.datagen.paper_examples import name_table_d1, zip_table_d2
from repro.detection import ErrorDetector, IncrementalDetector
from repro.discovery import DiscoveryConfig, PfdDiscoverer
from repro.sharding import ShardedTable, ShardOverlay

GOLDEN_DIR = Path(__file__).parent

#: the two user-facing parameters, opened up so the four-row paper
#: tables discover their λ-style rules (matching the CLI walkthroughs)
CONFIG = DiscoveryConfig(min_coverage=0.4, allowed_violation_ratio=0.3)

DATASETS = {
    "paper_d1_name": name_table_d1,
    "paper_d2_zip": zip_table_d2,
}


def render_snapshot(builder) -> str:
    """The canonical text form of one dataset's discovery + detection
    output (stable across emission order)."""
    dataset = builder()
    table = dataset.table
    result = PfdDiscoverer(CONFIG).discover_with_report(table)
    report = ErrorDetector(table).detect_all(result.pfds)
    lines = [f"# {dataset.name}: discovered rules and violations", ""]
    lines.append("## rules")
    for pfd in result.pfds:
        lines.append(pfd.describe())
    lines.append("")
    lines.append("## violations (canonical)")
    for violation in report.canonical_violations():
        lines.append(violation.describe())
    lines.append("")
    lines.append("## suspect cells")
    for row, attribute in sorted(report.suspect_cells()):
        lines.append(f"({row}, {attribute})")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_paper_example_matches_golden_snapshot(name, request):
    snapshot = render_snapshot(DATASETS[name])
    path = GOLDEN_DIR / f"{name}.golden.txt"
    if request.config.getoption("--regen-golden"):
        path.write_text(snapshot)
        return
    assert path.exists(), (
        f"missing golden file {path}; generate it with "
        "`python -m pytest tests/golden --regen-golden`"
    )
    assert snapshot == path.read_text(), (
        f"{name} diverged from its golden snapshot; if the change is "
        "intended, regenerate with --regen-golden and review the diff"
    )


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_paper_example_sharded_run_matches_snapshot(name):
    """The sharded engines reproduce the snapshotted semantics too —
    down to one-row shards — and so does the literal detection loop."""
    dataset = DATASETS[name]()
    table = dataset.table
    mono = PfdDiscoverer(CONFIG).discover_with_report(table)
    mono_report = detection_reference.detect(table, mono.pfds)
    sharded = ShardedTable.from_table(table, 1)
    result = PfdDiscoverer(CONFIG).discover_with_report(sharded)
    assert [p.describe() for p in result.pfds] == [p.describe() for p in mono.pfds]
    report = IncrementalDetector(ShardOverlay(sharded), result.pfds).report()
    assert report.canonical_violations() == mono_report.canonical_violations()
