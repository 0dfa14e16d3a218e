#!/usr/bin/env python3
"""Sharded, out-of-core discovery and detection, end to end.

This walkthrough writes a synthetic dirty dataset to a CSV file, streams
it back in bounded-memory chunks straight into a spill-to-disk
``ShardStore`` (the whole document is never parsed in one piece, and the
shard copies live on disk behind a small LRU; the session never
materializes a monolithic table — profiling, detection, and the edit
loop all go through a ``ShardOverlay`` over the store), then
runs discovery and detection through the session layer.  Every session
runs the sharded engines over the shards cut at load; the planner
records each run as an ``ExecutionPlan`` (printed below, like
``anmat --explain-plan``).  The monolithic library engines
(``PfdDiscoverer`` + ``ErrorDetector``) verify the contract — identical
rule sets, canonically equal violations (see docs/ARCHITECTURE.md).

Run with::

    PYTHONPATH=src python examples/sharded_run.py
"""

import tempfile
from pathlib import Path

from repro.anmat.session import AnmatSession
from repro.datagen import generate_zip_city_state
from repro.dataset.csvio import write_csv
from repro.detection import ErrorDetector
from repro.discovery import PfdDiscoverer
from repro.discovery.config import DiscoveryConfig
from repro.sharding import SpillToDiskShardStore

SHARD_ROWS = 500


def main() -> None:
    dataset = generate_zip_city_state(n_rows=4000, seed=11)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "zips.csv"
        write_csv(dataset.table, path)
        print(f"wrote {dataset.table.n_rows} rows "
              f"({len(dataset.error_cells)} injected errors) to {path.name}\n")

        # -- stream the CSV chunk-wise into an on-disk shard store --------
        session = AnmatSession(
            dataset_name="zips",
            config=DiscoveryConfig(shard_rows=SHARD_ROWS),
        )
        store = SpillToDiskShardStore(Path(tmp) / "shards")
        session.upload_csv(path, store=store)
        print(f"streamed into {store.n_shards} shards of <= {SHARD_ROWS} rows, "
              f"spilled to {store.directory.name}/ (peak parse memory: one shard)")

        # -- the engine plans, the sharded engines execute ----------------
        print()
        print(session.plan_discovery().describe())
        session.run_discovery()
        session.confirm_all()
        print(session.plan_detection().describe())
        report = session.run_detection()
        print(f"\nsharded run: {len(session.discovered_pfds())} PFDs, "
              f"{len(report)} violations over {len(report.suspect_rows())} "
              f"suspect rows")

        # -- the contract: identical to the monolithic library engines ----
        # (the session's ``table`` is a ShardOverlay; materialize an eager
        # copy only for this comparison run)
        table = session.table.materialize()
        mono_pfds = PfdDiscoverer(session.config).discover(table, relation="zips")
        mono_report = ErrorDetector(table).detect_all(mono_pfds)
        print(f"monolithic reference: {len(mono_pfds)} PFDs, "
              f"{len(mono_report)} violations")

        same_rules = [p.describe() for p in session.discovered_pfds()] == [
            p.describe() for p in mono_pfds
        ]
        same_violations = (
            report.canonical_violations() == mono_report.canonical_violations()
        )
        print(f"\nidentical rule set:       {same_rules}")
        print(f"canonically equal output: {same_violations}")
        assert same_rules and same_violations

        # -- the edit loop still works after a sharded run ----------------
        suggestions = session.repair_suggestions()
        if suggestions:
            session.apply_repair(suggestions[0])
            print(f"\napplied one repair through the overlay edit loop "
                  f"→ {len(session.violations)} violations remain; the next "
                  f"full re-check reads the patched shards through the overlay")


if __name__ == "__main__":
    main()
