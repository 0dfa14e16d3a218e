#!/usr/bin/env python3
"""The interactive edit loop: detect → repair → re-check, incrementally.

The ANMAT demo is interactive — after detection the user fixes cells and
immediately sees the updated violation list.  This walkthrough runs that
loop end to end on a synthetic zip/city/state dataset with injected
errors: discovery and confirmation as usual, then
``AnmatSession.apply_repair`` fixes one suspect cell at a time while the
session's one incremental detector keeps the report current *without*
re-scanning the table: each edit updates the detector in place and
reads no shard.  The final check compares that maintained report with
a fresh full detection over the repaired table.

Run with::

    PYTHONPATH=src python examples/edit_loop.py
"""

from repro.anmat.session import AnmatSession, SessionState
from repro.datagen import generate_zip_city_state
from repro.detection import ErrorDetector


def main() -> None:
    dataset = generate_zip_city_state(n_rows=600, seed=11)
    print(f"dataset: {dataset.table.n_rows} rows, "
          f"{len(dataset.error_cells)} injected errors\n")

    # -- the usual upload → discover → confirm → detect workflow ---------
    session = AnmatSession(dataset_name="zips")
    session.load_table(dataset.table)
    session.set_parameters(min_coverage=0.6, allowed_violation_ratio=0.05)
    session.run_discovery()
    session.confirm_all()
    report = session.run_detection()
    print(f"initial detection: {len(report)} violations over "
          f"{len(report.suspect_rows())} suspect rows")

    # -- the edit loop: apply suggestions until the report is clean -------
    round_number = 0
    while not session.violations.is_empty():
        suggestions = session.repair_suggestions()
        if not suggestions:
            break
        round_number += 1
        for suggestion in suggestions:
            session.apply_repair(suggestion)  # violations updated in place
        print(f"round {round_number}: applied {len(suggestions)} repairs "
              f"→ {len(session.violations)} violations remain "
              f"(state={session.state.value})")

    assert session.state is SessionState.EDITING

    # -- trust, but verify: a full re-detection agrees --------------------
    full = ErrorDetector(session.table.materialize()).detect_all(
        session.confirmed_pfds()
    )
    assert (session.violations.canonical_violations()
            == full.canonical_violations())
    print("\nfull re-detection confirms the incrementally maintained report")

    # a final full run returns the session to DETECTED
    session.run_detection()
    print(f"state after re-check: {session.state.value}; "
          f"repaired table differs from ground truth in "
          f"{sum(1 for cell in dataset.error_cells if session.table.cell(*cell) != dataset.clean_table.cell(*cell))} "
          f"of the injected error cells")


if __name__ == "__main__":
    main()
