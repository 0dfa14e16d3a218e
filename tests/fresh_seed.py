"""The exact gate on the session's detector: its report against a fresh seed.

A re-check hands the edit loop's detector over instead of seeding a new
one, so the report it keeps must be the report a detector freshly
seeded over the same table and rules would give — the same list, in
report order, not only canonically equal.
"""

from repro.detection import IncrementalDetector


def assert_report_equals_a_fresh_seed(session):
    """``session.violations`` equals a fresh detector's report over the
    session's table and confirmed rules, as a list; a session without a
    detector has no violations."""
    if session._incremental is None:
        assert session.violations is None
        return
    fresh = IncrementalDetector(session.table, session.confirmed_pfds()).report()
    assert session.violations.violations == fresh.violations
