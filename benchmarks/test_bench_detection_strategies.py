"""E8 — variable-PFD detection: the naive pair check vs. blocking.

Section 3 argues that the naive pairwise check of variable PFDs is
quadratic and that limiting the search to tuples matching ``tp[A]`` plus
blocking avoids it.  This benchmark applies λ5 (zip prefix → city) to
growing tables with the detector and with a benchmark-local naive pair
loop, and reports the number of value comparisons and the wall-clock
time; the pair loop grows quadratically while blocking stays
near-linear.
"""

import time

from repro import perf
from repro.constrained import constrained_prefix
from repro.datagen import generate_zip_city_state
from repro.detection import ErrorDetector
from repro.patterns import parse_pattern
from repro.pfd import PFD

from conftest import print_table

SIZES = [500, 1000, 2000, 4000]


def make_pfd() -> PFD:
    return PFD.variable(
        "zip",
        "city",
        constrained_prefix(3, parse_pattern("\\D{2}"), head=parse_pattern("\\D{3}")),
        name="lambda5",
    )


def naive_pair_comparisons(table, pfd) -> int:
    """Compare every pair of rows matching λ5's pattern — the quadratic
    check blocking avoids — and return the number of pairs compared."""
    constrained = pfd.tableau[0].cell(pfd.lhs_attribute)
    lhs = table.column(pfd.lhs_attribute)
    rhs = table.column(pfd.rhs_attribute)
    projections = [(row, constrained.project(value)) for row, value in enumerate(lhs)]
    matching = [(row, key) for row, key in projections if key is not None]
    compared = 0
    violating = set()
    for i, (left, left_key) in enumerate(matching):
        for right, right_key in matching[i + 1:]:
            compared += 1
            if left_key == right_key and rhs[left] != rhs[right]:
                violating.update((left, right))
    assert violating, "λ5 should be violated on the generated data"
    return compared


def run_blocking(table):
    # Each measurement starts cold, so the match memo of one run does
    # not pay the matching cost of the next.
    perf.clear_caches()
    return ErrorDetector(table).detect(make_pfd())


def test_blocking_timing(benchmark):
    """The detector at a fixed size (2 000 rows)."""
    table = generate_zip_city_state(n_rows=2000, seed=23).table
    report = benchmark.pedantic(run_blocking, args=(table,), rounds=2, iterations=1)
    assert len(report) > 0


def test_naive_vs_blocking_scaling_curves(benchmark):
    """The series behind the scaling figure (printed, asserted on shape)."""

    def run_series():
        rows = []
        comparisons = {}
        for n_rows in SIZES:
            table = generate_zip_city_state(n_rows=n_rows, seed=23).table
            started = time.perf_counter()
            naive = naive_pair_comparisons(table, make_pfd())
            naive_elapsed = time.perf_counter() - started
            started = time.perf_counter()
            report = run_blocking(table)
            blocking_elapsed = time.perf_counter() - started
            rows.append(
                (
                    n_rows,
                    naive,
                    f"{naive_elapsed*1000:.1f}ms",
                    report.comparisons,
                    f"{blocking_elapsed*1000:.1f}ms",
                )
            )
            comparisons[("naive", n_rows)] = naive
            comparisons[("blocking", n_rows)] = report.comparisons
        return rows, comparisons

    rows, comparisons = benchmark.pedantic(run_series, rounds=1, iterations=1)
    print_table(
        "E8 — variable-PFD detection: naive pair check vs. blocking",
        ["rows", "naive comparisons", "naive time", "blocking comparisons", "blocking time"],
        rows,
    )

    # Shape: doubling the rows roughly quadruples the naive comparisons
    # but only doubles the blocking comparisons.
    naive_growth = comparisons[("naive", 4000)] / comparisons[("naive", 1000)]
    blocking_growth = comparisons[("blocking", 4000)] / comparisons[("blocking", 1000)]
    assert naive_growth > 10
    assert blocking_growth < 6

