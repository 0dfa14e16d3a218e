"""Plain-text report rendering.

The demo's GUI screens (Figures 3, 4 and 5) and the summary table
(Table 3) are tabular; these functions produce the same rows as aligned
plain text so the benchmarks and the CLI can display — and snapshot —
the reproduction's output.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.dataset.profiling import TableProfile
from repro.detection.violation import ViolationReport
from repro.discovery.discoverer import DiscoveryResult
from repro.pfd.pfd import PFD
from repro.pfd.tableau import Wildcard, cell_to_text


def _grid(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Render an aligned text grid."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, value in enumerate(row):
            widths[i] = max(widths[i], len(value))
    def fmt(values: Sequence[str]) -> str:
        return " | ".join(str(v).ljust(widths[i]) for i, v in enumerate(values))
    lines = [fmt(headers), "-+-".join("-" * w for w in widths)]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


# -- Figure 3: profiling & pattern listing ---------------------------------------------


def render_profile(profile: TableProfile, max_patterns: int = 5) -> str:
    """The Figure 3 view: per column, the dominant patterns with their
    ``pattern::position, frequency`` rendering."""
    sections: List[str] = [f"Profiled {profile.n_rows} rows, {len(profile.column_names())} columns"]
    for column in profile:
        sections.append("")
        sections.append(
            f"Column {column.name!r} — type={column.dtype.value}, "
            f"distinct={column.n_distinct}, empty={column.n_empty}"
        )
        rows = [
            [stat.render(), f"{stat.ratio:.1%}", ", ".join(stat.examples)]
            for stat in column.value_patterns[:max_patterns]
        ]
        if rows:
            sections.append(_grid(["pattern::position, frequency", "share", "examples"], rows))
    return "\n".join(sections)


# -- Figure 4: discovered PFDs ------------------------------------------------------------


def render_discovered_pfds(result: DiscoveryResult, confirmed: Optional[Sequence[str]] = None) -> str:
    """The Figure 4 view: each dependency with its tableau."""
    confirmed = set(confirmed or [])
    sections = [
        f"Discovered {len(result.pfds)} PFDs "
        f"({len(result.constant_pfds())} constant, {len(result.variable_pfds())} variable) "
        f"from {len(result.reports)} candidate dependencies "
        f"in {result.elapsed_seconds:.2f}s"
    ]
    for pfd in result.pfds:
        status = "confirmed" if pfd.name in confirmed else "pending"
        sections.append("")
        sections.append(f"{pfd.name} [{status}] {pfd.lhs_attribute} → {pfd.rhs_attribute} ({pfd.kind.value})")
        sections.append(pfd.tableau.render())
    return "\n".join(sections)


# -- Figure 5: detected violations ----------------------------------------------------------


def render_violations(report: ViolationReport, table=None, max_rows: int = 25) -> str:
    """The Figure 5 view: violating records with the violated rule."""
    header = (
        f"{len(report.violations)} violations over {report.n_rows} rows "
        f"({len(report.suspect_cells())} suspect cells)"
    )
    rows: List[List[str]] = []
    for violation in report.violations[:max_rows]:
        record = ""
        if table is not None:
            record = " | ".join(table.row(violation.rows[-1]))
        rows.append(
            [
                violation.pfd_name,
                violation.rule_text,
                str(list(violation.rows)),
                violation.observed_value,
                violation.expected_value or "",
                record,
            ]
        )
    grid = _grid(
        ["PFD", "violated rule", "rows", "observed", "expected", "record"],
        rows,
    ) if rows else "(no violations)"
    suffix = ""
    if len(report.violations) > max_rows:
        suffix = f"\n... ({len(report.violations) - max_rows} more violations)"
    return f"{header}\n{grid}{suffix}"


# -- Table 3: discovered PFDs and detected errors --------------------------------------------


def render_table3(
    entries: Iterable[Tuple[str, str, PFD, ViolationReport, object]],
    max_rules: int = 5,
    max_errors: int = 5,
) -> str:
    """Render the Table 3 summary.

    ``entries`` are (dataset label, dependency label, pfd, violation
    report, table) tuples; for each one the tableau rules are shown next
    to example detected errors in the paper's ``value | wrong-RHS``
    format.
    """
    rows: List[List[str]] = []
    for dataset, dependency, pfd, report, table in entries:
        rules = []
        for row in pfd.tableau.rows[:max_rules]:
            lhs_cell = cell_to_text(row.cell(pfd.lhs_attribute))
            rhs_cell = row.cell(pfd.rhs_attribute)
            rhs_text = "⊥" if isinstance(rhs_cell, Wildcard) else cell_to_text(rhs_cell)
            rules.append(f"{lhs_cell} → {rhs_text}")
        errors = []
        for violation in report.violations[:max_errors]:
            row_index = violation.suspect_cell[0]
            lhs_value = table.cell(row_index, pfd.lhs_attribute) if table is not None else ""
            errors.append(f"{lhs_value} | {violation.observed_value}")
        rows.append(
            [
                dataset,
                dependency,
                "; ".join(rules),
                "; ".join(errors) if errors else "(none)",
            ]
        )
    return _grid(["Data", "Dependency", "Pattern Tableau", "Errors"], rows)
