"""Violation detection for the FD and CFD baselines.

Both detectors report suspect cells in the same shape as the PFD engine
(:class:`~repro.detection.violation.ViolationReport`) so the comparison
benchmark can evaluate all approaches with the same metric code.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.baselines.cfd_discovery import CFD
from repro.dataset.table import Table
from repro.detection.violation import Violation, ViolationKind, ViolationReport
from repro.pfd.fd import FunctionalDependency


def detect_fd_violations(table: Table, fds: Iterable[FunctionalDependency]) -> ViolationReport:
    """Cells violating classical FDs.

    For each FD, rows are grouped by their full LHS value; inside a group
    with disagreeing RHS values the minority rows' RHS cells are flagged
    (the same majority convention the PFD engine uses, so the comparison
    is apples-to-apples).
    """
    report = ViolationReport(n_rows=table.n_rows)
    for fd in fds:
        lhs_columns = [table.column_ref(a) for a in fd.lhs]
        groups: Dict[tuple, List[int]] = {}
        for row in range(table.n_rows):
            key = tuple(column[row] for column in lhs_columns)
            if any(part == "" for part in key):
                continue
            groups.setdefault(key, []).append(row)
        for rhs_attribute in fd.rhs:
            rhs_values = table.column_ref(rhs_attribute)
            for key, rows in groups.items():
                if len(rows) < 2:
                    continue
                report.comparisons += len(rows)
                counts: Dict[str, List[int]] = {}
                for row in rows:
                    counts.setdefault(rhs_values[row], []).append(row)
                if len(counts) < 2:
                    continue
                majority = max(counts, key=lambda v: (len(counts[v]), v))
                witness = counts[majority][0]
                for value, value_rows in counts.items():
                    if value == majority:
                        continue
                    for row in value_rows:
                        report.add(
                            Violation(
                                pfd_name=f"FD {fd}",
                                lhs_attribute=",".join(fd.lhs),
                                rhs_attribute=rhs_attribute,
                                kind=ViolationKind.VARIABLE,
                                rule_index=0,
                                rule_text=str(fd),
                                rows=(witness, row),
                                observed_value=value,
                                expected_value=majority,
                            )
                        )
    return report


def detect_cfd_violations(table: Table, cfds: Iterable[CFD]) -> ViolationReport:
    """Cells violating constant CFD rules."""
    report = ViolationReport(n_rows=table.n_rows)
    for cfd in cfds:
        lhs_values = table.column_ref(cfd.lhs_attribute)
        rhs_values = table.column_ref(cfd.rhs_attribute)
        rules_by_lhs = {rule.lhs_value: rule for rule in cfd.rules}
        for row, (lhs_value, rhs_value) in enumerate(zip(lhs_values, rhs_values)):
            rule = rules_by_lhs.get(lhs_value)
            if rule is None:
                continue
            report.comparisons += 1
            if rhs_value == rule.rhs_value:
                continue
            report.add(
                Violation(
                    pfd_name=f"CFD {cfd.lhs_attribute}->{cfd.rhs_attribute}",
                    lhs_attribute=cfd.lhs_attribute,
                    rhs_attribute=cfd.rhs_attribute,
                    kind=ViolationKind.CONSTANT,
                    rule_index=0,
                    rule_text=f"[{cfd.lhs_attribute}={rule.lhs_value}] → [{cfd.rhs_attribute}={rule.rhs_value}]",
                    rows=(row,),
                    observed_value=rhs_value,
                    expected_value=rule.rhs_value,
                )
            )
    return report
