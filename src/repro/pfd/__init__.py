"""The pattern functional dependency (PFD) model.

A PFD ``ψ = R(X → Y, Tp)`` pairs an *embedded FD* ``X → Y`` with a
*pattern tableau* ``Tp`` whose cells are constrained patterns or the
wildcard ``⊥``.  Constant PFDs fix the RHS to literal values (λ1–λ3 in
the paper); variable PFDs leave it as a wildcard and assert agreement
between tuples that are equivalent on the constrained LHS patterns
(λ4–λ5).
"""

from repro.pfd.fd import EmbeddedFD, FunctionalDependency
from repro.pfd.tableau import PatternTableau, TableauCell, TableauRow, WILDCARD, Wildcard
from repro.pfd.pfd import PFD, PfdKind

__all__ = [
    "EmbeddedFD",
    "FunctionalDependency",
    "PatternTableau",
    "TableauCell",
    "TableauRow",
    "WILDCARD",
    "Wildcard",
    "PFD",
    "PfdKind",
]
