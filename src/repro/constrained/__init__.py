"""Constrained patterns (Section 2 of the paper).

A constrained pattern ``Q`` concatenates several pattern segments, at
least one of which is *constrained* (annotated with ``X`` in the paper).
Matching a constrained pattern is matching its embedded pattern; two
strings are equivalent under ``Q`` (``s ≡_Q s'``) when both match and
their constrained-segment projections agree.  Variable PFDs use this
equivalence to say "tuples that agree on *this part* of the LHS value
must agree on the RHS".
"""

from repro.constrained.constrained_pattern import (
    ConstrainedPattern,
    Segment,
    constrained_first_token,
    constrained_prefix,
)

__all__ = [
    "ConstrainedPattern",
    "Segment",
    "constrained_first_token",
    "constrained_prefix",
]
