"""Vectorized pair-group builder.

Reproduces :func:`repro.sharding.stats.extract_pair_groups` — the nested
``LHS value → RHS value → [row ids]`` map — from two column encodings
with one argsort over combined ``(lhs_code << 32) | rhs_code`` keys
instead of a per-row dict-of-dict loop.  Discovery already built those
encodings, so detection groups a rule pair without touching the data
again.

Ordering is part of the contract (the scalar map's insertion orders flow
into violation emission):

* outer keys appear in first-occurrence order of the LHS value, which is
  exactly ascending LHS *code* order (codes are assigned on first
  appearance), so iterating the sorted groups directly is correct;
* inner keys appear in first-occurrence order of the RHS value *within
  that LHS group* — which is **not** global RHS code order — so each LHS
  group's subgroups are reordered by their first (minimum) row id;
* row lists ascend because the argsort is stable.
"""

from __future__ import annotations

from repro.dataset.rowids import row_ids_from_numpy
from repro.kernels.encoder import ColumnEncoding
from repro.kernels.runtime import np
from repro.sharding.stats import PairGroups


def pair_groups_kernel(lhs: ColumnEncoding, rhs: ColumnEncoding) -> PairGroups:
    """The pair groups of two encoded columns of one table, rows being
    the encodings' row positions; byte-identical to the scalar extractor
    over the decoded columns."""
    n = lhs.n_rows
    groups: PairGroups = {}
    if n == 0:
        return groups
    combined = (lhs.codes.astype(np.int64) << 32) | rhs.codes.astype(np.int64)
    order = np.argsort(combined, kind="stable").astype(np.int32)
    ordered = combined[order]
    # one entry per (LHS, RHS) group: where its rows start and stop in
    # ``order`` (``order[starts]`` is each group's first row)
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    stops = np.r_[starts[1:], n]
    keys = ordered[starts]
    lhs_codes = keys >> 32
    # walk the groups by LHS code, then by first row within it
    walk = np.lexsort((order[starts], lhs_codes))
    lhs_distinct = lhs.distinct
    rhs_distinct = rhs.distinct
    current_code = -1
    by_rhs: dict = {}
    for lhs_code, rhs_code, start, stop in zip(
        lhs_codes[walk].tolist(),
        (keys[walk] & 0xFFFFFFFF).tolist(),
        starts[walk].tolist(),
        stops[walk].tolist(),
    ):
        if lhs_code != current_code:
            current_code = lhs_code
            by_rhs = groups[lhs_distinct[lhs_code]] = {}
        by_rhs[rhs_distinct[rhs_code]] = row_ids_from_numpy(order[start:stop])
    return groups
