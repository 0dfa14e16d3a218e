"""The Figure 2 loop body over encoded columns.

These kernels reproduce the scalar miners *exactly* — same candidate
dicts in the same insertion order, same tie-breaks, same floats — while
doing all per-row work as numpy array operations over interned id
arrays:

* the inverted list never materializes postings: each entry is the list
  of distinct-value *codes* carrying its (token, position) key, and the
  row ids, support and RHS distribution fall out of ``rows_by_code`` /
  ``bincount``-style reductions;
* the decision function's pattern synthesis and match re-check run over
  the entry's *distinct* covered values (the scalar helpers are
  duplicate- and order-insensitive, which the equivalence tests pin
  down), with verdicts shared through the same ``MATCH_MEMO`` tables;
* variable mining reduces the column pair to distinct
  ``(lhs_code, rhs_code)`` counts once (one ``np.unique``) and evaluates
  every prefix length / token position against those counts.

The kernels reproduce the default pluggable pieces only: the
discoverer runs the scalar loop body instead for a candidate whose
decision function or variable miner was customized, so extensions keep
working unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.constrained.constrained_pattern import constrained_prefix
from repro.dataset.rowids import row_ids_from_numpy
from repro.discovery.config import DiscoveryConfig
from repro.discovery.constant_miner import ConstantPfdMiner
from repro.discovery.decision import MajorityDecision, PatternTupleCandidate
from repro.discovery.variable_miner import VariableCandidate, VariablePfdMiner
from repro.kernels.encoder import ColumnEncoding
from repro.kernels.match import batch_verdicts
from repro.kernels.runtime import np
from repro.kernels.tokenize import Triples
from repro.patterns.generalize import generalize_strings, generalize_with_literal_prefix
from repro.patterns.pattern import Pattern
from repro.patterns.tokenizer import cached_tokenize
from repro.perf.memo import MATCH_MEMO
from repro.perf.timers import StageTimers, stage_or_null as _stage

_RHS_MASK = 0xFFFFFFFF


def _merged_rows(rows_by_code: list, codes: Sequence[int]):
    """Ascending row ids of several codes (each block already ascends)."""
    if len(codes) == 1:
        return rows_by_code[codes[0]]
    return np.sort(np.concatenate([rows_by_code[code] for code in codes]))


# -- constant mining ---------------------------------------------------------------


def mine_constant_kernel(
    lhs: ColumnEncoding,
    rhs: ColumnEncoding,
    triples_by_code: List[Triples],
    config: DiscoveryConfig,
    miner: ConstantPfdMiner,
    timers: Optional[StageTimers] = None,
) -> List[PatternTupleCandidate]:
    """``miner.mine(...)`` over encoded columns, for a miner whose
    decision function is exactly :class:`MajorityDecision`."""
    # Entry map: (token, position) → codes carrying it.  Iterating codes
    # in first-appearance order reproduces the scalar inverted list's
    # key insertion order (the first row containing a key is always the
    # first appearance of one of its codes).
    with _stage(timers, "index_build"):
        entry_codes: Dict[Tuple[str, int], List[int]] = {}
        for code, triples in enumerate(triples_by_code):
            for key, position, _text in triples:
                entry = entry_codes.get((key, position))
                if entry is None:
                    entry_codes[(key, position)] = [code]
                else:
                    entry.append(code)

    with _stage(timers, "mine_constant"):
        rows_by_code = lhs.rows_by_code()
        counts = lhs.counts()
        lhs_distinct = lhs.distinct
        lhs_lengths = lhs.lengths()
        lhs_signatures = lhs.signatures()
        rhs_codes = rhs.codes
        rhs_distinct = rhs.distinct
        min_support = config.min_support
        min_agreement = config.min_agreement
        candidates: List[PatternTupleCandidate] = []

        for (token, position), codes in entry_codes.items():
            support = 0
            for code in codes:
                support += int(counts[code])
            if support < min_support:
                continue
            rows = _merged_rows(rows_by_code, codes)
            entry_rhs = rhs_codes[rows]
            top_values, top_counts = np.unique(entry_rhs, return_counts=True)
            best = 0
            if len(top_values) > 1:
                # the scalar tie-break: max by (count, RHS string)
                for i in range(1, len(top_values)):
                    if (top_counts[i], rhs_distinct[top_values[i]]) > (
                        top_counts[best],
                        rhs_distinct[top_values[best]],
                    ):
                        best = i
            top_code = int(top_values[best])
            top_count = int(top_counts[best])
            top_value = rhs_distinct[top_code]
            if top_value == "":
                continue
            if top_count / support < min_agreement:
                continue
            covered_values = [lhs_distinct[code] for code in codes]
            if position == 0 and all(v.startswith(token) for v in covered_values):
                pattern = generalize_with_literal_prefix(covered_values, len(token))
            else:
                pattern = MajorityDecision._contains_token_pattern(
                    token, position, covered_values
                )
            if pattern is None:
                continue
            if len(codes) >= 64:
                code_index = np.asarray(codes)
                verdicts = batch_verdicts(
                    pattern,
                    covered_values,
                    memo=MATCH_MEMO,
                    lengths=lhs_lengths[code_index],
                    signatures=lhs_signatures[code_index],
                )
            else:
                verdicts = batch_verdicts(pattern, covered_values, memo=MATCH_MEMO)
            if all(verdicts):
                matching_rows = rows
            else:
                kept = [code for code, ok in zip(codes, verdicts) if ok]
                if not kept:
                    continue
                matching_rows = _merged_rows(rows_by_code, kept)
            n_matching = len(matching_rows)
            if n_matching < min_support:
                continue
            agree_mask = rhs_codes[matching_rows] == top_code
            n_agreeing = int(agree_mask.sum())
            if n_agreeing / n_matching < min_agreement:
                continue
            candidates.append(
                PatternTupleCandidate(
                    lhs_pattern=pattern,
                    rhs_constant=top_value,
                    support=n_matching,
                    agreement=n_agreeing / n_matching,
                    covered_tuple_ids=row_ids_from_numpy(matching_rows),
                    violating_tuple_ids=row_ids_from_numpy(matching_rows[~agree_mask]),
                    source_token=token,
                    source_position=position,
                )
            )
        return miner.select(candidates)


def coverage_kernel(
    candidates: Sequence[PatternTupleCandidate], lhs: ColumnEncoding
) -> float:
    """``miner.coverage(...)`` over an encoded column (same int ratio)."""
    non_empty = int(lhs.counts()[lhs.lengths() > 0].sum())
    if non_empty == 0:
        return 0.0
    covered = np.zeros(lhs.n_rows, dtype=bool)
    for candidate in candidates:
        covered[candidate.covered_tuple_ids] = True
    return int(covered.sum()) / non_empty


# -- variable mining ---------------------------------------------------------------


def mine_variable_kernel(
    lhs: ColumnEncoding,
    rhs: ColumnEncoding,
    mode: str,
    config: DiscoveryConfig,
    miner: VariablePfdMiner,
    timers: Optional[StageTimers] = None,
) -> List[VariableCandidate]:
    """``miner.mine(...)`` over encoded columns, for a miner that is
    exactly :class:`VariablePfdMiner`."""
    with _stage(timers, "mine_variable"):
        pair_mask = (lhs.lengths()[lhs.codes] > 0) & (rhs.lengths()[rhs.codes] > 0)
        n_pairs = int(pair_mask.sum())
        if n_pairs < 2 * config.min_support:
            return []
        combined = (lhs.codes[pair_mask].astype(np.int64) << 32) | rhs.codes[
            pair_mask
        ].astype(np.int64)
        keys, key_counts = np.unique(combined, return_counts=True)
        pair_lhs = (keys >> 32).tolist()
        pair_rhs = (keys & _RHS_MASK).tolist()
        pair_counts = key_counts.tolist()
        if mode in ("prefix", "ngram"):
            candidate = _mine_prefix_kernel(
                lhs, pair_lhs, pair_rhs, pair_counts, config
            )
        else:
            candidate = _mine_token_kernel(
                lhs, pair_lhs, pair_rhs, pair_counts, config, miner
            )
        return [candidate] if candidate is not None else []


def _block_stats(
    block_keys: Sequence, pair_rhs: Sequence[int], pair_counts: Sequence[int]
) -> Tuple[float, int, int, int]:
    """(agreement, #blocks, #multi-row blocks, total rows) of blocked
    distinct pairs — the kernel form of ``_block_agreement``."""
    blocks: Dict[object, Dict[int, int]] = {}
    for block_key, rhs_code, count in zip(block_keys, pair_rhs, pair_counts):
        by_rhs = blocks.get(block_key)
        if by_rhs is None:
            by_rhs = blocks[block_key] = {}
        by_rhs[rhs_code] = by_rhs.get(rhs_code, 0) + count
    total = 0
    agreeing = 0
    multi = 0
    for by_rhs in blocks.values():
        block_total = sum(by_rhs.values())
        total += block_total
        agreeing += max(by_rhs.values())
        if block_total >= 2:
            multi += 1
    if total == 0:
        return 0.0, 0, 0, 0
    return agreeing / total, len(blocks), multi, total


def _mine_prefix_kernel(
    lhs: ColumnEncoding,
    pair_lhs: List[int],
    pair_rhs: List[int],
    pair_counts: List[int],
    config: DiscoveryConfig,
) -> Optional[VariableCandidate]:
    distinct = lhs.distinct
    length_of = {code: len(distinct[code]) for code in set(pair_lhs)}
    lengths = sorted(set(length_of.values()))
    if not lengths:
        return None
    typical_length = lengths[len(lengths) // 2]
    n_rows = lhs.n_rows
    for k in config.effective_prefix_lengths(typical_length):
        if k >= typical_length:
            break
        usable = [
            i for i, code in enumerate(pair_lhs) if length_of[code] > k
        ]
        usable_rows = sum(pair_counts[i] for i in usable)
        if usable_rows < 2 * config.min_support:
            continue
        agreement, n_blocks, n_multi, _total = _block_stats(
            [distinct[pair_lhs[i]][:k] for i in usable],
            [pair_rhs[i] for i in usable],
            [pair_counts[i] for i in usable],
        )
        coverage = usable_rows / max(1, n_rows)
        if n_multi < 1 or n_blocks < 2:
            continue
        if agreement < config.min_agreement:
            continue
        if coverage < config.min_coverage:
            continue
        usable_values = [distinct[code] for code in dict.fromkeys(pair_lhs[i] for i in usable)]
        remainder = generalize_strings([value[k:] for value in usable_values])
        if remainder is None:
            remainder = Pattern.any_string()
        head = generalize_strings([value[:k] for value in usable_values])
        pattern = constrained_prefix(k, remainder, head=head)
        return VariableCandidate(
            constrained_pattern=pattern,
            coverage=coverage,
            agreement=agreement,
            n_blocks=n_blocks,
            n_multi_blocks=n_multi,
            description=f"first {k} characters determine the RHS",
        )
    return None


def _mine_token_kernel(
    lhs: ColumnEncoding,
    pair_lhs: List[int],
    pair_rhs: List[int],
    pair_counts: List[int],
    config: DiscoveryConfig,
    miner: VariablePfdMiner,
) -> Optional[VariableCandidate]:
    distinct = lhs.distinct
    tokens_of = {code: cached_tokenize(distinct[code]) for code in set(pair_lhs)}
    n_rows = lhs.n_rows
    for position in range(config.max_constrained_token_position + 1):
        usable = [
            i
            for i, code in enumerate(pair_lhs)
            if len(tokens_of[code]) > position
        ]
        usable_rows = sum(pair_counts[i] for i in usable)
        if usable_rows < 2 * config.min_support:
            continue
        agreement, n_blocks, n_multi, _total = _block_stats(
            [
                (
                    position,
                    tokens_of[pair_lhs[i]][position].normalized
                    or tokens_of[pair_lhs[i]][position].text,
                )
                for i in usable
            ],
            [pair_rhs[i] for i in usable],
            [pair_counts[i] for i in usable],
        )
        coverage = usable_rows / max(1, n_rows)
        if n_multi < 1 or n_blocks < 2:
            continue
        if agreement < config.min_agreement:
            continue
        if coverage < config.min_coverage:
            continue
        usable_codes = list(dict.fromkeys(pair_lhs[i] for i in usable))
        # the scalar pattern builder is duplicate-/order-insensitive, so
        # the deduplicated per-distinct token lists yield the same pattern
        pattern = miner._token_constraint_pattern(
            [tokens_of[code] for code in usable_codes], position
        )
        if pattern is None:
            continue
        matched = 0
        matches = MATCH_MEMO.matcher(pattern)
        verdict_of: Dict[int, bool] = {}
        for code in usable_codes:
            joined = " ".join(token.text for token in tokens_of[code])
            verdict_of[code] = matches(joined)
        for i in usable:
            if verdict_of[pair_lhs[i]]:
                matched += pair_counts[i]
        if matched / usable_rows < config.min_coverage:
            continue
        return VariableCandidate(
            constrained_pattern=pattern,
            coverage=coverage,
            agreement=agreement,
            n_blocks=n_blocks,
            n_multi_blocks=n_multi,
            description=f"the token at position {position} determines the RHS",
        )
    return None
