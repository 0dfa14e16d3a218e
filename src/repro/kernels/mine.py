"""The Figure 2 loop body over encoded columns: the one mining route.

Every discovery — monolithic, sharded and the rule maintainer's — mines
each candidate ``A → B`` here, doing the per-row work as numpy array
operations over interned id arrays:

* the inverted list never materializes postings: each entry is the list
  of distinct-value *codes* carrying its (token, position) key;
* constant mining bounds every entry in one vectorized pass over the
  distinct ``(lhs_code, rhs_code)`` pair counts (support, top RHS value,
  agreement before the pattern re-check), then walks the entries as a
  lazy greedy: only entries whose bound can still pass the selection's
  marginal-coverage test (:func:`accepts`, in :func:`selection_key`
  order) are generalized and re-checked;
* the pattern synthesis and match re-check run over the entry's
  *distinct* covered values (the pattern builders depend on the set of
  values only), with verdicts shared through ``MATCH_MEMO``;
* both kernels read one reduction of the column pair to distinct
  ``(lhs_code, rhs_code)`` counts (:func:`pair_counts`, one
  ``np.unique`` per candidate); variable mining evaluates every prefix
  length / token position against those counts.

The result is pinned, byte for byte, to the literal Figure 2 loop over
row lists in ``tests/figure2_reference.py``: the same selected
candidates in the same order, the same tie-breaks and the same floats.
"""

from __future__ import annotations

import heapq
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

from repro.constrained.constrained_pattern import constrained_prefix
from repro.dataset.rowids import row_ids_from_numpy
from repro.discovery.config import DiscoveryConfig
from repro.discovery.decision import PatternTupleCandidate, contains_token_pattern
from repro.discovery.variable_miner import VariableCandidate, token_constraint_pattern
from repro.kernels.encoder import ColumnEncoding
from repro.kernels.match import _VECTOR_THRESHOLD, batch_verdicts
from repro.kernels.runtime import np
from repro.kernels.tokenize import Triples
from repro.patterns.generalize import generalize_strings, generalize_with_literal_prefix
from repro.patterns.pattern import Pattern
from repro.patterns.tokenizer import _PUNCTUATION_STRIP
from repro.perf.memo import MATCH_MEMO
from repro.perf.timers import StageTimers, stage_or_null as _stage

_RHS_MASK = 0xFFFFFFFF


def _merged_rows(rows_by_code: list, codes: Sequence[int]):
    """Ascending row ids of several codes (each block already ascends)."""
    if len(codes) == 1:
        return rows_by_code[codes[0]]
    return np.sort(np.concatenate([rows_by_code[code] for code in codes]))


def _runs(sorted_keys):
    """Start index of every run of equal values in a sorted array."""
    return np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])


def pair_counts(lhs: ColumnEncoding, rhs: ColumnEncoding):
    """The distinct ``(LHS code, RHS code)`` pairs of a column pair with
    their row counts: ``(keys, counts)``, each key ``lhs_code << 32 |
    rhs_code``, sorted by LHS code then RHS code.  The one pass over
    rows of a candidate; both kernels read it."""
    return np.unique(
        (lhs.codes.astype(np.int64) << 32) | rhs.codes, return_counts=True
    )


# -- constant mining ---------------------------------------------------------------


def selection_key(support: int, agreement: float, pattern_text: str) -> Tuple:
    """The greedy selection's order: most covering first, then most
    agreeing, then the shorter (more general) pattern text.  Sorts are
    stable, so equal keys keep the decision order.  With an empty text
    it is the least key any pattern with that support and agreement can
    have."""
    return (-support, -agreement, len(pattern_text), pattern_text)


def accepts(n_new: int, already_covered: bool, min_support: int) -> bool:
    """The marginal-coverage test of the greedy selection.

    ``n_new`` counts the candidate's tuples not yet covered by a kept
    candidate with the same RHS constant; ``already_covered`` says
    whether any such candidate was kept.  The greedy keeps the tableau
    small and free of redundant, more-specific patterns (``900\\D{2}``
    suppresses ``9000\\D`` when the latter covers no additional tuple).
    The answer only gets stricter as ``n_new`` shrinks and once
    ``already_covered`` holds, which is what lets the kernel reject an
    entry from an upper bound on its tuples.
    """
    if not n_new:
        return False
    # below the support floor, a more general kept pattern already
    # explains the rest
    return n_new >= min_support or not already_covered


class _EntryBounds:
    """The inverted-list entries of one candidate: every entry's
    statistics before the pattern re-check, from one pass over the
    distinct (LHS, RHS) pair counts, and :meth:`verify`, the re-check.

    ``support``, ``top_code`` and ``top_count`` are the entry's row
    count, its most frequent RHS value (the max by (count, RHS string))
    and that value's row count; verification can only drop codes, so
    ``support`` bounds the verified candidate's tuples.
    """

    def __init__(
        self,
        lhs: ColumnEncoding,
        rhs: ColumnEncoding,
        pairs,
        entry_codes: Dict[Tuple[str, int], List[int]],
    ):
        self.lhs = lhs
        #: (token, position) per entry, in first-appearance order
        self.keys = list(entry_codes)
        self.code_lists = code_lists = list(entry_codes.values())
        n_entries = len(code_lists)
        sizes = np.fromiter(map(len, code_lists), dtype=np.int64, count=n_entries)
        self.starts = np.zeros(n_entries + 1, dtype=np.int64)
        np.cumsum(sizes, out=self.starts[1:])
        #: every entry's codes, concatenated (entry e owns starts[e]:starts[e+1])
        self.codes = np.fromiter(
            chain.from_iterable(code_lists), dtype=np.int64, count=int(self.starts[-1])
        )
        counts = lhs.counts()
        self.support = np.add.reduceat(counts[self.codes], self.starts[:-1])

        # distinct (lhs, rhs) pairs with their row counts, sorted by LHS
        # code then RHS code (see pair_counts)
        self.pair_keys, self.pair_counts = pairs
        code_start = np.searchsorted(
            self.pair_keys >> 32, np.arange(lhs.n_distinct + 1)
        )
        # expand every (entry, code) membership to the code's pairs
        first = code_start[self.codes]
        reps = code_start[self.codes + 1] - first
        ends = np.cumsum(reps)
        pair_index = np.arange(int(ends[-1])) + np.repeat(first - (ends - reps), reps)
        member_entry = np.repeat(np.arange(n_entries), sizes)
        n_rhs = rhs.n_distinct
        combined = np.repeat(member_entry, reps) * n_rhs + (
            self.pair_keys[pair_index] & _RHS_MASK
        )
        order = np.argsort(combined)
        combined = combined[order]
        runs = _runs(combined)
        # (entry, rhs) → rows, sorted by entry then RHS code
        entry_rhs = combined[runs]
        rhs_counts = np.add.reduceat(self.pair_counts[pair_index][order], runs)
        by_entry = entry_rhs // n_rhs
        rhs_code = entry_rhs % n_rhs

        groups = _runs(by_entry)  # one group per entry, in entry order
        self.top_count = np.maximum.reduceat(rhs_counts, groups)
        best = np.flatnonzero(rhs_counts == self.top_count[by_entry])
        best_entry = by_entry[best]
        best_rhs = rhs_code[best]
        # count ties break towards the larger RHS string: rank the tied
        # RHS values by text (distinct values never compare equal)
        rank = np.zeros(n_rhs, dtype=np.int64)
        tied = np.r_[best_entry[1:] == best_entry[:-1], False]
        tied |= np.r_[False, tied[:-1]]
        if tied.any():
            texts = sorted(
                np.unique(best_rhs[tied]).tolist(), key=rhs.distinct.__getitem__
            )
            rank[texts] = np.arange(1, len(texts) + 1)
        order = np.lexsort((rank[best_rhs], best_entry))
        last = np.r_[best_entry[order][1:] != best_entry[order][:-1], True]
        self.top_code = best_rhs[order][last]

    def entry_codes(self, entry: int):
        return self.codes[self.starts[entry] : self.starts[entry + 1]]

    def verify(self, entry: int, config: DiscoveryConfig):
        """The decision function's pattern synthesis and re-check for
        one entry: ``(pattern, matching codes, matching rows, agreeing
        rows)``, or ``None`` when the entry forms no pattern tuple.

        Entries at position 0 whose values all start with the token
        become ``literal-prefix + generalized-suffix`` patterns such as
        ``850\\D{7}``; the rest become :func:`contains_token_pattern`
        patterns such as ``\\A*,\\ Donald\\A*``."""
        token, position = self.keys[entry]
        lhs = self.lhs
        code_list = self.code_lists[entry]
        covered_values = [lhs.distinct[code] for code in code_list]
        if position == 0 and all(v.startswith(token) for v in covered_values):
            pattern = generalize_with_literal_prefix(covered_values, len(token))
        else:
            pattern = contains_token_pattern(token, position, covered_values)
        if pattern is None:
            return None
        codes = self.entry_codes(entry)
        if len(code_list) >= _VECTOR_THRESHOLD:
            verdicts = batch_verdicts(
                pattern,
                covered_values,
                memo=MATCH_MEMO,
                lengths=lhs.lengths()[codes],
                signatures=lhs.signatures()[codes],
            )
        else:
            verdicts = batch_verdicts(pattern, covered_values, memo=MATCH_MEMO)
        if all(verdicts):
            return pattern, codes, int(self.support[entry]), int(self.top_count[entry])
        matched = codes[np.asarray(verdicts, dtype=bool)]
        n_matching = int(lhs.counts()[matched].sum())
        if n_matching < config.min_support:
            return None
        # rows of the matching codes whose RHS is the entry's top value
        wanted = (matched << 32) | int(self.top_code[entry])
        at = np.minimum(np.searchsorted(self.pair_keys, wanted), len(self.pair_keys) - 1)
        n_agreeing = int(self.pair_counts[at][self.pair_keys[at] == wanted].sum())
        if n_agreeing / n_matching < config.min_agreement:
            return None
        return pattern, matched, n_matching, n_agreeing


def mine_constant_kernel(
    lhs: ColumnEncoding,
    rhs: ColumnEncoding,
    pairs,
    triples_by_code: List[Triples],
    config: DiscoveryConfig,
    timers: Optional[StageTimers] = None,
) -> List[PatternTupleCandidate]:
    """The selected constant pattern tuples of ``A → B`` (the tableau
    before γ); ``pairs`` is :func:`pair_counts` of the two columns.

    The selection is the eager greedy of Figure 2: decide every entry,
    sort the pattern tuples by :func:`selection_key`, keep each one
    :func:`accepts` on its rows not yet covered under its RHS constant.
    This walk is its lazy form (Minoux's accelerated greedy).  Every
    entry is bounded from its unverified statistics, and the walk merges
    the entries, sorted by bound, with a heap of verified candidates, so
    candidates leave the heap in the eager selection's order:

    * an entry's bound key, ``selection_key(support, agreement, "")``,
      is no larger than the key of the candidate it verifies to
      (verification only drops rows, and an unchanged row set keeps the
      agreement), so every entry is verified before any candidate that
      could follow it — in particular all entries tied on (support,
      agreement) are verified before the tie is broken by pattern text
      and first appearance;
    * covered sets only grow, so an entry whose unverified rows already
      fail :func:`accepts` is dropped without being
      generalized;
    * the rest are generalized and re-checked (the ``generalize``
      stage) and queued under their exact key; a candidate leaving the
      heap meets the eager selection's own test.
    """
    # Entry map: (token, position) → codes carrying it.  Iterating codes
    # in first-appearance order reproduces the row-level inverted list's
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
        if not entry_codes:
            return []
        bounds = _EntryBounds(lhs, rhs, pairs, entry_codes)
        support = bounds.support
        top_code = bounds.top_code
        agreement = bounds.top_count / support
        passing = np.flatnonzero(
            (support >= config.min_support)
            & (rhs.lengths()[top_code] > 0)
            & (agreement >= config.min_agreement)
        )
        # stable: entries tied on the bound keep first-appearance order
        walk = passing[np.lexsort((-agreement[passing], -support[passing]))]
        bound_keys = [
            selection_key(s, a, "")
            for s, a in zip(support[walk].tolist(), agreement[walk].tolist())
        ]
        walk = walk.tolist()

        counts = lhs.counts()
        #: RHS code → which LHS codes kept candidates cover (a kept
        #: candidate's rows are always whole codes)
        covered: dict = {}

        def adds_coverage(codes, top: int) -> bool:
            mask = covered.get(top)
            if mask is None:
                return accepts(int(counts[codes].sum()), False, config.min_support)
            return accepts(
                int(counts[codes[~mask[codes]]].sum()), True, config.min_support
            )

        heap: list = []
        kept: List[PatternTupleCandidate] = []
        next_bound = 0
        while len(kept) < config.max_tableau_rows:
            if next_bound < len(walk) and (
                not heap or bound_keys[next_bound] <= heap[0][0]
            ):
                entry = walk[next_bound]
                next_bound += 1
                if not adds_coverage(bounds.entry_codes(entry), int(top_code[entry])):
                    continue
                with _stage(timers, "generalize"):
                    verified = bounds.verify(entry, config)
                if verified is not None:
                    pattern, _matched, n_matching, n_agreeing = verified
                    key = selection_key(
                        n_matching, n_agreeing / n_matching, pattern.to_text()
                    )
                    heapq.heappush(heap, (key, entry, verified))
                continue
            if not heap:
                break
            _key, entry, (pattern, matched, n_matching, n_agreeing) = heapq.heappop(heap)
            top = int(top_code[entry])
            if not adds_coverage(matched, top):
                continue
            if top not in covered:
                covered[top] = np.zeros(lhs.n_distinct, dtype=bool)
            covered[top][matched] = True
            rows = _merged_rows(lhs.rows_by_code(), matched)
            agree_mask = rhs.codes[rows] == top
            token, position = bounds.keys[entry]
            kept.append(
                PatternTupleCandidate(
                    lhs_pattern=pattern,
                    rhs_constant=rhs.distinct[top],
                    support=n_matching,
                    agreement=n_agreeing / n_matching,
                    covered_tuple_ids=row_ids_from_numpy(rows),
                    violating_tuple_ids=row_ids_from_numpy(rows[~agree_mask]),
                    source_token=token,
                    source_position=position,
                )
            )
        return kept


def coverage_kernel(
    candidates: Sequence[PatternTupleCandidate], lhs: ColumnEncoding
) -> float:
    """Fraction of the non-empty LHS rows the candidates cover: the
    tableau coverage compared against γ (Figure 2, line 13)."""
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
    pairs,
    mode: str,
    config: DiscoveryConfig,
    timers: Optional[StageTimers] = None,
) -> List[VariableCandidate]:
    """The variable-PFD candidate of ``A → B``, if any: a constrained
    prefix for the ``prefix``/``ngram`` modes, a constrained token for
    ``token``; ``pairs`` is :func:`pair_counts` of the two columns."""
    with _stage(timers, "mine_variable"):
        keys, key_counts = pairs
        # rows with an empty LHS or RHS value take no part: drop their
        # distinct pairs
        usable = (lhs.lengths()[keys >> 32] > 0) & (rhs.lengths()[keys & _RHS_MASK] > 0)
        keys = keys[usable]
        key_counts = key_counts[usable]
        if int(key_counts.sum()) < 2 * config.min_support:
            return []
        pair_lhs = (keys >> 32).tolist()
        pair_rhs = (keys & _RHS_MASK).tolist()
        pair_counts = key_counts.tolist()
        if mode in ("prefix", "ngram"):
            candidate = _mine_prefix_kernel(
                lhs, pair_lhs, pair_rhs, pair_counts, config
            )
        else:
            candidate = _mine_token_kernel(lhs, pair_lhs, pair_rhs, pair_counts, config)
        return [candidate] if candidate is not None else []


def _block_stats(
    block_keys: Sequence, pair_rhs: Sequence[int], pair_counts: Sequence[int]
) -> Tuple[float, int, int, int]:
    """(agreement, #blocks, #multi-row blocks, total rows) of blocked
    distinct pairs.  Agreement is the fraction of rows whose RHS value
    is the majority value of their block — the quantity the
    allowed-violation ratio bounds."""
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
) -> Optional[VariableCandidate]:
    distinct = lhs.distinct
    words_of = {code: distinct[code].split() for code in set(pair_lhs)}
    n_rows = lhs.n_rows
    for position in range(config.max_constrained_token_position + 1):
        usable = [
            i
            for i, code in enumerate(pair_lhs)
            if len(words_of[code]) > position
        ]
        usable_rows = sum(pair_counts[i] for i in usable)
        if usable_rows < 2 * config.min_support:
            continue
        agreement, n_blocks, n_multi, _total = _block_stats(
            [
                words_of[pair_lhs[i]][position].strip(_PUNCTUATION_STRIP)
                or words_of[pair_lhs[i]][position]
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
        pattern = token_constraint_pattern(
            [words_of[code] for code in usable_codes], position
        )
        matched = 0
        matches = MATCH_MEMO.matcher(pattern)
        verdict_of: Dict[int, bool] = {}
        for code in usable_codes:
            verdict_of[code] = matches(" ".join(words_of[code]))
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
