"""The Figure 2 loop body over encoded columns: the one mining route.

Every discovery — monolithic, sharded and the rule maintainer's — mines
each candidate ``A → B`` here, from a :class:`MiningState`: per LHS
column and token mode (:class:`LhsState`) every distinct value's tokens
and the inverted list, whose entries list the distinct-value *codes*
carrying one (token, position) key, with each entry's verified pattern;
per candidate (:class:`PairState`) the distinct ``(LHS code, RHS code)``
pairs with their row counts (:func:`pair_counts`).  All of it is
O(distinct values), never O(rows).  Discovery builds the state; a
re-check patches it with the batch's count deltas
(:meth:`MiningState.patch`).  Both then run the same selection:

* constant mining bounds every entry in one vectorized pass over the
  pair counts (support, top RHS value, agreement before the pattern
  re-check), then walks the entries as a lazy greedy: only entries whose
  bound can still pass the selection's marginal-coverage test
  (:func:`accepts`, in :func:`selection_key` order) are verified;
* the pattern synthesis and match re-check run over the entry's
  *distinct* values (the pattern builders depend on the set of values
  only), with verdicts shared through ``MATCH_MEMO``;
* variable mining reads every prefix length / token position from its
  block tally, one pass over the pair counts (:func:`block_tally`).

The result is pinned, byte for byte, to the literal Figure 2 loop over
row lists in ``tests/figure2_reference.py``: the same selected
candidates in the same order, the same tie-breaks and the same floats.
"""

from __future__ import annotations

import heapq
from itertools import chain
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from repro.constrained.constrained_pattern import constrained_prefix
from repro.discovery.config import DiscoveryConfig
from repro.discovery.decision import PatternTupleCandidate, contains_token_pattern
from repro.discovery.variable_miner import VariableCandidate, token_constraint_pattern
from repro.kernels.encoder import ColumnEncoding
from repro.kernels.match import _VECTOR_THRESHOLD, batch_verdicts
from repro.kernels.runtime import np
from repro.kernels.tokenize import (
    _PUNCTUATION_STRIP,
    Triples,
    batch_tokenize,
    tokenize_values,
)
from repro.patterns.generalize import generalize
from repro.patterns.pattern import Pattern
from repro.perf.memo import MATCH_MEMO
from repro.perf.timers import StageTimers, stage_or_null as _stage

_RHS_MASK = 0xFFFFFFFF

#: pattern tuples kept per constant tableau (most covering first)
MAX_TABLEAU_ROWS = 64
#: the last token position a λ4-style variable candidate constrains
MAX_CONSTRAINED_TOKEN_POSITION = 3

#: a pattern and the values it was checked against but does not match
Verdicts = Tuple[Optional[Pattern], FrozenSet[str]]


def _runs(sorted_keys):
    """Start index of every run of equal values in a sorted array."""
    return np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])


def _summed(keys, weights):
    """The distinct keys, ascending, with their weights summed; keys
    whose weights cancel out are dropped."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    if not len(keys):
        return keys, weights[:0]
    starts = _runs(keys)
    sums = np.add.reduceat(weights[order], starts)
    live = sums != 0
    return keys[starts][live], sums[live]


def _starts(sizes):
    """int64 offsets ``[0, sizes[0], sizes[0] + sizes[1], …]``."""
    starts = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    return starts


def pair_counts(lhs: ColumnEncoding, rhs: ColumnEncoding):
    """The distinct ``(LHS code, RHS code)`` pairs of a column pair with
    their row counts: ``(keys, counts)``, each key ``lhs_code << 32 |
    rhs_code``, sorted by LHS code then RHS code.  The one pass over
    rows of a candidate; a re-check patches it instead."""
    return np.unique(
        (lhs.codes.astype(np.int64) << 32) | rhs.codes, return_counts=True
    )


class ColumnPatch(NamedTuple):
    """One column's part of a cell-edit batch: its encodings before and
    after, the rows whose value changed (ascending), and the renumbering
    :meth:`~repro.kernels.encoder.ColumnEncoding.with_cells` returned
    (``None`` for a column the batch left alone)."""

    old: ColumnEncoding
    new: ColumnEncoding
    rows: object
    renumber: object = None

    def renumbered(self, codes):
        """Old codes (int64) as new codes.  A vanished value's code goes
        past every live code: all its rows move away, so its counts
        cancel out."""
        if self.renumber is None:
            return codes
        new = self.renumber[codes].astype(np.int64)
        gone = new < 0
        new[gone] = self.new.n_distinct + codes[gone]
        return new


# -- mining state ------------------------------------------------------------------


class LhsState:
    """What every candidate with one LHS column and token mode shares.

    Each distinct value keeps its tokens as entry ids, in triple order
    (``value_entries[value_starts[c]:value_starts[c + 1]]`` for code
    ``c``; an id stands for one (token, position) key).  ``keys`` are
    the inverted list's entries in first-appearance order, and
    ``codes``/``starts`` concatenate their codes (entry ``e`` owns
    ``codes[starts[e]:starts[e + 1]]``, ascending).
    """

    def __init__(self, encoding: ColumnEncoding, mode: str):
        self.mode = mode
        self.encoding = encoding
        self._entry_ids: Dict[Tuple[str, int], int] = {}
        self._entry_keys: List[Tuple[str, int]] = []
        #: entry key → the entry's :data:`Verdicts`, while its value set stands
        self.verified: Dict[Tuple[str, int], Verdicts] = {}
        #: entries verified since the last :meth:`MiningState.patch`
        self.n_verified = 0
        self._block_codes: Dict[int, object] = {}
        self._leading = None
        sizes, self.value_entries = self._entries(batch_tokenize(encoding, mode))
        self.value_starts = _starts(sizes)
        self._index()

    def _entries(self, per_value: List[Triples]):
        """Each value's number of triples (int64) and the entry ids of all
        its triples (int32, flat in value then triple order); a key not
        seen before gets the next id, in order of first appearance."""
        keys = [(key, position) for key, position, _text in chain.from_iterable(per_value)]
        ids = self._entry_ids
        for key in dict.fromkeys(keys):
            if key not in ids:
                ids[key] = len(self._entry_keys)
                self._entry_keys.append(key)
        sizes = np.fromiter(map(len, per_value), np.int64, len(per_value))
        return sizes, np.fromiter(map(ids.__getitem__, keys), np.int32, len(keys))

    def _index(self) -> None:
        # Entries in order of their first token in code order reproduce
        # the row-level inverted list's key insertion order (the first
        # row containing a key is always the first appearance of one of
        # its codes); a stable sort keeps each entry's codes ascending.
        tokens = self.value_entries
        owner = np.repeat(np.arange(self.encoding.n_distinct), np.diff(self.value_starts))
        order = np.argsort(tokens, kind="stable")
        grouped = tokens[order]
        runs = _runs(grouped) if len(tokens) else np.zeros(0, dtype=np.int64)
        by_first = np.argsort(order[runs], kind="stable")
        sizes = np.diff(np.r_[runs, len(tokens)])[by_first]
        self.starts = _starts(sizes)
        gather = np.repeat(runs[by_first] - self.starts[:-1], sizes) + np.arange(len(tokens))
        self.codes = owner[order[gather]]
        self.keys = [self._entry_keys[entry] for entry in grouped[runs][by_first].tolist()]

    def patch(self, patch: ColumnPatch) -> None:
        """Adopt the column's patched encoding: tokenize the added values,
        forget the vanished ones and the verdicts of every entry either
        kind belongs to, and rebuild the entry map."""
        starts, tokens = self.value_starts, self.value_entries
        renumber = patch.renumber[: patch.old.n_distinct]
        sizes = np.diff(starts)
        stale = set(tokens[np.repeat(renumber < 0, sizes)].tolist())
        tail = patch.renumber[patch.old.n_distinct :]
        added_codes = tail[tail >= 0].tolist()
        added_sizes, added = self._entries(
            tokenize_values([patch.new.distinct[code] for code in added_codes], self.mode)
        )
        stale.update(added.tolist())
        for entry in stale:
            self.verified.pop(self._entry_keys[entry], None)
        # each kept value takes its tokens along to its new code
        source = np.full(patch.new.n_distinct, -1, dtype=np.int64)
        source[renumber[renumber >= 0]] = np.flatnonzero(renumber >= 0)
        new_sizes = np.zeros(patch.new.n_distinct, dtype=np.int64)
        kept = source >= 0
        new_sizes[kept] = sizes[source[kept]]
        new_sizes[added_codes] = added_sizes
        self.value_starts = new_starts = _starts(new_sizes)
        owner = np.repeat(np.arange(patch.new.n_distinct), new_sizes)
        moved = kept[owner]
        offset = np.arange(len(owner)) - new_starts[owner]
        self.value_entries = np.empty(len(owner), dtype=np.int32)
        self.value_entries[moved] = tokens[starts[source[owner[moved]]] + offset[moved]]
        added_starts = _starts(added_sizes).tolist()
        for code, begin, end in zip(added_codes, added_starts, added_starts[1:]):
            self.value_entries[new_starts[code] : new_starts[code + 1]] = added[begin:end]
        self.encoding = patch.new
        self._block_codes.clear()
        self._leading = None
        self._index()

    def entry_codes(self, entry: int):
        return self.codes[self.starts[entry] : self.starts[entry + 1]]

    def leading(self):
        """bool array: per code, whether its value starts with its key at
        position 0 (the first ``NGRAM_SIZE`` characters, a prefix, or the
        first word's key when no leading space or punctuation was cut)."""
        leading = self._leading
        if leading is None:
            if self.mode == "token":
                keys = self._entry_keys
                entries = self.value_entries.tolist()
                starts = self.value_starts.tolist()
                leading = np.fromiter(
                    (
                        starts[code] < starts[code + 1]
                        and value.startswith(keys[entries[starts[code]]][0])
                        for code, value in enumerate(self.encoding.distinct)
                    ),
                    dtype=bool,
                    count=self.encoding.n_distinct,
                )
            else:
                leading = np.ones(self.encoding.n_distinct, dtype=bool)
            self._leading = leading
        return leading

    def verdicts(self, entry: int) -> Verdicts:
        """The decision function's pattern synthesis and re-check for one
        entry, over its distinct values.

        Entries at position 0 whose values all start with the token
        become ``literal-prefix + generalized-suffix`` patterns such as
        ``850\\D{7}``; the rest become :func:`contains_token_pattern`
        patterns such as ``\\A*,\\ Donald\\A*``."""
        found = self.verified.get(self.keys[entry])
        if found is not None:
            return found
        self.n_verified += 1
        token, position = self.keys[entry]
        lhs = self.encoding
        codes = self.entry_codes(entry)
        values = [lhs.distinct[code] for code in codes.tolist()]
        if position == 0 and self.leading()[codes].all():
            pattern = _literal_prefix_pattern(lhs, codes, token)
        else:
            pattern = contains_token_pattern(token, position, values)
        unmatched: FrozenSet[str] = frozenset()
        if pattern is not None:
            vector = len(codes) >= _VECTOR_THRESHOLD  # worth the per-code arrays
            verdicts = batch_verdicts(
                pattern,
                values,
                memo=MATCH_MEMO,
                lengths=lhs.lengths()[codes] if vector else None,
                signatures=lhs.signatures()[codes] if vector else None,
            )
            unmatched = frozenset(v for v, ok in zip(values, verdicts) if not ok)
        found = self.verified[self.keys[entry]] = (pattern, unmatched)
        return found

    def block_keys(self, level: int) -> List[Optional[str]]:
        """Per code, its value's block at one variable level: its first
        ``level`` characters (``prefix``/``ngram``) or its word at
        position ``level`` (``token``); ``None`` when it has none."""
        distinct = self.encoding.distinct
        if self.mode in ("prefix", "ngram"):
            return [value[:level] if len(value) > level else None for value in distinct]
        return [
            (words[level].strip(_PUNCTUATION_STRIP) or words[level]) if len(words) > level else None
            for words in map(str.split, distinct)
        ]

    def block_codes(self, level: int):
        """int32 array: per code, its value's block at one variable level
        (blocks numbered in first-appearance order), ``-1`` for none."""
        codes = self._block_codes.get(level)
        if codes is None:
            keys = self.block_keys(level)
            ids = {key: block for block, key in enumerate(dict.fromkeys(keys))}
            codes = np.fromiter(map(ids.__getitem__, keys), dtype=np.int32, count=len(keys))
            none = ids.get(None)
            if none is not None:
                missing = codes == none
                codes[codes > none] -= 1
                codes[missing] = -1
            self._block_codes[level] = codes
        return codes


def _literal_prefix_pattern(lhs: ColumnEncoding, codes, token: str) -> Optional[Pattern]:
    """The ``token`` literal followed by the generalized rest of the
    values of ``codes`` (all of which start with ``token``), e.g.
    ``850\\D{7}``; ``None`` when only some values go on past the token
    and the rest do not generalize."""
    prefix = Pattern.literal(token)
    goes_on = lhs.lengths()[codes] > len(token)
    if not goes_on.any():
        return prefix
    suffix = generalize(lhs.shapes(), codes, start=len(token))
    if suffix is None:
        if not goes_on.all():
            return None
        suffix = Pattern.any_string()
    return prefix.concat(suffix)


class PairState:
    """One candidate's mining state.

    The variable levels' block tallies are not kept: each is one
    vectorized pass over the pair counts (:func:`block_tally`), and
    keeping every level visited would cost O(pairs) per level."""

    def __init__(self, lhs: ColumnEncoding, rhs: ColumnEncoding):
        #: :func:`pair_counts` of the two columns
        self.pairs = pair_counts(lhs, rhs)
        #: per variable level, the pattern its usable values form and the
        #: values it does not match
        self.patterns: Dict[int, Verdicts] = {}
        #: per LHS code, whether the value has a row with a non-empty RHS:
        #: the usable values ``patterns`` were formed from
        self.present = None
        #: (constant tableau, its coverage, variable candidates), until a
        #: patch changes the state
        self.mined = None

    def patch(self, lhs: ColumnPatch, rhs: ColumnPatch) -> None:
        """Move every edited row from its old pair to its new one."""
        rows = np.union1d(lhs.rows, rhs.rows)
        old_lhs = lhs.renumbered(lhs.old.codes[rows].astype(np.int64))
        old_rhs = rhs.renumbered(rhs.old.codes[rows].astype(np.int64))
        keys, counts = self.pairs
        moves = np.ones(len(rows), dtype=np.int64)
        self.pairs = _summed(
            np.concatenate((
                (lhs.renumbered(keys >> 32) << 32) | rhs.renumbered(keys & _RHS_MASK),
                (old_lhs << 32) | old_rhs,
                (lhs.new.codes[rows].astype(np.int64) << 32) | rhs.new.codes[rows],
            )),
            np.concatenate((counts, -moves, moves)),
        )
        if self.present is not None and lhs.renumber is not None:
            renumber = lhs.renumber[: lhs.old.n_distinct]
            live = renumber >= 0
            if self.present[~live].any():
                self.patterns.clear()  # a usable value vanished
            present = np.zeros(lhs.new.n_distinct, dtype=bool)
            present[renumber[live]] = self.present[live]
            self.present = present
        self.mined = None


def block_tally(pairs, entries: LhsState, level: int, rhs: ColumnEncoding):
    """The usable rows of one variable level per ``block << 32 | RHS
    code``, sorted: the pair counts with each LHS code replaced by its
    block, rows with no block or an empty RHS value left out."""
    keys, counts = pairs
    blocks = entries.block_codes(level)[keys >> 32].astype(np.int64)
    usable = (blocks >= 0) & (rhs.lengths()[keys & _RHS_MASK] > 0)
    return _summed((blocks[usable] << 32) | (keys[usable] & _RHS_MASK), counts[usable])


#: a candidate's state is keyed by what determines it: the attribute
#: pair plus the LHS token mode (the mode can flip when the LHS profile
#: changes)
CandidateKey = Tuple[str, str, str]


class MiningState:
    """Everything the mining loop reads, kept between runs: an
    :class:`LhsState` per (LHS column, mode) and a :class:`PairState`
    per candidate, valid for the column encodings they were built or
    last patched to."""

    def __init__(self):
        self.lhs: Dict[Tuple[str, str], LhsState] = {}
        self.candidates: Dict[CandidateKey, PairState] = {}
        #: candidate states patched / built fresh / mined results reused
        #: since the last patch
        self.n_patched = self.n_fresh = self.n_reused = 0

    def patch(
        self, patches: Dict[str, ColumnPatch], encodings: Dict[str, ColumnEncoding]
    ) -> None:
        """Apply a cell-edit batch: ``patches`` holds every changed
        column's :class:`ColumnPatch`, ``encodings`` every column's new
        encoding.  A state over clean columns takes the empty delta."""
        self.n_patched = self.n_fresh = self.n_reused = 0
        for (name, _mode), entries in self.lhs.items():
            entries.n_verified = 0
            if name in patches:
                entries.patch(patches[name])
        # a clean column: no row changed, nothing renumbered
        columns = {
            name: ColumnPatch(encoding, encoding, np.zeros(0, dtype=np.int64))
            for name, encoding in encodings.items()
        }
        columns.update(patches)
        for (lhs, rhs, _mode), state in self.candidates.items():
            if lhs in patches or rhs in patches:
                state.patch(columns[lhs], columns[rhs])
                self.n_patched += 1

    def mine(self, candidate, lhs, rhs, config, timers=None):
        """``(constant tableau before γ, its coverage, variable
        candidates)`` of a candidate dependency over its columns'
        encodings ``lhs`` and ``rhs``."""
        key = (candidate.lhs, candidate.rhs, candidate.lhs_mode)
        entries = self.lhs.get((key[0], key[2]))
        if entries is None:
            with _stage(timers, "tokenize"):
                entries = self.lhs[(key[0], key[2])] = LhsState(lhs, key[2])
        state = self.candidates.get(key)
        if state is None:
            with _stage(timers, "pair_counts"):
                state = self.candidates[key] = PairState(lhs, rhs)
            self.n_fresh += 1
        self.n_reused += state.mined is not None
        if state.mined is None:
            constant, coverage = mine_constant_kernel(
                entries, rhs, state.pairs, config, timers=timers
            )
            variable = mine_variable_kernel(entries, rhs, state, config, timers=timers)
            state.mined = (constant, coverage, variable)
        return state.mined

    def keep_only(self, keys: Sequence[CandidateKey]) -> None:
        """Drop the state of every candidate not in ``keys``."""
        self.candidates = {key: self.candidates[key] for key in keys}
        self.lhs = {(lhs, mode): self.lhs[(lhs, mode)] for lhs, _rhs, mode in keys}


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
    """Every entry's statistics before the pattern re-check, from one
    pass over one candidate's pair counts, and :meth:`verify`, the
    re-check.

    ``support``, ``top_code`` and ``top_count`` are the entry's row
    count, its most frequent RHS value (the max by (count, RHS string))
    and that value's row count; verification can only drop codes, so
    ``support`` bounds the verified candidate's tuples.
    """

    def __init__(self, entries: LhsState, rhs: ColumnEncoding, pairs):
        self.entries = entries
        lhs = entries.encoding
        codes = entries.codes
        self.support = np.add.reduceat(lhs.counts()[codes], entries.starts[:-1])

        # distinct (lhs, rhs) pairs with their row counts, sorted by LHS
        # code then RHS code (see pair_counts)
        self.pair_keys, self.pair_counts = pairs
        code_start = np.searchsorted(
            self.pair_keys >> 32, np.arange(lhs.n_distinct + 1)
        )
        # expand every (entry, code) membership to the code's pairs
        first = code_start[codes]
        reps = code_start[codes + 1] - first
        ends = np.cumsum(reps)
        pair_index = np.arange(int(ends[-1])) + np.repeat(first - (ends - reps), reps)
        n_rhs = rhs.n_distinct
        member_entry = np.repeat(np.arange(len(entries.keys)), np.diff(entries.starts))
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

    def verify(self, entry: int, config: DiscoveryConfig):
        """``(pattern, matching codes, matching rows, agreeing rows)`` of
        one entry, or ``None`` when it forms no pattern tuple."""
        entries = self.entries
        pattern, unmatched = entries.verdicts(entry)
        if pattern is None:
            return None
        codes = entries.entry_codes(entry)
        if not unmatched:
            return pattern, codes, int(self.support[entry]), int(self.top_count[entry])
        distinct = entries.encoding.distinct
        matched = codes[[distinct[code] not in unmatched for code in codes.tolist()]]
        n_matching = int(entries.encoding.counts()[matched].sum())
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
    entries: LhsState,
    rhs: ColumnEncoding,
    pairs,
    config: DiscoveryConfig,
    timers: Optional[StageTimers] = None,
) -> Tuple[List[PatternTupleCandidate], float]:
    """The selected constant pattern tuples of ``A → B`` (the tableau
    before γ) and their coverage; ``pairs`` is :func:`pair_counts` of
    the two columns.

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
      fail :func:`accepts` is dropped without being verified;
    * the rest are verified (the ``generalize`` stage; a patched state
      reuses the verdicts of every entry whose value set stands) and
      queued under their exact key; a candidate leaving the heap meets
      the eager selection's own test.
    """
    lhs = entries.encoding
    with _stage(timers, "mine_constant"):
        if not entries.keys:
            return [], coverage_kernel((), lhs)
        bounds = _EntryBounds(entries, rhs, pairs)
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

        def adds_coverage(codes, top: int, n_rows: int) -> bool:
            mask = covered.get(top)
            if mask is None:
                return accepts(n_rows, False, config.min_support)
            return accepts(
                int(counts[codes[~mask[codes]]].sum()), True, config.min_support
            )

        heap: list = []
        kept: List[PatternTupleCandidate] = []
        next_bound = 0
        while len(kept) < MAX_TABLEAU_ROWS:
            if next_bound < len(walk) and (
                not heap or bound_keys[next_bound] <= heap[0][0]
            ):
                entry = walk[next_bound]
                next_bound += 1
                if not adds_coverage(
                    entries.entry_codes(entry), int(top_code[entry]), int(support[entry])
                ):
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
            if not adds_coverage(matched, top, n_matching):
                continue
            if top not in covered:
                covered[top] = np.zeros(lhs.n_distinct, dtype=bool)
            covered[top][matched] = True
            token, position = entries.keys[entry]
            kept.append(
                PatternTupleCandidate(
                    lhs_pattern=pattern,
                    rhs_constant=rhs.distinct[top],
                    support=n_matching,
                    agreement=n_agreeing / n_matching,
                    lhs_values=tuple(lhs.distinct[code] for code in matched.tolist()),
                    source_token=token,
                    source_position=position,
                )
            )
        return kept, coverage_kernel(covered.values(), lhs)


def coverage_kernel(covered_masks, lhs: ColumnEncoding) -> float:
    """Fraction of the non-empty LHS rows the kept candidates cover — the
    tableau coverage compared against γ (Figure 2, line 13) — from the
    per-code masks of the values each RHS constant's candidates cover:
    a count sum, since a kept candidate's rows are always whole codes
    (and never the empty value, which carries no token)."""
    counts = lhs.counts()
    non_empty = int(counts[lhs.lengths() > 0].sum())
    if non_empty == 0:
        return 0.0
    covered = np.zeros(lhs.n_distinct, dtype=bool)
    for mask in covered_masks:
        covered |= mask
    return int(counts[covered].sum()) / non_empty


# -- variable mining ---------------------------------------------------------------


def mine_variable_kernel(
    entries: LhsState,
    rhs: ColumnEncoding,
    state: PairState,
    config: DiscoveryConfig,
    timers: Optional[StageTimers] = None,
) -> List[VariableCandidate]:
    """The variable-PFD candidate of ``A → B``, if any: the first level
    whose blocks determine the RHS — a constrained prefix of ``level``
    characters for the ``prefix``/``ngram`` modes (levels up to the
    median distinct value length), the constrained token at position
    ``level`` for ``token``.  Rows with an empty LHS or RHS value take
    no part."""
    with _stage(timers, "mine_variable"):
        lhs = entries.encoding
        keys, counts = state.pairs
        pair_lhs = keys >> 32
        usable = (lhs.lengths()[pair_lhs] > 0) & (rhs.lengths()[keys & _RHS_MASK] > 0)
        if int(counts[usable].sum()) < 2 * config.min_support:
            return []
        present = np.zeros(lhs.n_distinct, dtype=bool)
        present[pair_lhs[usable]] = True
        if state.present is None or not np.array_equal(state.present, present):
            state.patterns.clear()  # the usable values changed
        state.present = present
        prefix = entries.mode in ("prefix", "ngram")
        if prefix:
            lengths = np.unique(lhs.lengths()[present])
            levels = range(1, int(lengths[len(lengths) // 2]) if len(lengths) else 1)
        else:
            levels = range(MAX_CONSTRAINED_TOKEN_POSITION + 1)
        for level in levels:
            tally_keys, tally_counts = block_tally(state.pairs, entries, level, rhs)
            usable_rows = int(tally_counts.sum())
            if usable_rows < 2 * config.min_support:
                continue
            agreement, n_blocks, n_multi = _block_stats(tally_keys, tally_counts)
            coverage = usable_rows / max(1, lhs.n_rows)
            if n_multi < 1 or n_blocks < 2:
                continue
            if agreement < config.min_agreement:
                continue
            if coverage < config.min_coverage:
                continue
            found = state.patterns.get(level)
            if found is None:
                found = state.patterns[level] = _level_pattern(entries, level, present)
            pattern, unmatched = found
            if unmatched:
                miss = np.fromiter(
                    (value in unmatched for value in lhs.distinct),
                    dtype=bool,
                    count=lhs.n_distinct,
                )
                at_level = usable & (entries.block_codes(level)[pair_lhs] >= 0)
                matched = usable_rows - int(counts[at_level & miss[pair_lhs]].sum())
                if matched / usable_rows < config.min_coverage:
                    continue
            if prefix:
                description = f"first {level} characters determine the RHS"
            else:
                description = f"the token at position {level} determines the RHS"
            return [
                VariableCandidate(
                    constrained_pattern=pattern,
                    coverage=coverage,
                    agreement=agreement,
                    n_blocks=n_blocks,
                    n_multi_blocks=n_multi,
                    description=description,
                )
            ]
        return []


def _block_stats(keys, counts) -> Tuple[float, int, int]:
    """(agreement, #blocks, #multi-row blocks) of a block tally.
    Agreement is the fraction of rows whose RHS value is the majority
    value of their block — the quantity the allowed-violation ratio
    bounds."""
    if not len(keys):
        return 0.0, 0, 0
    starts = _runs(keys >> 32)
    totals = np.add.reduceat(counts, starts)
    agreeing = int(np.maximum.reduceat(counts, starts).sum())
    return agreeing / int(totals.sum()), len(starts), int((totals >= 2).sum())


def _level_pattern(entries: LhsState, level: int, present) -> Verdicts:
    """The constrained pattern one variable level's usable values form
    (in code order), and for a constrained token the values it does not
    match (a prefix pattern matches its values by construction)."""
    lhs = entries.encoding
    codes = np.flatnonzero(present & (entries.block_codes(level) >= 0))
    if entries.mode in ("prefix", "ngram"):
        remainder = generalize(lhs.shapes(), codes, start=level)
        if remainder is None:
            remainder = Pattern.any_string()
        head = generalize(lhs.shapes(), codes, stop=level)
        return constrained_prefix(level, remainder, head=head), frozenset()
    values = [lhs.distinct[code] for code in codes.tolist()]
    words = [value.split() for value in values]
    pattern = token_constraint_pattern(words, level)
    matches = MATCH_MEMO.matcher(pattern)
    return pattern, frozenset(
        value for value, split in zip(values, words) if not matches(" ".join(split))
    )
