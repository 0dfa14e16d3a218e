"""Batch pattern matching over distinct values.

Evaluates one compiled pattern against a whole list of distinct values
in a single pass:

1. memoized verdicts are read from the pattern's
   :class:`~repro.perf.memo.MatchMemo` table (the same table every
   scalar ``matches`` call uses, so the two paths share work);
2. unknown values go through a *sound* prefilter — length bounds,
   literal prefix, and the char-class signature mask — vectorized with
   numpy when the batch is large enough to amortize array construction;
3. only the survivors run the regex/NFA matcher, and their verdicts are
   written back to the memo table.

Every prefilter rejection is provably a non-match (a matching string
must satisfy the pattern's min/max length, start with its literal
prefix, and use only characters whose classes some atom can consume),
so the returned verdicts are exactly ``[pattern.matches(v) for v in
values]``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence

from repro.kernels.encoder import ALL_CLASS_BITS, CLASS_BITS
from repro.kernels.runtime import np
from repro.patterns.alphabet import CharClass, classify_char
from repro.patterns.pattern import Pattern
from repro.patterns.syntax import ClassAtom, Literal
from repro.perf.memo import MatchMemo

_MISS = object()

#: below this many unknown values the numpy prefilter costs more than a
#: plain loop (array construction dominates)
_VECTOR_THRESHOLD = 64


@lru_cache(maxsize=4096)
def pattern_class_mask(pattern: Pattern) -> int:
    """The union of char-class bits the pattern's atoms can consume.

    A value whose signature (see
    :meth:`repro.kernels.encoder.ColumnEncoding.signatures`) sets a bit
    outside this mask contains a character no atom can match.  Patterns
    mentioning ``\\A`` allow everything.
    """
    mask = 0
    for element in pattern.elements:
        atom = element.atom
        if isinstance(atom, Literal):
            mask |= CLASS_BITS[classify_char(atom.char)]
        elif isinstance(atom, ClassAtom):
            if atom.char_class is CharClass.ANY:
                return ALL_CLASS_BITS
            mask |= CLASS_BITS[atom.char_class]
        else:  # unknown atom kind: no filtering claim possible
            return ALL_CLASS_BITS
    return mask


def batch_verdicts(
    pattern: Pattern,
    values: Sequence[str],
    memo: Optional[MatchMemo] = None,
    lengths=None,
    signatures=None,
) -> List[bool]:
    """``[pattern.matches(v) for v in values]`` in one pass.

    ``lengths`` and ``signatures`` optionally carry precomputed arrays
    aligned with ``values`` (the mining kernels pass slices of the
    column encoding); otherwise lengths are computed on the fly and the
    signature prefilter is skipped.
    """
    n = len(values)
    verdicts: List[bool] = [False] * n
    table = memo.match_table(pattern) if memo is not None else None
    if table is not None:
        unknown = []
        append = unknown.append
        get = table.get
        for i, value in enumerate(values):
            cached = get(value, _MISS)
            if cached is _MISS:
                append(i)
            else:
                verdicts[i] = cached
        memo.count_batch(hits=n - len(unknown), misses=len(unknown))
    else:
        unknown = list(range(n))
    if not unknown:
        return verdicts

    min_length = pattern.min_length()
    max_length = pattern.max_length()
    prefix = pattern.literal_prefix()
    mask = pattern_class_mask(pattern)
    compute = pattern.matches

    survivors = unknown
    if np is not None and len(unknown) >= _VECTOR_THRESHOLD:
        idx = np.asarray(unknown, dtype=np.int64)
        if lengths is not None:
            value_lengths = np.asarray(lengths)[idx]
        else:
            value_lengths = np.fromiter(
                (len(values[i]) for i in unknown),
                dtype=np.int64,
                count=len(unknown),
            )
        keep = value_lengths >= min_length
        if max_length is not None:
            keep &= value_lengths <= max_length
        if signatures is not None and mask != ALL_CLASS_BITS:
            keep &= (np.asarray(signatures)[idx] & ~np.uint8(mask)) == 0
        survivors = idx[keep].tolist()
        if table is not None:
            for i in idx[~keep].tolist():
                table[values[i]] = False
        for i in survivors:
            value = values[i]
            if prefix and not value.startswith(prefix):
                verdict = False
            else:
                verdict = compute(value)
            verdicts[i] = verdict
            if table is not None:
                table[value] = verdict
        return verdicts

    for i in survivors:
        value = values[i]
        length = len(value)
        if (
            length < min_length
            or (max_length is not None and length > max_length)
            or (prefix and not value.startswith(prefix))
        ):
            verdict = False
        else:
            verdict = compute(value)
        verdicts[i] = verdict
        if table is not None:
            table[value] = verdict
    return verdicts


def batch_matching_values(
    pattern: Pattern,
    values: Sequence[str],
    memo: Optional[MatchMemo] = None,
) -> List[str]:
    """The subsequence of ``values`` matching ``pattern`` (one batch
    pass; order preserved)."""
    verdicts = batch_verdicts(pattern, values, memo=memo)
    return [value for value, verdict in zip(values, verdicts) if verdict]
