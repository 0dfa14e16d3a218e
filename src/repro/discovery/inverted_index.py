"""The hash-based inverted list of the discovery algorithm.

Figure 2, line 8: for every tuple ``t`` and every token (or n-gram) ``s``
of ``t[A]``, the algorithm inserts a key-value pair into an inverted list
``H`` where the key is ``s`` and the value records the tuple id, the
position of ``s`` in ``t[A]``, and the RHS information.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.patterns.tokenizer import Token, iter_token_modes
from repro.perf.interning import InternPool


class Posting(NamedTuple):
    """One inverted-list entry value (the triple of Figure 2, line 8,
    extended with the full RHS value which the decision function needs).

    A named tuple rather than a dataclass: hundreds of thousands are
    created per discovery run, and tuple construction is several times
    cheaper than frozen-dataclass ``__init__``.
    """

    tuple_id: int
    lhs_position: int
    lhs_token: str
    rhs_value: str
    rhs_token: str = ""
    rhs_position: int = 0


@dataclass
class InvertedEntry:
    """All postings sharing one key.

    Derived statistics (``support``, ``tuple_ids``, ``rhs_distribution``,
    ``rhs_of``) are computed once and cached — the decision function
    consults them repeatedly per entry, and they previously rebuilt sets
    on every call.  The cached collections are shared: callers must not
    mutate them (and must not mutate ``postings`` after the first
    statistic is read).
    """

    key: Tuple[str, int]
    postings: List[Posting]

    def __post_init__(self) -> None:
        self._rhs_by_tuple: Optional[Dict[int, str]] = None
        self._tuple_ids: Optional[List[int]] = None
        self._distribution: Optional[Dict[str, int]] = None

    @property
    def token(self) -> str:
        return self.key[0]

    @property
    def position(self) -> int:
        return self.key[1]

    def rhs_map(self) -> Dict[int, str]:
        """tuple id → RHS value (cached; callers must not mutate)."""
        return self._rhs_map()

    def _rhs_map(self) -> Dict[int, str]:
        """tuple id → RHS value (first posting wins, as in the scan)."""
        rhs_by_tuple = self._rhs_by_tuple
        if rhs_by_tuple is None:
            rhs_by_tuple = {}
            for posting in self.postings:
                if posting.tuple_id not in rhs_by_tuple:
                    rhs_by_tuple[posting.tuple_id] = posting.rhs_value
            self._rhs_by_tuple = rhs_by_tuple
        return rhs_by_tuple

    @property
    def support(self) -> int:
        """Number of distinct tuples behind this entry."""
        return len(self._rhs_map())

    def tuple_ids(self) -> List[int]:
        ids = self._tuple_ids
        if ids is None:
            ids = self._tuple_ids = sorted(self._rhs_map())
        return ids

    def rhs_of(self, tuple_id: int) -> str:
        """The RHS value recorded for one supporting tuple ('' if absent)."""
        return self._rhs_map().get(tuple_id, "")

    def rhs_distribution(self) -> Dict[str, int]:
        """RHS value → number of distinct tuples carrying it."""
        distribution = self._distribution
        if distribution is None:
            distribution = {}
            for rhs_value in self._rhs_map().values():
                distribution[rhs_value] = distribution.get(rhs_value, 0) + 1
            self._distribution = distribution
        return distribution

    def top_rhs(self) -> Tuple[str, int]:
        """The most frequent RHS value and its tuple count."""
        distribution = self.rhs_distribution()
        value = max(distribution, key=lambda v: (distribution[v], v))
        return value, distribution[value]


class ColumnTokenization:
    """One column's tokens under one extraction mode, in a single pass.

    The Figure 2 loop tokenizes ``t[A]`` once per (LHS, RHS) candidate
    pair; a wide table re-tokenizes the same LHS column dozens of times.
    This class extracts every row's (key, position, text) triples exactly
    once so :meth:`InvertedList.from_tokenization` can assemble the
    postings of *every* candidate sharing the LHS from the same pass.
    Token strings are interned through a pool scoped to the extraction
    (pass one explicitly to widen the scope) so equal tokens across rows
    — and across every candidate reusing this tokenization — are one
    object, without pinning tokens for the process lifetime.
    """

    __slots__ = ("mode", "ngram_size", "row_tokens")

    def __init__(self, mode: str, ngram_size: int, row_tokens: List[Tuple[Tuple[str, int, str], ...]]):
        self.mode = mode
        self.ngram_size = ngram_size
        #: per row: ((key, position, raw token text), …); empty for empty values
        self.row_tokens = row_tokens

    @classmethod
    def extract(
        cls,
        values: Sequence[str],
        mode: str,
        ngram_size: int = 3,
        pool: Optional[InternPool] = None,
    ) -> "ColumnTokenization":
        """Tokenize a whole column once (memoized per distinct value)."""
        pool = InternPool() if pool is None else pool
        by_value: Dict[str, Tuple[Tuple[str, int, str], ...]] = {}
        row_tokens: List[Tuple[Tuple[str, int, str], ...]] = []
        for value in values:
            if value == "":
                row_tokens.append(())
                continue
            triples = by_value.get(value)
            if triples is None:
                triples = tuple(
                    (pool.intern(token.normalized or token.text), token.position, pool.intern(token.text))
                    for token in iter_token_modes(value, mode, ngram_size)
                    if (token.normalized or token.text)
                )
                by_value[value] = triples
            row_tokens.append(triples)
        return cls(mode, ngram_size, row_tokens)

    def __len__(self) -> int:
        return len(self.row_tokens)


class InvertedList:
    """Token/n-gram → postings map, keyed by (token text, position).

    Keying by position as well as text mirrors the GUI display
    ("pattern::position, frequency") and keeps tokens that happen to
    occur at different positions (e.g. a first name also used as a last
    name) in separate groups.
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple[str, int], List[Posting]] = {}

    def insert(self, key_token: str, posting: Posting, position: Optional[int] = None) -> None:
        """Insert one posting under (token, position)."""
        position = posting.lhs_position if position is None else position
        self._entries.setdefault((key_token, position), []).append(posting)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple[str, int]) -> bool:
        return key in self._entries

    def entry(self, token: str, position: int) -> InvertedEntry:
        # The postings list is handed over by reference; entries cache
        # derived statistics, so callers must not mutate it.
        return InvertedEntry((token, position), self._entries[(token, position)])

    def entries(self, min_support: int = 1) -> Iterator[InvertedEntry]:
        """Iterate over entries with at least ``min_support`` tuples."""
        for key, postings in self._entries.items():
            entry = InvertedEntry(key, postings)
            if entry.support >= min_support:
                yield entry

    @classmethod
    def build(
        cls,
        lhs_values: Sequence[str],
        rhs_values: Sequence[str],
        mode: str,
        ngram_size: int = 3,
        tokenize_rhs: bool = False,
    ) -> "InvertedList":
        """Populate the inverted list for one candidate dependency.

        ``tokenize_rhs`` mirrors the nested loop of Figure 2 line 7;
        the default records the full RHS value once per LHS token, which
        is what the decision function consumes.
        """
        if not tokenize_rhs:
            tokenization = ColumnTokenization.extract(lhs_values, mode, ngram_size)
            return cls.from_tokenization(tokenization, rhs_values)
        index = cls()
        for tuple_id, (lhs_value, rhs_value) in enumerate(zip(lhs_values, rhs_values)):
            if lhs_value == "":
                continue
            for token in iter_token_modes(lhs_value, mode, ngram_size):
                key = token.normalized or token.text
                if not key:
                    continue
                for rhs_token in iter_token_modes(rhs_value, "token"):
                    index.insert(
                        key,
                        Posting(
                            tuple_id=tuple_id,
                            lhs_position=token.position,
                            lhs_token=token.text,
                            rhs_value=rhs_value,
                            rhs_token=rhs_token.text,
                            rhs_position=rhs_token.position,
                        ),
                    )
        return index

    @classmethod
    def from_tokenization(
        cls, tokenization: ColumnTokenization, rhs_values: Sequence[str]
    ) -> "InvertedList":
        """Assemble postings for one RHS from a prebuilt LHS tokenization.

        This is the single-pass columnar build: the expensive token
        extraction ran once (in :meth:`ColumnTokenization.extract`) and
        every candidate dependency sharing the LHS column reuses it,
        attaching only its own RHS values here.
        """
        index = cls()
        entries = index._entries
        for tuple_id, (triples, rhs_value) in enumerate(
            zip(tokenization.row_tokens, rhs_values)
        ):
            for key, position, text in triples:
                postings = entries.get((key, position))
                if postings is None:
                    postings = entries[(key, position)] = []
                postings.append(
                    Posting(
                        tuple_id=tuple_id,
                        lhs_position=position,
                        lhs_token=text,
                        rhs_value=rhs_value,
                    )
                )
        return index
