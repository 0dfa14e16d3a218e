"""Column and table profiling (the backend of Figure 3).

Profiling serves two purposes in ANMAT: it shows the user the dominant
syntactic patterns in every column, and it feeds the candidate-dependency
pruning step of the discovery algorithm ("we drop all columns with pure
numerical values", low-cardinality checks, …).

Every profile is built from a column's
:class:`~repro.kernels.encoder.ColumnEncoding` (:func:`profile_encoding`):
a profile is a pure function of the first-seen distinct values and
their counts, which is what an encoding holds.  A plain column is
encoded first (:func:`profile_column`); a sharded table is profiled from
the table-wide encodings its discovery mines (:func:`profile_sharded`),
and a re-check profiles a changed column from its patched encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Dict, List, Sequence

from repro.dataset.inference import infer_column_type
from repro.dataset.schema import DataType
from repro.dataset.table import Table
from repro.kernels.encoder import ColumnEncoding, ShapeTable, encode_column
from repro.kernels.runtime import np
from repro.kernels.tokenize import split_words
from repro.patterns.generalize import PatternHistogram, shape_patterns

#: Whole-value and token patterns kept per column profile, most frequent first.
_MAX_PATTERNS = 25
#: Distinct ratio at or above which an unstructured column is no PFD candidate.
_MAX_DISTINCT_RATIO = 0.98


@dataclass
class PatternStat:
    """One profiled pattern of a column, as shown in the Figure 3 list.

    The GUI renders these as ``pattern::position, frequency``; position
    is always 0 for whole-value patterns and is the token index for
    token-level patterns.
    """

    pattern_text: str
    position: int
    frequency: int
    ratio: float
    examples: List[str] = field(default_factory=list)

    def render(self) -> str:
        """The exact display format used by the demo GUI."""
        return f"{self.pattern_text}::{self.position}, {self.frequency}"


@dataclass
class ColumnProfile:
    """Summary statistics and pattern statistics for one column."""

    name: str
    dtype: DataType
    n_values: int
    n_distinct: int
    n_empty: int
    min_length: int
    max_length: int
    avg_length: float
    avg_tokens: float
    value_patterns: List[PatternStat]
    token_patterns: List[PatternStat]
    #: share of non-empty values covered by the most common level-2
    #: (class-run) generalization — high for structured codes, low for
    #: free text
    dominant_signature_ratio: float = 0.0

    @property
    def distinct_ratio(self) -> float:
        """Distinct non-empty values as a fraction of non-empty values."""
        non_empty = self.n_values - self.n_empty
        if non_empty == 0:
            return 0.0
        distinct_non_empty = self.n_distinct - (1 if self.n_empty > 0 else 0)
        return distinct_non_empty / non_empty

    @property
    def is_numeric(self) -> bool:
        """Whether the column holds pure numeric measures."""
        return self.dtype.is_numeric

    @property
    def is_single_token(self) -> bool:
        """Whether values are (almost always) a single token — the case
        where the paper switches from token mode to n-gram mode."""
        return self.avg_tokens <= 1.05


@dataclass
class TableProfile:
    """Profiles for every column of a table."""

    n_rows: int
    columns: Dict[str, ColumnProfile]

    def __getitem__(self, name: str) -> ColumnProfile:
        return self.columns[name]

    def __iter__(self):
        return iter(self.columns.values())

    def column_names(self) -> List[str]:
        return list(self.columns.keys())

    def pfd_candidate_columns(self) -> List[str]:
        """Columns on which PFDs may be discovered (Figure 2, line 1).

        Numeric measure columns and columns where essentially every value
        is distinct *and* unstructured carry no usable dependency signal
        and are pruned.  Structured identifier columns (zip codes, phone
        numbers) survive because their pattern histogram is concentrated
        even though their values are distinct.
        """
        candidates = []
        for profile in self.columns.values():
            if profile.is_numeric and not _looks_like_code(profile):
                continue
            if profile.n_values == profile.n_empty:
                continue
            if profile.distinct_ratio >= _MAX_DISTINCT_RATIO and not _looks_like_code(profile):
                continue
            candidates.append(profile.name)
        return candidates


def _looks_like_code(profile: ColumnProfile) -> bool:
    """Heuristic: the column is a structured code/identifier.

    Such columns are kept as candidate LHS attributes even when they are
    numeric (zip codes, phone numbers) or key-like (employee ids, ChEMBL
    ids).  Pure numeric *measures* are told apart from numeric codes by
    width: codes have a fixed width (every zip is five digits), measures
    do not.  Non-numeric columns count as codes when a single class-run
    shape dominates the column.
    """
    if not profile.value_patterns:
        return False
    if profile.is_numeric:
        top = profile.value_patterns[0]
        fixed_width = profile.min_length == profile.max_length
        return top.ratio >= 0.6 and fixed_width and profile.max_length <= 40
    return profile.dominant_signature_ratio >= 0.7 and profile.max_length <= 40


def profile_encoding(name: str, encoding: ColumnEncoding) -> ColumnProfile:
    """Profile one column from its :class:`~repro.kernels.encoder.ColumnEncoding`.

    Everything a profile reports is a function of the first-seen-ordered
    distinct values and their counts, which is exactly what an encoding
    holds (``distinct`` plus ``counts()``), so no row is visited: all
    per-value work runs once per distinct value, weighted by its count.
    Value patterns come from the encoding's shape table; token patterns
    from one :func:`~repro.kernels.tokenize.split_words` pass (the
    token mode's split, keys stripped as ``batch_tokenize`` strips them)
    and one shape table over the distinct token keys.
    """
    counts = encoding.counts()
    lengths = encoding.lengths()
    filled = lengths > 0
    n_values = encoding.n_rows
    n_non_empty = int(counts[filled].sum())
    n_empty = n_values - n_non_empty
    if n_non_empty:
        min_length = int(lengths[filled].min())
        max_length = int(lengths[filled].max())
        avg_length = int(lengths[filled] @ counts[filled]) / n_non_empty
    else:
        min_length = max_length = 0
        avg_length = 0.0
    weights = np.where(filled, counts, 0)
    shapes = encoding.shapes()

    histogram = PatternHistogram(shapes, weights, level=1)
    value_patterns = [
        PatternStat(
            pattern_text=entry.text,
            position=0,
            frequency=entry.count,
            ratio=entry.count / max(1, histogram.total),
            examples=list(entry.examples),
        )
        for entry in histogram.entries()[:_MAX_PATTERNS]
    ]
    # the share of the most common level-2 (class-run) shape
    dominant_signature_ratio = (
        int(np.bincount(shapes.signatures, weights=weights).max()) / n_non_empty
        if n_non_empty
        else 0.0
    )

    n_tokens, keys, texts = split_words(encoding.distinct)
    n_tokens = np.array(n_tokens, dtype=np.int64)
    avg_tokens = int(n_tokens @ counts) / n_non_empty if n_non_empty else 0.0
    token_patterns = _token_patterns(n_tokens, keys, texts, counts, n_non_empty)

    return ColumnProfile(
        name=name,
        dtype=infer_column_type(encoding.distinct),
        n_values=n_values,
        n_distinct=encoding.n_distinct,
        n_empty=n_empty,
        min_length=min_length,
        max_length=max_length,
        avg_length=avg_length,
        avg_tokens=avg_tokens,
        value_patterns=value_patterns,
        token_patterns=token_patterns,
        dominant_signature_ratio=dominant_signature_ratio,
    )


def _token_patterns(n_tokens, keys, texts, counts, n_non_empty: int) -> List[PatternStat]:
    """The ``pattern::position`` statistics of a column's tokens (per
    value its number of tokens, then every token's key and text): each
    key's level-1 pattern at its position, weighted by the count of the
    value carrying it, most frequent first.  The examples are a
    statistic's first distinct token texts in value order."""
    if not keys:
        return []
    # distinct keys and texts, numbered in order of first appearance
    key_ids = dict(zip(dict.fromkeys(keys), count()))
    text_ids = dict(zip(dict.fromkeys(texts), count()))
    key_shapes, patterns = shape_patterns(ShapeTable(list(key_ids)), level=1)
    shape = key_shapes[np.fromiter(map(key_ids.__getitem__, keys), np.int64, len(keys))]
    starts = np.repeat(np.cumsum(n_tokens) - n_tokens, n_tokens)
    position = np.arange(len(keys)) - starts
    width = int(position.max()) + 1
    stats, stat = np.unique(shape * width + position, return_inverse=True)
    stat = stat.reshape(-1)
    totals = np.bincount(stat, weights=np.repeat(counts, n_tokens), minlength=len(stats))
    top = sorted(
        (-int(total), patterns[key // width].to_text(), key % width, index)
        for index, (key, total) in enumerate(zip(stats.tolist(), totals.tolist()))
    )[:_MAX_PATTERNS]
    # each statistic's distinct texts, in order of first appearance
    text = np.fromiter(map(text_ids.__getitem__, texts), np.int64, len(texts))
    pairs, first = np.unique(stat * len(text_ids) + text, return_index=True)
    pairs = pairs[np.lexsort((first, pairs // len(text_ids)))]
    bounds = np.searchsorted(pairs // len(text_ids), np.arange(len(stats) + 1))
    distinct_texts = list(text_ids)
    return [
        PatternStat(
            pattern_text=pattern_text,
            position=at,
            frequency=-negated,
            ratio=-negated / max(1, n_non_empty),
            examples=[
                distinct_texts[pair % len(text_ids)]
                for pair in pairs[bounds[index] : bounds[index + 1]][:3].tolist()
            ],
        )
        for negated, pattern_text, at, index in top
    ]


def profile_column(name: str, values: Sequence[str]) -> ColumnProfile:
    """Profile a single column of string values (encoded once, then
    profiled from the encoding)."""
    return profile_encoding(name, encode_column(values))


def profile_table(table: Table) -> TableProfile:
    """Profile every column of a table."""
    columns = {
        name: profile_column(name, table.column_ref(name))
        for name in table.column_names()
    }
    return TableProfile(n_rows=table.n_rows, columns=columns)


def profile_sharded(sharded) -> TableProfile:
    """Profile a sharded table from its table-wide column encodings.

    ``sharded`` is anything with ``column_names()``, ``n_rows`` and
    ``column_encodings(names)`` (a :class:`~repro.sharding.ShardedTable`;
    duck-typed to keep this layer free of a sharding import).  The
    encodings are built in one shard-major pass — one resident shard at
    a time on a spill/object store — and stay on the table, so
    the discovery that follows mines them without reading a shard
    again.  The output is identical to :func:`profile_table` over the
    materialized table.
    """
    names = sharded.column_names()
    encodings = sharded.column_encodings(names)
    return TableProfile(
        n_rows=sharded.n_rows,
        columns={
            name: profile_encoding(name, encodings[name])
            for name in names
        },
    )
