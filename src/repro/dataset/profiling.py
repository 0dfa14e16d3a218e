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
from typing import Dict, List, Sequence

from repro.dataset.inference import infer_column_type_from_counts
from repro.dataset.schema import DataType
from repro.dataset.table import Table
from repro.kernels.encoder import ColumnEncoding, encode_column
from repro.patterns.generalize import PatternHistogram, generalize_string
from repro.patterns.tokenizer import cached_tokenize


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

    def dominant_value_patterns(self, min_ratio: float = 0.05) -> List[PatternStat]:
        """Whole-value patterns covering at least ``min_ratio`` of rows."""
        return [p for p in self.value_patterns if p.ratio >= min_ratio]


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

    def pfd_candidate_columns(
        self,
        max_distinct_ratio: float = 0.98,
        exclude_numeric: bool = True,
    ) -> List[str]:
        """Columns on which PFDs may be discovered (Figure 2, line 1).

        Numeric measure columns and columns where essentially every value
        is distinct *and* unstructured carry no usable dependency signal
        and are pruned.  Structured identifier columns (zip codes, phone
        numbers) survive because their pattern histogram is concentrated
        even though their values are distinct.
        """
        candidates = []
        for profile in self.columns.values():
            if exclude_numeric and profile.is_numeric and not _looks_like_code(profile):
                continue
            if profile.n_values == profile.n_empty:
                continue
            if profile.distinct_ratio >= max_distinct_ratio and not _looks_like_code(profile):
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


def profile_encoding(
    name: str, encoding: ColumnEncoding, max_patterns: int = 25
) -> ColumnProfile:
    """Profile one column from its :class:`~repro.kernels.encoder.ColumnEncoding`.

    Everything a profile reports is a function of the first-seen-ordered
    distinct values and their counts, which is exactly what an encoding
    holds (``distinct`` plus ``counts()``), so no row is visited: all
    per-value work (tokenization, generalization) runs once per
    distinct value, weighted by its count.
    """
    value_counts: Dict[str, int] = dict(
        zip(encoding.distinct, encoding.counts().tolist())
    )
    n_values = encoding.n_rows
    n_empty = value_counts.pop("", 0)
    n_non_empty = n_values - n_empty
    if n_non_empty:
        min_length = min(len(v) for v in value_counts)
        max_length = max(len(v) for v in value_counts)
        avg_length = (
            sum(len(v) * count for v, count in value_counts.items()) / n_non_empty
        )
    else:
        min_length = max_length = 0
        avg_length = 0.0

    tokens_by_value = {value: cached_tokenize(value) for value in value_counts}
    avg_tokens = (
        sum(len(tokens_by_value[v]) * count for v, count in value_counts.items())
        / n_non_empty
        if n_non_empty
        else 0.0
    )

    histogram = PatternHistogram.from_counts(value_counts, level=1)
    signature_histogram = PatternHistogram.from_counts(value_counts, level=2)
    signature_entries = signature_histogram.entries()
    dominant_signature_ratio = (
        signature_entries[0].count / max(1, signature_histogram.total)
        if signature_entries
        else 0.0
    )
    value_patterns = [
        PatternStat(
            pattern_text=entry.text,
            position=0,
            frequency=entry.count,
            ratio=entry.count / max(1, histogram.total),
            examples=list(entry.examples),
        )
        for entry in histogram.entries()[:max_patterns]
    ]

    token_stats: Dict[tuple, int] = {}
    token_examples: Dict[tuple, List[str]] = {}
    for value, occurrences in value_counts.items():
        for token in tokens_by_value[value]:
            key = (generalize_string(token.normalized or token.text, level=1).to_text(), token.position)
            token_stats[key] = token_stats.get(key, 0) + occurrences
            examples = token_examples.setdefault(key, [])
            if len(examples) < 3 and token.text not in examples:
                examples.append(token.text)
    token_patterns = [
        PatternStat(
            pattern_text=text,
            position=position,
            frequency=count,
            ratio=count / max(1, n_non_empty),
            examples=token_examples[(text, position)],
        )
        for (text, position), count in sorted(
            token_stats.items(), key=lambda kv: (-kv[1], kv[0])
        )[:max_patterns]
    ]

    return ColumnProfile(
        name=name,
        dtype=infer_column_type_from_counts(value_counts),
        n_values=n_values,
        n_distinct=len(value_counts) + (1 if n_empty else 0),
        n_empty=n_empty,
        min_length=min_length,
        max_length=max_length,
        avg_length=avg_length,
        avg_tokens=avg_tokens,
        value_patterns=value_patterns,
        token_patterns=token_patterns,
        dominant_signature_ratio=dominant_signature_ratio,
    )


def profile_column(name: str, values: Sequence[str], max_patterns: int = 25) -> ColumnProfile:
    """Profile a single column of string values (encoded once, then
    profiled from the encoding)."""
    return profile_encoding(name, encode_column(values), max_patterns=max_patterns)


def profile_table(table: Table, max_patterns: int = 25) -> TableProfile:
    """Profile every column of a table."""
    columns = {
        name: profile_column(name, table.column_ref(name), max_patterns=max_patterns)
        for name in table.column_names()
    }
    return TableProfile(n_rows=table.n_rows, columns=columns)


def profile_sharded(sharded, max_patterns: int = 25) -> TableProfile:
    """Profile a sharded table from its table-wide column encodings.

    ``sharded`` is anything with ``column_names()``, ``n_rows`` and
    ``column_encodings(names)`` (a :class:`~repro.sharding.ShardedTable`;
    duck-typed to keep this layer free of a sharding import).  The
    encodings are built in one shard-major pass — one resident shard at
    a time on a spill/object store — and stay cached on the table, so
    the discovery that follows mines them without reading a shard
    again.  The output is identical to :func:`profile_table` over the
    materialized table.
    """
    names = sharded.column_names()
    encodings = sharded.column_encodings(names)
    return TableProfile(
        n_rows=sharded.n_rows,
        columns={
            name: profile_encoding(name, encodings[name], max_patterns=max_patterns)
            for name in names
        },
    )
