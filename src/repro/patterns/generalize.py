"""Learning patterns from data values.

The discovery algorithm never enumerates the full pattern space.  It
works upward from concrete values using the generalization tree: each
character is replaced by its class, consecutive equal classes collapse
into quantified runs, and runs learned from several values merge their
repetition counts.  The runs come from a shape table
(:class:`repro.kernels.encoder.ShapeTable`, one per column encoding or
list of distinct strings), so every operation here reads numpy arrays
and builds one :class:`Pattern` per result, never one per value:

* :func:`generalize` — the one generalizer: the least-general pattern
  covering ``value[start:stop]`` over a set of codes;
* :func:`shape_patterns` — every code's shape at one level of the
  lattice, with one pattern per shape;
* :class:`PatternHistogram` — the per-column shape counts behind the
  profiling view (Figure 3 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.kernels.runtime import np
from repro.patterns.alphabet import LEAF_CLASSES
from repro.patterns.pattern import Pattern
from repro.patterns.syntax import ClassAtom, Element, ONE, PLUS, Quantifier

#: one atom per class id of a shape table
_ATOMS = tuple(ClassAtom(char_class) for char_class in LEAF_CLASSES)


def _quantifier(low: int, high: int) -> Quantifier:
    if low == high:
        return ONE if low == 1 else Quantifier(low, low)
    return Quantifier(low, high)


def generalize(shapes, codes, start: int = 0, stop: Optional[int] = None) -> Optional[Pattern]:
    """Least-general pattern (within the run lattice) covering
    ``shapes.values[c][start:stop]`` for every code ``c`` in ``codes``.

    The slices' runs are the values' runs cut at ``start`` and ``stop``
    (a cut keeps a run's class; runs cut to nothing drop out).  When all
    slices have the same run classes, each run becomes its class
    quantified by the least and greatest length seen, e.g. ``90001``,
    ``606`` → ``\\D{3,5}``; all-empty slices give the empty pattern.
    ``None`` when ``codes`` is empty or the run classes differ.  The
    result depends on the set of codes only.
    """
    codes = np.asarray(codes, dtype=np.int64)
    if not len(codes):
        return None
    whole = start <= 0 and stop is None
    if whole and (shapes.signatures[codes] != shapes.signatures[codes[0]]).any():
        return None
    offsets = shapes.offsets
    first = offsets[codes]
    sizes = offsets[codes + 1] - first
    ends = np.cumsum(sizes)
    runs = np.arange(int(ends[-1])) + np.repeat(first - (ends - sizes), sizes)
    classes = shapes.run_classes[runs]
    lengths = shapes.run_lengths[runs].astype(np.int64)
    if not whole:
        # each run's [begin, end) within its value, clipped to the slice
        total = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=total[1:])
        begin = total[:-1] - np.repeat(total[ends - sizes], sizes)
        end = begin + lengths
        if stop is not None:
            np.minimum(end, stop, out=end)
        lengths = end - np.maximum(begin, start)
        kept = lengths > 0
        classes, lengths = classes[kept], lengths[kept]
        sizes = np.bincount(np.repeat(np.arange(len(codes)), sizes)[kept], minlength=len(codes))
        if (sizes != sizes[0]).any():
            return None
    width = int(sizes[0])
    if width == 0:
        return Pattern([])
    classes = classes.reshape(-1, width)
    if not whole and (classes != classes[0]).any():
        return None
    lengths = lengths.reshape(-1, width)
    return Pattern(
        Element(_ATOMS[class_id], _quantifier(low, high))
        for class_id, low, high in zip(
            classes[0].tolist(), lengths.min(axis=0).tolist(), lengths.max(axis=0).tolist()
        )
    )


def shape_pattern(shapes, code: int, level: int) -> Pattern:
    """One code's pattern at a level of the generalization lattice:

    * 0 — the literal value itself (most specific);
    * 1 — class runs with exact repetition counts, e.g. ``90001`` →
      ``\\D{5}`` and ``John`` → ``\\LU\\LL{3}``;
    * 2 — class runs with ``+`` quantifiers, e.g. ``\\LU\\LL+``;
    * 3 — the most general pattern ``\\A*``.
    """
    if level <= 0:
        return Pattern.literal(shapes.values[code])
    if level >= 3:
        return Pattern.any_string()
    runs = slice(shapes.offsets[code], shapes.offsets[code + 1])
    return Pattern(
        Element(_ATOMS[class_id], _quantifier(length, length) if level == 1 else PLUS)
        for class_id, length in zip(
            shapes.run_classes[runs].tolist(), shapes.run_lengths[runs].tolist()
        )
    )


def shape_patterns(shapes, level: int = 1):
    """Every code's shape id at one level (see
    :meth:`~repro.kernels.encoder.ShapeTable.shape_ids`) and the
    pattern of each shape id (:func:`shape_pattern` of its first code)."""
    ids = shapes.shape_ids(level)
    _ids, first = np.unique(ids, return_index=True)
    return ids, [shape_pattern(shapes, code, level) for code in first.tolist()]


@dataclass
class PatternCount:
    """One row of a pattern histogram."""

    pattern: Pattern
    count: int
    examples: List[str]

    @property
    def text(self) -> str:
        return self.pattern.to_text()


#: Example values kept per histogram row.
_MAX_EXAMPLES = 3


class PatternHistogram:
    """Distribution of generalized patterns over a column.

    This is the data behind the "Profiling and Listing the Patterns in
    the Data" screen (Figure 3): every value is generalized to its
    level-``level`` pattern and the histogram counts how many values
    share each pattern.  ``counts[c]`` is the number of values equal to
    ``shapes.values[c]``; codes with count 0 take no part.  The shapes
    are counted with one ``np.unique`` over the codes' shape ids, and
    each row's examples are its shape's first codes.
    """

    def __init__(self, shapes, counts, level: int = 1):
        counts = np.asarray(counts, dtype=np.int64)
        present = np.flatnonzero(counts > 0)
        ids = shapes.shape_ids(level)[present]
        unique, inverse = np.unique(ids, return_inverse=True)
        inverse = inverse.reshape(-1)
        totals = np.bincount(inverse, weights=counts[present], minlength=len(unique))
        # codes grouped by shape, each group in code order
        order = present[np.argsort(inverse, kind="stable")]
        bounds = np.searchsorted(np.sort(inverse), np.arange(len(unique) + 1))
        self._entries = []
        for total, begin, end in zip(totals.tolist(), bounds[:-1].tolist(), bounds[1:].tolist()):
            examples = order[begin:end][:_MAX_EXAMPLES].tolist()
            self._entries.append(
                PatternCount(
                    shape_pattern(shapes, examples[0], level),
                    int(total),
                    [shapes.values[code] for code in examples],
                )
            )
        self._total = int(counts[present].sum())
        self.level = level

    @property
    def total(self) -> int:
        """Number of values profiled."""
        return self._total

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> List[PatternCount]:
        """Histogram rows, most frequent first."""
        return sorted(self._entries, key=lambda e: (-e.count, e.text))
