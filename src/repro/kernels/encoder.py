"""Columnar distinct-value encoding.

One pass factorizes a column into contiguous ``int32`` codes assigned in
first-appearance order — the same order every scalar dict in the
pipeline uses for insertion, which is what lets the kernels reproduce
scalar dict orders exactly.  Everything derived from the codes is lazy:

* ``counts`` — the number of rows per distinct value;
* ``lengths`` — ``len()`` per distinct value, vectorized consumers index
  it by code;
* ``signatures`` — a uint8 char-class bitmask per distinct value, the
  sound prefilter of the batch matcher (a value whose signature sets a
  bit outside a pattern's allowed mask cannot match it).

An encoding is also a column's profile input (its distinct values and
counts) and the edit loop's maintained state: :meth:`ColumnEncoding.with_cells`
patches a few cells into an equal-to-fresh encoding without re-reading
the column, and returns the code renumbering the mining state is
patched through.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Sequence

from repro.kernels.runtime import np
from repro.patterns.alphabet import CharClass, classify_char

#: one bit per leaf class of the generalization tree (``\A`` = all bits)
CLASS_BITS: Dict[CharClass, int] = {
    CharClass.UPPER: 1,
    CharClass.LOWER: 2,
    CharClass.DIGIT: 4,
    CharClass.SYMBOL: 8,
}

#: the mask with every class bit set (what ``\A`` allows)
ALL_CLASS_BITS = 0xF


def signature_bits(value: str) -> int:
    """The char-class bitmask of one value (0 for the empty string)."""
    bits = 0
    for char in set(value):
        bits |= CLASS_BITS[classify_char(char)]
    return bits


class ColumnEncoding:
    """One column factorized into distinct values and int32 codes."""

    __slots__ = ("distinct", "codes", "_counts", "_lengths", "_signatures")

    def __init__(self, distinct: List[str], codes) -> None:
        #: distinct values in first-appearance order; ``distinct[codes[i]]``
        #: is row ``i``'s value
        self.distinct = distinct
        #: int32 numpy array, one code per row
        self.codes = codes
        self._counts = None
        self._lengths = None
        self._signatures = None

    @property
    def n_rows(self) -> int:
        return len(self.codes)

    @property
    def n_distinct(self) -> int:
        return len(self.distinct)

    def counts(self):
        """int64 array: number of rows per code."""
        counts = self._counts
        if counts is None:
            counts = self._counts = np.bincount(
                self.codes, minlength=len(self.distinct)
            )
        return counts

    def with_cells(self, rows: Sequence[int], values: Sequence[str]):
        """A new encoding of this column with ``values[i]`` written at
        row ``rows[i]`` (a later write to the same row wins), and the
        renumbering from this encoding's codes to its codes.

        New values are appended as distinct values, then one
        ``np.unique(codes, return_index=True)`` renumbers the codes to
        first-appearance order — so a value that lost its last row
        disappears, and a write that moves a value's first appearance
        reorders it — and the result equals :func:`encode_column` over
        the edited values.  ``renumber[c]`` is the new code of code
        ``c``, ``-1`` for a value no row holds any more; the codes from
        ``n_distinct`` on are the values the writes added, in write
        order.  This encoding is left unchanged.
        """
        cells = dict(zip(map(int, rows), values))
        distinct = list(self.distinct)
        index = dict(zip(distinct, range(len(distinct))))
        written = []
        for value in cells.values():
            code = index.get(value)
            if code is None:
                code = index[value] = len(distinct)
                distinct.append(value)
            written.append(code)
        codes = self.codes.copy()
        codes[np.fromiter(cells, dtype=np.int64, count=len(cells))] = written
        present, first = np.unique(codes, return_index=True)
        present = present[np.argsort(first)]
        renumber = np.full(len(distinct), -1, dtype=np.int32)
        renumber[present] = np.arange(len(present), dtype=np.int32)
        encoding = ColumnEncoding(
            [distinct[code] for code in present.tolist()], renumber[codes]
        )
        return encoding, renumber

    def release_derived(self) -> None:
        """Forget the lazy per-code arrays (each rebuilds on its next
        use); the distinct values and codes stay."""
        self._counts = self._lengths = self._signatures = None

    def lengths(self):
        """int32 array: ``len(distinct[code])`` per code."""
        lengths = self._lengths
        if lengths is None:
            lengths = self._lengths = np.fromiter(
                (len(value) for value in self.distinct),
                dtype=np.int32,
                count=len(self.distinct),
            )
        return lengths

    def signatures(self):
        """uint8 array: char-class bitmask per code (see CLASS_BITS)."""
        signatures = self._signatures
        if signatures is None:
            signatures = self._signatures = np.fromiter(
                (signature_bits(value) for value in self.distinct),
                dtype=np.uint8,
                count=len(self.distinct),
            )
        return signatures


def encode_column(values: Sequence[str]) -> ColumnEncoding:
    """Factorize one column (codes in first-appearance order)."""
    return encode_chunks((values,))


def encode_chunks(chunks) -> ColumnEncoding:
    """Factorize one logical column delivered as value sequences (e.g.
    one per resident shard), without concatenating them."""
    factorizer = _Factorizer()
    for values in chunks:
        factorizer.add(values)
    return factorizer.finish()


def encode_shards(shards, names: Sequence[str]) -> Dict[str, ColumnEncoding]:
    """Factorize several columns of one logical table in a single pass
    over its shards (anything with ``column_ref``), so a disk-backed
    store is read once per shard however many columns are encoded.
    Each encoding equals :func:`encode_chunks` over that column's
    chunks."""
    factorizers = {name: _Factorizer() for name in names}
    for shard in shards:
        for name, factorizer in factorizers.items():
            factorizer.add(shard.column_ref(name))
    return {name: factorizer.finish() for name, factorizer in factorizers.items()}


class _Factorizer:
    """First-appearance factorization of one column, fed chunk by chunk.

    Codes accumulate in a compact ``array('i')`` — on a large column the
    boxed-int list the obvious implementation builds would transiently
    rival the encoded output itself.  Per chunk, only the *distinct*
    values go through Python code: ``dict.fromkeys`` lists them in
    first-appearance order and the row codes are looked up at C speed.
    """

    __slots__ = ("index", "distinct", "codes")

    def __init__(self) -> None:
        self.index: Dict[str, int] = {}
        self.distinct: List[str] = []
        self.codes = array("i")

    def add(self, values) -> None:
        index, distinct = self.index, self.distinct
        for value in dict.fromkeys(values):
            if value not in index:
                index[value] = len(distinct)
                distinct.append(value)
        self.codes.extend(map(index.__getitem__, values))

    def finish(self) -> ColumnEncoding:
        return ColumnEncoding(
            self.distinct, np.frombuffer(self.codes, dtype=np.int32).copy()
        )
