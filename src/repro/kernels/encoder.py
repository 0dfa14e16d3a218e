"""Columnar distinct-value encoding.

One pass factorizes a column into contiguous ``int32`` codes assigned in
first-appearance order — the same order every scalar dict in the
pipeline uses for insertion, which is what lets the kernels reproduce
scalar dict orders exactly.  Everything derived from the codes is lazy:

* ``counts`` — the number of rows per distinct value;
* ``lengths`` — ``len()`` per distinct value, vectorized consumers index
  it by code;
* ``shapes`` — the :class:`ShapeTable` of the distinct values: every
  value's class runs in the generalization tree (Figure 1), a signature
  id per run-class sequence and a char-class bitmask, all numpy arrays
  built in one vectorized pass.  Profiling, mining and the outlier
  baseline read their patterns from it
  (:func:`repro.patterns.generalize.generalize`); ``signatures`` is its
  bitmask, the sound prefilter of the batch matcher (a value whose
  signature sets a bit outside a pattern's allowed mask cannot match it).

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
from repro.patterns.alphabet import LEAF_CLASSES, CharClass, classify_char

#: one bit per leaf class of the generalization tree (``\A`` = all bits)
CLASS_BITS: Dict[CharClass, int] = {
    char_class: 1 << class_id for class_id, char_class in enumerate(LEAF_CLASSES)
}

#: the mask with every class bit set (what ``\A`` allows)
ALL_CLASS_BITS = 0xF

_SYMBOL_ID = LEAF_CLASSES.index(CharClass.SYMBOL)

#: class id per ASCII code point, then one entry for every other code
#: point: :func:`classify_char` tests ASCII ranges only, so each
#: non-ASCII character (lone surrogates and non-BMP ones included) is ``\S``
_CLASS_IDS = np.array(
    [LEAF_CLASSES.index(classify_char(chr(point))) for point in range(128)] + [_SYMBOL_ID],
    dtype=np.uint8,
)


def _class_ids(text: str):
    """The class id of every character of ``text`` (uint8), from its
    code point."""
    if text.isascii():
        return _CLASS_IDS[np.frombuffer(text.encode("ascii"), dtype=np.uint8)]
    points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    return _CLASS_IDS[np.minimum(points, 128)]


def _sequence_ids(offsets, runs):
    """Per item ``i`` an id of its run sequence ``runs[offsets[i]:offsets[i
    + 1]]`` (an int array): equal ids if and only if the sequences are
    equal.  Ids are dense, numbered per run count (one ``np.lexsort``
    over the items of each run count)."""
    sizes = np.diff(offsets)
    ids = np.zeros(len(sizes), dtype=np.int64)
    next_id = 0
    for size in np.unique(sizes).tolist():
        members = np.flatnonzero(sizes == size)
        if size == 0:
            ids[members] = next_id
            next_id += 1
            continue
        rows = runs[offsets[members][:, None] + np.arange(size)]
        order = np.lexsort(rows.T[::-1])
        rows = rows[order]
        new = np.ones(len(rows), dtype=bool)
        new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        ids[members[order]] = next_id + np.cumsum(new) - 1
        next_id += int(new.sum())
    return ids


class ShapeTable:
    """The class runs of a list of distinct strings, in numpy arrays.

    Each character maps to its class in the generalization tree and
    equal neighbours collapse into one run, as the paper's level-1
    generalization does (``90001`` → one ``\\D`` run of 5).  For the
    string at index ``c`` (its *code*):

    * ``run_classes[offsets[c]:offsets[c + 1]]`` are its runs' class ids
      (``LEAF_CLASSES`` order) and ``run_lengths[…]`` their lengths;
    * ``signatures[c]`` numbers its run-class sequence: two codes share
      a signature id exactly when their runs have the same classes;
    * ``bits[c]`` ORs the class bits (:data:`CLASS_BITS`) of its
      characters, 0 for the empty string.

    It is built in one vectorized pass over the code points of the
    joined strings; only these O(runs) arrays are kept.
    """

    __slots__ = ("values", "offsets", "run_classes", "run_lengths", "signatures", "bits")

    def __init__(self, values: Sequence[str]):
        #: the strings, indexed by code
        self.values = values
        sizes = np.fromiter(map(len, values), dtype=np.int64, count=len(values))
        char_starts = np.zeros(len(values) + 1, dtype=np.int64)
        np.cumsum(sizes, out=char_starts[1:])
        classes = _class_ids("".join(values))
        # a run starts where the class changes or a string starts
        new_run = np.ones(len(classes), dtype=bool)
        np.not_equal(classes[1:], classes[:-1], out=new_run[1:])
        new_run[char_starts[:-1][sizes > 0]] = True
        run_starts = np.flatnonzero(new_run)
        del new_run
        self.run_classes = classes[run_starts]
        self.run_lengths = np.diff(np.r_[run_starts, len(classes)]).astype(np.int32)
        del classes
        self.offsets = np.searchsorted(run_starts, char_starts)
        self.signatures = _sequence_ids(self.offsets, self.run_classes)
        self.bits = np.zeros(len(values), dtype=np.uint8)
        filled = np.flatnonzero(sizes > 0)
        if len(filled):
            self.bits[filled] = np.bitwise_or.reduceat(
                np.left_shift(1, self.run_classes).astype(np.uint8),
                self.offsets[filled],
            )

    def shape_ids(self, level: int):
        """Per code, a dense id of its shape at one generalization level:
        the string itself at level 0 (the strings are distinct), its
        run classes and lengths at level 1, its run classes (its
        signature) at level 2, and one shape for all at level 3 and up."""
        if level <= 0:
            return np.arange(len(self.values))
        if level == 1:
            # one int per run: its length and class id
            runs = self.run_lengths.astype(np.int64) << 2 | self.run_classes
            return _sequence_ids(self.offsets, runs)
        if level == 2:
            return self.signatures
        return np.zeros(len(self.values), dtype=np.int64)


class ColumnEncoding:
    """One column factorized into distinct values and int32 codes."""

    __slots__ = ("distinct", "codes", "_counts", "_lengths", "_shapes")

    def __init__(self, distinct: List[str], codes) -> None:
        #: distinct values in first-appearance order; ``distinct[codes[i]]``
        #: is row ``i``'s value
        self.distinct = distinct
        #: int32 numpy array, one code per row
        self.codes = codes
        self._counts = None
        self._lengths = None
        self._shapes = None

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
        """Forget the lazy per-code arrays and the shape table (each
        rebuilds on its next use); the distinct values and codes stay."""
        self._counts = self._lengths = self._shapes = None

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

    def shapes(self) -> ShapeTable:
        """The :class:`ShapeTable` of the distinct values (built once)."""
        shapes = self._shapes
        if shapes is None:
            shapes = self._shapes = ShapeTable(self.distinct)
        return shapes

    def signatures(self):
        """uint8 array: char-class bitmask per code (see CLASS_BITS)."""
        return self.shapes().bits


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
