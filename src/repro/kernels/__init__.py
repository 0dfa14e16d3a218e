"""Vectorized columnar kernels for the discovery hot path.

The scalar pipeline works one string at a time: ``ColumnTokenization``
walks characters, ``InvertedList.from_tokenization`` appends one posting
per (row, token), the decision function rebuilds per-entry statistics
from posting lists, and ``extract_pair_groups`` grows a dict-of-dicts
row by row.  The kernels in this package run the same computation at the
*distinct-value* level over contiguous numpy id arrays:

* :mod:`repro.kernels.encoder` — factorize a column into int32 codes in
  first-appearance order, plus lazy per-distinct lengths, char-class
  signatures, and rows-by-code (one stable argsort);
* :mod:`repro.kernels.tokenize` — batch (key, position, text) triples
  per distinct value, rows inherit by id lookup;
* :mod:`repro.kernels.match` — one-pass batch pattern matching with a
  sound length / literal-prefix / char-class-signature prefilter,
  sharing verdict tables with :class:`repro.perf.memo.MatchMemo`;
* :mod:`repro.kernels.groupby` — argsort-based pair-group builder over
  two column encodings (:mod:`repro.sharding.stats`);
* :mod:`repro.kernels.mine` — the Figure 2 loop body (constant decision
  function, greedy selection, variable blocking) over encoded columns.

Every kernel is an *equivalence-preserving* replacement: given the same
inputs it returns byte-identical Python structures (same dict insertion
orders, same floats, same tie-breaks) as the scalar code it shadows.
The kernels are the only mining route; the scalar loop body runs only
for customized decision functions or miners, which is also how
``tests/kernels`` reaches it as the reference to compare against.
"""
