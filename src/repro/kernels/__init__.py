"""Vectorized columnar kernels for the discovery hot path.

The kernels run the paper's per-row computations at the *distinct-value*
level over contiguous numpy id arrays:

* :mod:`repro.kernels.encoder` — factorize a column into int32 codes in
  first-appearance order, plus lazy per-distinct lengths and the shape
  table (class runs, signature ids and char-class bitmasks, in numpy)
  every generalization reads;
* :mod:`repro.kernels.tokenize` — batch (key, position, text) triples
  per distinct value, rows inherit by id lookup;
* :mod:`repro.kernels.match` — one-pass batch pattern matching with a
  sound length / literal-prefix / char-class-signature prefilter,
  sharing verdict tables with :class:`repro.perf.memo.MatchMemo`;
* :mod:`repro.kernels.groupby` — argsort-based pair-group builder over
  two column encodings (:mod:`repro.sharding.stats`);
* :mod:`repro.kernels.mine` — the Figure 2 loop body (constant decision
  function, greedy selection, variable blocking) over encoded columns.

The kernels are the only mining route.  Each returns plain Python
structures with fixed key orders, tie-breaks and floats; the mining
kernels' results are pinned, byte for byte, to the literal Figure 2 loop
over row lists in ``tests/figure2_reference.py``.
"""
