"""Hot-path performance subsystem.

Process-wide acceleration state used by the patterns, discovery, and
detection layers:

* :mod:`repro.perf.memo` — :class:`MatchMemo`, per-distinct-value match
  and projection verdicts shared by all rules touching a column;
* :mod:`repro.perf.timers` — lightweight stage timers;
* ``pattern_class_mask``, the one ``functools`` memo left (per pattern,
  not per value), reported and cleared from here.

There is no per-value generalization or tokenization memo: patterns are
read from each column encoding's shape table
(:class:`repro.kernels.encoder.ShapeTable`), which lives and dies with
the encoding.  A ``Pattern`` compiles its regex once into its own slot
and a ``ConstrainedPattern`` compiles its segments when it is built; no
compiled regex is shared across instances.

Everything here is a pure cache: results are byte-identical with the
caches cleared, disabled (:func:`caches_disabled`), or hot — guaranteed
by the equivalence tests in ``tests/perf/``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.perf.memo import MatchMemo, MATCH_MEMO
from repro.perf.timers import StageTimers


def _pattern_class_mask():
    """The per-pattern class-mask memo (a lazy import avoids an import
    cycle with the kernels package)."""
    from repro.kernels.match import pattern_class_mask

    return pattern_class_mask


def clear_caches() -> None:
    """Reset every process-wide cache (used by benchmarks and tests)."""
    MATCH_MEMO.clear()
    _pattern_class_mask().cache_clear()


def cache_stats() -> dict:
    """Hit/miss statistics of the shared caches."""
    info = _pattern_class_mask().cache_info()
    stats = {
        "match_memo": MATCH_MEMO.stats(),
        "value_memos": {
            "pattern_class_mask": {
                "hits": info.hits,
                "misses": info.misses,
                "size": info.currsize,
                "maxsize": info.maxsize,
            }
        },
    }
    # empty: bench/session_child.py still indexes both keys, until the
    # benchmark change of ROADMAP item 1 drops them
    stats["regex"] = {}
    stats["table_artifacts"] = {}
    return stats


@contextmanager
def caches_disabled() -> Iterator[None]:
    """Temporarily turn the shared caches off (the uncached slow path).

    Used by the equivalence tests to prove cached and uncached execution
    produce identical results.  The class-mask memo is cleared on entry
    and exit; the match memo is fully bypassed.
    """
    previous = MATCH_MEMO.enabled
    _pattern_class_mask().cache_clear()
    MATCH_MEMO.enabled = False
    try:
        yield
    finally:
        MATCH_MEMO.enabled = previous
        _pattern_class_mask().cache_clear()


__all__ = [
    "MatchMemo",
    "MATCH_MEMO",
    "StageTimers",
    "cache_stats",
    "caches_disabled",
    "clear_caches",
]
