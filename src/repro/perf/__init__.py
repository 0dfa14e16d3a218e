"""Hot-path performance subsystem.

Process-wide acceleration state used by the patterns, discovery, and
detection layers:

* :mod:`repro.perf.memo` — :class:`MatchMemo`, per-distinct-value match
  and projection verdicts shared by all rules touching a column;
* :mod:`repro.perf.timers` — lightweight stage timers;
* the ``functools`` per-value memos of the pattern and kernel layers
  (:func:`_value_memos`), reported and cleared from here.

A ``Pattern`` compiles its regex once into its own slot and a
``ConstrainedPattern`` compiles its segments when it is built; no
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


def _value_memos() -> tuple:
    """The functools-based per-value memos (lazy imports avoid import
    cycles with the patterns and kernels packages)."""
    from repro.kernels.match import pattern_class_mask
    from repro.patterns.generalize import (
        _class_runs,
        _generalize_string_cached,
        signature_of,
    )
    from repro.patterns.tokenizer import cached_tokenize

    return (
        _class_runs,
        signature_of,
        _generalize_string_cached,
        cached_tokenize,
        pattern_class_mask,
    )


def _clear_value_memos() -> None:
    for memo in _value_memos():
        memo.cache_clear()


def clear_caches() -> None:
    """Reset every process-wide cache (used by benchmarks and tests)."""
    MATCH_MEMO.clear()
    _clear_value_memos()


def cache_stats() -> dict:
    """Hit/miss statistics of the shared caches."""
    stats = {"match_memo": MATCH_MEMO.stats()}
    # every entry is a live object each full collection walks
    stats["value_memos"] = {}
    for memo in _value_memos():
        info = memo.cache_info()
        stats["value_memos"][memo.__name__] = {
            "hits": info.hits,
            "misses": info.misses,
            "size": info.currsize,
            "maxsize": info.maxsize,
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
    produce identical results.  The functools-based value memos are
    cleared on entry and exit; the match memo is fully bypassed.
    """
    previous = MATCH_MEMO.enabled
    _clear_value_memos()
    MATCH_MEMO.enabled = False
    try:
        yield
    finally:
        MATCH_MEMO.enabled = previous
        _clear_value_memos()


__all__ = [
    "MatchMemo",
    "MATCH_MEMO",
    "StageTimers",
    "cache_stats",
    "caches_disabled",
    "clear_caches",
]
