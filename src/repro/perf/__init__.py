"""Hot-path performance subsystem.

Shared, process-wide acceleration state used by the patterns, discovery,
and detection layers:

* :mod:`repro.perf.pattern_cache` — compiled-regex LRU caches keyed by
  the immutable pattern value;
* :mod:`repro.perf.interning` — the string-interning pool the stores and
  the tokenization scope to one build;
* :mod:`repro.perf.memo` — :class:`MatchMemo`, per-distinct-value match
  and projection verdicts shared by all rules touching a column;
* :mod:`repro.perf.timers` — lightweight stage timers.

Everything here is a pure cache: results are byte-identical with the
caches cleared, disabled (:func:`caches_disabled`), or hot — guaranteed
by the equivalence tests in ``tests/perf/``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, List

from repro.perf.interning import InternPool
from repro.perf.lru import LruCache
from repro.perf.memo import MatchMemo, MATCH_MEMO
from repro.perf.pattern_cache import (
    CONSTRAINED_REGEX_CACHE,
    REGEX_CACHE,
    clear_pattern_caches,
    constrained_regex_for,
    pattern_cache_stats,
    shared_regex_for,
)
from repro.perf.timers import StageTimers

#: Extra ``clear()`` callbacks registered by modules that keep their own
#: memos (e.g. the functools caches in generalize/tokenizer).
_EXTRA_CLEARERS: List[Callable[[], None]] = []


def register_cache_clearer(clear: Callable[[], None]) -> None:
    """Register a callback invoked by :func:`clear_caches`."""
    _EXTRA_CLEARERS.append(clear)


def _clear_value_memos() -> None:
    """Clear the functools-based per-value memos (lazy imports avoid
    import cycles with the patterns package)."""
    from repro.patterns.generalize import clear_generalization_memos
    from repro.patterns.tokenizer import cached_tokenize

    cached_tokenize.cache_clear()
    clear_generalization_memos()


def clear_caches() -> None:
    """Reset every process-wide cache (used by benchmarks and tests)."""
    clear_pattern_caches()
    MATCH_MEMO.clear()
    _clear_value_memos()
    for clear in _EXTRA_CLEARERS:
        clear()


def cache_stats() -> dict:
    """Hit/miss statistics of the shared caches."""
    stats = pattern_cache_stats()
    stats["match_memo"] = MATCH_MEMO.stats()
    # a constant: bench/session_child.py still reads this key, until
    # ROADMAP item 6's benchmark change drops it
    stats["table_artifacts"] = {"hits": 0, "misses": 0, "patched": 0}
    return stats


@contextmanager
def caches_disabled() -> Iterator[None]:
    """Temporarily turn the shared caches off (the uncached slow path).

    Used by the equivalence tests to prove cached and uncached execution
    produce identical results.  The functools-based value memos are
    cleared on entry and exit; the semantic caches (regex, constrained
    regex, match memo) are fully bypassed.
    """
    switches = [REGEX_CACHE, CONSTRAINED_REGEX_CACHE, MATCH_MEMO]
    previous = [s.enabled for s in switches]
    _clear_value_memos()
    for s in switches:
        s.enabled = False
    try:
        yield
    finally:
        for s, was in zip(switches, previous):
            s.enabled = was
        _clear_value_memos()


__all__ = [
    "InternPool",
    "LruCache",
    "MatchMemo",
    "MATCH_MEMO",
    "StageTimers",
    "cache_stats",
    "caches_disabled",
    "clear_caches",
    "constrained_regex_for",
    "register_cache_clearer",
    "shared_regex_for",
]
