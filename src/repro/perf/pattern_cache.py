"""Process-wide compiled-pattern caches.

Patterns are immutable values hashed by their element tuple, so two
structurally equal patterns — however they were constructed — share one
compiled regex.  Before this cache every ``Pattern`` instance
compiled privately, and discovery synthesizes thousands of structurally
identical patterns (one per inverted-list entry per candidate
dependency).
"""

from __future__ import annotations

import re
from typing import Optional, Tuple

from repro.patterns.regex import compile_to_regex, pattern_to_regex_source
from repro.perf.lru import LruCache

#: pattern → compiled ``re.Pattern`` (or None when regex compilation failed
#: and the NFA fallback must be used).
REGEX_CACHE = LruCache(maxsize=8192)
#: constrained-pattern segment tuple → compiled grouped regex.
CONSTRAINED_REGEX_CACHE = LruCache(maxsize=4096)

_FAILED = object()  # distinguishes "compiles to None" from "not cached"


def shared_regex_for(pattern) -> Optional["re.Pattern[str]"]:
    """The compiled regex of a pattern, shared across equal patterns."""
    cached = REGEX_CACHE.get(pattern, _FAILED)
    if cached is not _FAILED:
        return cached
    compiled = compile_to_regex(pattern)
    REGEX_CACHE.put(pattern, compiled)
    return compiled


def constrained_regex_for(segments: Tuple) -> "re.Pattern[str]":
    """Compile a constrained pattern's segments to one grouped regex.

    Constrained segments become capturing groups (their captures are the
    constrained projection), unconstrained ones non-capturing groups.
    Keyed by the segment tuple so equal constrained patterns share the
    compiled object.
    """

    def compile_segments() -> "re.Pattern[str]":
        parts = []
        for segment in segments:
            source = pattern_to_regex_source(segment.pattern)
            if segment.constrained:
                parts.append("(" + source + ")")
            else:
                parts.append("(?:" + source + ")")
        return re.compile("".join(parts))

    return CONSTRAINED_REGEX_CACHE.get_or_compute(segments, compile_segments)


def clear_pattern_caches() -> None:
    REGEX_CACHE.clear()
    CONSTRAINED_REGEX_CACHE.clear()


def pattern_cache_stats() -> dict:
    return {
        "regex": REGEX_CACHE.stats(),
        "constrained_regex": CONSTRAINED_REGEX_CACHE.stats(),
    }
