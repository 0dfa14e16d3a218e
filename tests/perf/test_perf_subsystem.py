"""Unit tests for the repro.perf subsystem."""

import pytest

from repro import perf
from repro.patterns import parse_pattern
from repro.patterns.pattern import Pattern
from repro.perf.interning import InternPool
from repro.perf.lru import LruCache
from repro.perf.memo import MatchMemo
from repro.perf.timers import StageTimers


class TestLruCache:
    def test_get_put_and_stats(self):
        cache = LruCache(maxsize=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_eviction_is_least_recently_used(self):
        cache = LruCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b becomes LRU
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache

    def test_get_or_compute(self):
        cache = LruCache(maxsize=4)
        calls = []
        value = cache.get_or_compute("k", lambda: calls.append(1) or "v")
        again = cache.get_or_compute("k", lambda: calls.append(1) or "v")
        assert value == again == "v"
        assert len(calls) == 1

    def test_disabled_cache_always_computes(self):
        cache = LruCache(maxsize=4)
        cache.enabled = False
        calls = []
        cache.get_or_compute("k", lambda: calls.append(1) or "v")
        cache.get_or_compute("k", lambda: calls.append(1) or "v")
        assert len(calls) == 2
        assert len(cache) == 0

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            LruCache(maxsize=0)


class TestInternPool:
    def test_interns_to_first_instance(self):
        pool = InternPool()
        first = "".join(["90", "001"])
        second = "".join(["900", "01"])
        assert first is not second  # distinct objects, equal values
        assert pool.intern(first) is first
        assert pool.intern(second) is first
        assert len(pool) == 1

    def test_clear(self):
        pool = InternPool()
        pool.intern("x")
        pool.clear()
        assert len(pool) == 0


class TestMatchMemo:
    def test_matches_memoizes_per_pattern_and_value(self):
        memo = MatchMemo()
        pattern = parse_pattern("\\D{5}")
        assert memo.matches(pattern, "90001") is True
        assert memo.matches(pattern, "90001") is True
        assert memo.matches(pattern, "banana") is False
        assert memo.stats()["misses"] == 2
        assert memo.stats()["hits"] == 1

    def test_equal_patterns_share_verdicts(self):
        memo = MatchMemo()
        first = parse_pattern("900\\D{2}")
        second = Pattern(first.elements)
        memo.matches(first, "90001")
        memo.matches(second, "90001")
        assert memo.stats()["misses"] == 1
        assert memo.stats()["hits"] == 1

    def test_bound_matcher_matches_direct_calls(self):
        memo = MatchMemo()
        pattern = parse_pattern("\\LU\\LL*")
        matches = memo.matcher(pattern)
        assert matches("John") is True
        assert matches("john") is False
        # Verdicts land in the same table the unbound API reads.
        assert memo.matches(pattern, "John") is True
        assert memo.stats()["hits"] == 1

    def test_projector_memoizes_projections(self):
        from repro.constrained import ConstrainedPattern

        memo = MatchMemo()
        q = ConstrainedPattern.parse("⟨\\D{3}⟩\\D{2}")
        project = memo.projector(q)
        assert project("90001") == ("900",)
        assert project("90001") == ("900",)
        assert project("banana") is None
        assert memo.stats()["misses"] == 2

    def test_disabled_memo_delegates(self):
        memo = MatchMemo(enabled=False)
        pattern = parse_pattern("\\D{5}")
        assert memo.matches(pattern, "90001") is True
        assert memo.stats()["misses"] == 0
        assert memo.stats()["values"] == 0

    def test_pattern_eviction_bound(self):
        memo = MatchMemo(max_patterns=2)
        for text in ("a", "b", "c"):
            memo.matches(parse_pattern(text), text)
        assert memo.stats()["patterns"] == 2


class TestStageTimers:
    def test_accumulates_named_stages(self):
        timers = StageTimers()
        with timers.stage("mine"):
            pass
        with timers.stage("mine"):
            pass
        with timers.stage("profile"):
            pass
        assert timers.count("mine") == 2
        assert timers.count("profile") == 1
        assert timers.total("mine") >= 0.0
        assert set(timers.totals()) == {"mine", "profile"}

    def test_records_on_exception(self):
        timers = StageTimers()
        with pytest.raises(RuntimeError):
            with timers.stage("boom"):
                raise RuntimeError("fail")
        assert timers.count("boom") == 1

    def test_merge_and_summary(self):
        left, right = StageTimers(), StageTimers()
        left.add("a", 1.0)
        right.add("a", 2.0)
        right.add("b", 0.5)
        left.merge(right)
        assert left.total("a") == pytest.approx(3.0)
        assert left.count("a") == 2
        assert "a: 3.000s (n=2)" in left.summary()


class TestSharedPatternCaches:
    def test_equal_patterns_share_compiled_regex(self):
        perf.clear_caches()
        first = parse_pattern("850\\D{7}")
        second = Pattern(first.elements)
        assert first.compiled_regex() is second.compiled_regex()

    def test_nfa_is_built_once_per_pattern(self):
        first = parse_pattern("\\LU\\LL*")
        second = Pattern(first.elements)
        assert first.nfa is first.nfa
        for text in ("Abc", "abc", "A", ""):
            assert first.nfa.matches_string(text) == second.nfa.matches_string(text)

    def test_cache_stats_name_the_remaining_caches(self):
        stats = perf.cache_stats()
        assert {"regex", "constrained_regex", "match_memo"} <= set(stats)
        assert "nfa" not in stats and "token_pool" not in stats
        assert stats["table_artifacts"] == {"hits": 0, "misses": 0, "patched": 0}

    def test_clear_caches_resets_stats(self):
        parse_pattern("abc").compiled_regex()
        perf.clear_caches()
        stats = perf.cache_stats()
        assert stats["regex"]["size"] == 0
        assert stats["match_memo"]["values"] == 0

    def test_caches_disabled_still_correct(self):
        pattern = parse_pattern("900\\D{2}")
        with perf.caches_disabled():
            assert pattern.matches("90001")
            assert not pattern.matches("80001")
        assert pattern.matches("90001")


class TestDetectorCacheInvalidation:
    def test_reused_detector_sees_set_cell_mutation(self):
        """A detector instance must not serve pre-mutation results."""
        from repro.datagen import generate_zip_city_state
        from repro.detection import ErrorDetector
        from repro.discovery import PfdDiscoverer

        perf.clear_caches()
        table = generate_zip_city_state(n_rows=300, seed=23).table
        pfds = PfdDiscoverer().discover(table)
        detector = ErrorDetector(table)  # same instance across the mutation
        before = detector.detect_all(pfds)
        clean_row = next(
            r for r in range(table.n_rows) if (r, "state") not in before.suspect_cells()
        )
        table.set_cell(clean_row, "state", "XX")
        after = detector.detect_all(pfds)
        assert (clean_row, "state") in after.suspect_cells()
        # ...and fresh detectors agree
        fresh = ErrorDetector(table).detect_all(pfds)
        assert fresh.suspect_cells() == after.suspect_cells()
        assert list(fresh) == list(after)


class TestDiscovererTimers:
    def test_discovery_records_stage_timings(self):
        from repro.datagen import zip_table_d2
        from repro.discovery import PfdDiscoverer

        discoverer = PfdDiscoverer()
        discoverer.discover(zip_table_d2().table)
        totals = discoverer.timers.totals()
        assert {"profile", "candidates", "mine", "assemble"} <= set(totals)
        assert all(seconds >= 0.0 for seconds in totals.values())
