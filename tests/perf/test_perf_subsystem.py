"""Unit tests for the repro.perf subsystem."""

import pytest

from repro import perf
from repro.patterns import parse_pattern
from repro.patterns.pattern import Pattern
from repro.perf import memo as memo_module
from repro.perf.memo import MatchMemo
from repro.perf.timers import StageTimers


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

    def test_pattern_eviction_bound(self, monkeypatch):
        monkeypatch.setattr(memo_module, "MAX_PATTERNS", 2)
        memo = MatchMemo()
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


class TestPatternCompilation:
    def test_pattern_keeps_its_compiled_regex(self):
        first = parse_pattern("850\\D{7}")
        second = Pattern(first.elements)
        assert first.compiled_regex() is first.compiled_regex()
        assert first.compiled_regex().pattern == second.compiled_regex().pattern
        assert first.compiled_regex().fullmatch("8501234567")

    def test_nfa_is_built_once_per_pattern(self):
        first = parse_pattern("\\LU\\LL*")
        second = Pattern(first.elements)
        assert first.nfa is first.nfa
        for text in ("Abc", "abc", "A", ""):
            assert first.nfa.matches_string(text) == second.nfa.matches_string(text)


class TestCacheStats:
    def test_cache_stats_keep_the_keys_the_bench_reads(self):
        # bench/session_child.py::_cache_counts indexes these three keys
        # in every traced round; "regex" and "table_artifacts" stay empty
        # until the benchmark stops reading them (ROADMAP item 1)
        parse_pattern("abc").matches("abc")
        stats = perf.cache_stats()
        for key in ("match_memo", "regex", "table_artifacts"):
            assert isinstance(stats[key], dict)
        assert stats["regex"] == {} and stats["table_artifacts"] == {}
        assert set(stats) == {"match_memo", "value_memos", "regex", "table_artifacts"}

    def test_cache_stats_report_the_value_memos(self):
        # one functools memo is left, per pattern: generalizing and
        # profiling values keep no per-value memo
        from repro.dataset.profiling import profile_column
        from repro.kernels.match import pattern_class_mask

        perf.clear_caches()
        profile_column("c", ["ab12", "ab12", "a b", "90001"])
        pattern_class_mask(parse_pattern("\\D{3}"))
        pattern_class_mask(parse_pattern("\\D{3}"))
        memos = perf.cache_stats()["value_memos"]
        assert memos == {
            "pattern_class_mask": {"hits": 1, "misses": 1, "size": 1, "maxsize": 4096}
        }
        perf.clear_caches()
        assert perf.cache_stats()["value_memos"]["pattern_class_mask"]["size"] == 0
        pattern_class_mask(parse_pattern("\\D{3}"))
        with perf.caches_disabled():
            assert perf.cache_stats()["value_memos"]["pattern_class_mask"]["size"] == 0
        assert perf.cache_stats()["value_memos"]["pattern_class_mask"]["size"] == 0

    def test_clear_caches_resets_stats(self):
        perf.MATCH_MEMO.matches(parse_pattern("abc"), "abc")
        perf.clear_caches()
        stats = perf.cache_stats()
        assert stats["match_memo"]["values"] == 0
        assert stats["match_memo"]["misses"] == 0

    def test_caches_disabled_still_correct(self):
        pattern = parse_pattern("900\\D{2}")
        with perf.caches_disabled():
            assert not perf.MATCH_MEMO.enabled
            assert pattern.matches("90001")
            assert not pattern.matches("80001")
        assert perf.MATCH_MEMO.enabled
        assert pattern.matches("90001")

    def test_caches_disabled_restores_a_disabled_memo(self):
        perf.MATCH_MEMO.enabled = False
        try:
            with perf.caches_disabled():
                assert not perf.MATCH_MEMO.enabled
            assert not perf.MATCH_MEMO.enabled
        finally:
            perf.MATCH_MEMO.enabled = True


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
