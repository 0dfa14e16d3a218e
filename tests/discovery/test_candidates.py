"""Tests for candidate dependency generation (Figure 2, line 1)."""

import random

import pytest

from repro.dataset.profiling import profile_table
from repro.dataset.table import Table
from repro.discovery.candidates import MAX_CANDIDATE_COLUMNS, candidate_dependencies
from repro.discovery.config import DiscoveryConfig


def pairs(candidates):
    return {(c.lhs, c.rhs) for c in candidates}


class TestCandidateGeneration:
    def test_zip_city_state_candidates(self, small_zip_city_state):
        candidates = candidate_dependencies(small_zip_city_state.table)
        found = pairs(candidates)
        assert ("zip", "city") in found
        assert ("zip", "state") in found
        assert ("city", "state") in found

    def test_unique_id_is_not_a_learnable_rhs(self):
        # a key column (every value distinct) can never be agreed upon by
        # two tuples, so it is useless as an RHS
        table = Table.from_rows(
            ["row_id", "code", "label"],
            [[f"id-{i:04d}", f"C{i % 5}", "x" if i % 2 else "y"] for i in range(60)],
        )
        candidates = candidate_dependencies(table)
        assert all(c.rhs != "row_id" for c in candidates)

    def test_phone_state_direction(self, small_phone_state):
        candidates = candidate_dependencies(small_phone_state.table)
        found = pairs(candidates)
        assert ("phone_number", "state") in found
        assert ("state", "phone_number") not in found

    def test_lhs_mode_selection(self, small_phone_state, small_fullname_gender):
        phone_candidates = candidate_dependencies(small_phone_state.table)
        name_candidates = candidate_dependencies(small_fullname_gender.table)
        phone_modes = {c.lhs_mode for c in phone_candidates if c.lhs == "phone_number"}
        name_modes = {c.lhs_mode for c in name_candidates if c.lhs == "full_name"}
        assert phone_modes == {"prefix"}
        assert name_modes == {"token"}

    def test_forced_token_mode(self, small_phone_state):
        config = DiscoveryConfig(token_mode="ngram")
        candidates = candidate_dependencies(small_phone_state.table, config)
        assert {c.lhs_mode for c in candidates} == {"ngram"}

    def test_pure_measure_columns_are_pruned(self):
        rng = random.Random(1)
        rows = [
            [str(rng.randint(0, 10_000)), f"group{i % 3}", str(rng.random())]
            for i in range(100)
        ]
        table = Table.from_rows(["measure", "group", "score"], rows)
        candidates = candidate_dependencies(table)
        assert all(c.lhs not in ("measure", "score") for c in candidates)

    def test_candidates_sorted_by_rhs_cardinality(self, small_zip_city_state):
        candidates = candidate_dependencies(small_zip_city_state.table)
        zip_targets = [c.rhs for c in candidates if c.lhs == "zip"]
        # state (fewer distinct values) should be tried before city
        assert zip_targets.index("state") < zip_targets.index("city")

    def test_empty_columns_are_skipped(self):
        table = Table.from_rows(
            ["code", "empty", "label"],
            [[f"A{i:03d}", "", "x" if i % 2 else "y"] for i in range(40)],
        )
        candidates = candidate_dependencies(table)
        assert all("empty" not in (c.lhs, c.rhs) for c in candidates)

    def test_lhs_columns_stop_at_max_candidate_columns(self):
        n_columns = MAX_CANDIDATE_COLUMNS + 6
        names = [f"c{j:02d}" for j in range(n_columns)]
        rows = [[f"K{(i + j) % 5}-{i % 3}" for j in range(n_columns)] for i in range(60)]
        table = Table.from_rows(names, rows)
        eligible = profile_table(table).pfd_candidate_columns()
        assert len(eligible) == n_columns
        candidates = candidate_dependencies(table)
        assert {c.lhs for c in candidates} == set(eligible[:MAX_CANDIDATE_COLUMNS])
        assert MAX_CANDIDATE_COLUMNS == 24

    def test_str_rendering(self, small_zip_city_state):
        candidates = candidate_dependencies(small_zip_city_state.table)
        assert "->" in str(candidates[0])
