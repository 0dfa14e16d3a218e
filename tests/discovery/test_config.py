"""Tests for DiscoveryConfig validation and helpers."""

from dataclasses import fields

import pytest

from repro.discovery.config import DiscoveryConfig
from repro.errors import DiscoveryError


class TestValidation:
    def test_defaults_are_valid(self):
        config = DiscoveryConfig()
        assert 0 <= config.min_coverage <= 1
        assert config.min_support >= 1

    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_invalid_coverage(self, value):
        with pytest.raises(DiscoveryError):
            DiscoveryConfig(min_coverage=value)

    @pytest.mark.parametrize("value", [-0.01, 1.0, 2.0])
    def test_invalid_violation_ratio(self, value):
        with pytest.raises(DiscoveryError):
            DiscoveryConfig(allowed_violation_ratio=value)

    def test_invalid_support(self):
        with pytest.raises(DiscoveryError):
            DiscoveryConfig(min_support=0)

    def test_invalid_token_mode(self):
        with pytest.raises(DiscoveryError):
            DiscoveryConfig(token_mode="bogus")

    def test_invalid_shard_rows(self):
        with pytest.raises(DiscoveryError, match="shard_rows must be >= 0"):
            DiscoveryConfig(shard_rows=-1)

    def test_invalid_store(self):
        with pytest.raises(DiscoveryError, match="store must be 'memory', 'spill' or 'object'"):
            DiscoveryConfig(store="s3")

    def test_fields_are_the_paper_parameters_and_the_deployment(self):
        assert [field.name for field in fields(DiscoveryConfig)] == [
            "min_coverage",
            "allowed_violation_ratio",
            "min_support",
            "token_mode",
            "n_workers",
            "shard_rows",
            "store",
            "spill_dir",
            "object_url",
        ]
        # the mining limits are module constants, not fields
        with pytest.raises(TypeError):
            DiscoveryConfig(max_tableau_rows=1)


class TestHelpers:
    def test_min_agreement(self):
        config = DiscoveryConfig(allowed_violation_ratio=0.1)
        assert config.min_agreement == pytest.approx(0.9)

    def test_with_overrides(self):
        config = DiscoveryConfig()
        updated = config.with_overrides(min_coverage=0.9, min_support=5)
        assert updated.min_coverage == 0.9
        assert updated.min_support == 5
        # the original is unchanged
        assert config.min_coverage != 0.9

    @pytest.mark.parametrize(
        "knob", ["ngram_size", "max_tableau_rows", "discover_variable", "prefix_lengths"]
    )
    def test_with_overrides_rejects_a_mining_limit(self, knob):
        # the limits are module constants; an override must not be dropped silently
        with pytest.raises(TypeError, match=knob):
            DiscoveryConfig().with_overrides(**{knob: 1})

    def test_with_overrides_validates(self):
        with pytest.raises(DiscoveryError):
            DiscoveryConfig().with_overrides(min_coverage=3.0)
