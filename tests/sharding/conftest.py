"""Fixtures shared by the sharding tests."""

from __future__ import annotations

import pytest

from repro.sharding.overlay import OverlayShardStore


@pytest.fixture
def patched_shards(monkeypatch):
    """The shard indexes sealed views patched copy-on-read, in order."""
    indexes = []
    real = OverlayShardStore._patch_shard

    def patch_shard(self, index):
        indexes.append(index)
        return real(self, index)

    monkeypatch.setattr(OverlayShardStore, "_patch_shard", patch_shard)
    return indexes
