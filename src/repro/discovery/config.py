"""Configuration of the discovery pipeline.

ANMAT exposes two user-facing parameters (Section 4): the **minimum
coverage** — the ratio of records participating in a PFD to the total
number of records in the attribute — and the **ratio of allowed
violations** tolerated because the input data is assumed dirty.  The
remaining knobs control token extraction and tableau size and have
defaults chosen to reproduce the paper's demo scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.errors import DiscoveryError


@dataclass
class DiscoveryConfig:
    """Tunable parameters of :class:`~repro.discovery.discoverer.PfdDiscoverer`.

    Parameters
    ----------
    min_coverage:
        γ — minimum fraction of an attribute's records that must be
        covered by a tableau for the PFD to be reported.
    allowed_violation_ratio:
        ρ — fraction of records allowed to disagree with a pattern tuple
        before it is rejected (the data is assumed dirty).
    min_support:
        Minimum absolute number of tuples behind a pattern tuple.
    token_mode:
        ``"auto"`` picks token mode for multi-token attributes and prefix
        n-grams for single-token (code/id) attributes; ``"token"``,
        ``"ngram"`` and ``"prefix"`` force a specific extractor.
    ngram_size:
        Size of character n-grams in ``"ngram"`` mode.
    prefix_lengths:
        Literal-prefix lengths tried for code-like attributes (both for
        constant pattern tuples and for constrained prefixes of variable
        PFDs).  ``None`` means "all lengths shorter than the value".
    max_tableau_rows:
        Upper bound on pattern tuples kept per PFD (most covering first).
    discover_constant / discover_variable:
        Toggle the two PFD families independently.
    max_lhs_distinct_ratio:
        Candidate pruning — LHS columns where nearly every value is
        distinct *and* unstructured are skipped.
    max_candidate_columns:
        Safety valve for very wide tables.
    n_workers:
        Inert: accepted, validated (``>= 0``) and otherwise ignored.
        Every run executes in-process — discovery and detection share
        one set of column encodings and no stage fans out.  The field
        remains only because the session benchmark
        (``bench/session_child.py``) still passes it, and goes when that
        benchmark stops doing so.
    shard_rows:
        Sizes the cut a session makes once, at load: a loaded
        :class:`~repro.dataset.table.Table` or a CSV upload becomes
        shards of this many rows (``0`` uses the engine default,
        :data:`~repro.engine.plan.DEFAULT_SHARD_ROWS`).  Results do not
        depend on it: rule sets are identical and violations canonically
        equal at every shard size.
    store:
        Which :class:`~repro.sharding.store.ShardStore` backend a
        session's shards live on: ``"memory"`` (live tables), ``"spill"``
        (encoded spill files + small LRU) or ``"object"`` (checksummed
        objects behind a get/put/list client, whose reader fetches
        :data:`~repro.sharding.object_store.DEFAULT_PREFETCH_DEPTH`
        shards ahead on background threads).  Recorded on the
        execution plan.
    spill_dir:
        Root directory for the ``spill``/``object`` stores.  ``None``
        uses a private temporary directory removed when the session (or
        store) is closed.
    object_url:
        Base URL of a remote object store for the ``object`` backend.
        ``None`` (the default) keeps objects on the local filesystem
        through :class:`~repro.sharding.object_store.LocalObjectClient`;
        an ``http(s)://`` URL routes shard bytes through the remote
        :class:`~repro.sharding.remote.HttpObjectClient` instead
        (S3-compatible-style PUT/GET/DELETE with checksummed,
        retry-protected transfers).  The execution plan records which
        client kind serves the run.  Ignored unless ``store`` is
        ``"object"``.

    How a session re-check refreshes the rule set is not configurable:
    it maintains the rules incrementally when a discovery baseline is
    seeded and re-discovers from scratch otherwise (see
    :meth:`~repro.anmat.session.AnmatSession.recheck`); both give the
    identical rule set.
    """

    min_coverage: float = 0.6
    allowed_violation_ratio: float = 0.05
    min_support: int = 2
    token_mode: str = "auto"
    ngram_size: int = 3
    prefix_lengths: Optional[Tuple[int, ...]] = None
    max_tableau_rows: int = 64
    discover_constant: bool = True
    discover_variable: bool = True
    max_lhs_distinct_ratio: float = 0.98
    max_candidate_columns: int = 24
    max_constrained_token_position: int = 3
    n_workers: int = 0
    shard_rows: int = 0
    store: str = "memory"
    spill_dir: Optional[str] = None
    object_url: Optional[str] = None

    def __post_init__(self) -> None:
        if self.n_workers < 0:
            raise DiscoveryError(f"n_workers must be >= 0, got {self.n_workers}")
        if self.shard_rows < 0:
            raise DiscoveryError(f"shard_rows must be >= 0, got {self.shard_rows}")
        if not 0.0 <= self.min_coverage <= 1.0:
            raise DiscoveryError(f"min_coverage must be in [0, 1], got {self.min_coverage}")
        if not 0.0 <= self.allowed_violation_ratio < 1.0:
            raise DiscoveryError(
                "allowed_violation_ratio must be in [0, 1), got "
                f"{self.allowed_violation_ratio}"
            )
        if self.min_support < 1:
            raise DiscoveryError(f"min_support must be >= 1, got {self.min_support}")
        if self.token_mode not in ("auto", "token", "ngram", "prefix"):
            raise DiscoveryError(f"unknown token_mode {self.token_mode!r}")
        if self.ngram_size < 1:
            raise DiscoveryError(f"ngram_size must be >= 1, got {self.ngram_size}")
        if self.max_tableau_rows < 1:
            raise DiscoveryError(f"max_tableau_rows must be >= 1, got {self.max_tableau_rows}")
        if self.store not in ("memory", "spill", "object"):
            raise DiscoveryError(
                f"store must be 'memory', 'spill' or 'object', got {self.store!r}"
            )
        if self.object_url is not None and not self.object_url.startswith(
            ("http://", "https://")
        ):
            raise DiscoveryError(
                f"object_url must be an http(s):// URL, got {self.object_url!r}"
            )

    @property
    def min_agreement(self) -> float:
        """Fraction of a group that must agree on the RHS value."""
        return 1.0 - self.allowed_violation_ratio

    def effective_prefix_lengths(self, value_length: int) -> Sequence[int]:
        """Prefix lengths to try for values of the given typical length."""
        if self.prefix_lengths is not None:
            return [k for k in self.prefix_lengths if 0 < k <= value_length]
        return list(range(1, max(1, value_length)))

    def with_overrides(self, **kwargs) -> "DiscoveryConfig":
        """A copy of this config with the given fields replaced."""
        data = self.__dict__.copy()
        data.update(kwargs)
        return DiscoveryConfig(**data)
