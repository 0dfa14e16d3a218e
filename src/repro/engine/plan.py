"""Execution planning: what a session run will do, decided in one place.

Every dataset a session loads is cut into shards once, at load time, and
every discovery/detection run goes through the sharded engines over that
cut.  The plan records what is left to resolve from the observable
inputs — the shard size and count, the store the shards live on, the
client that serves an object store, and whether a re-check maintains the
rule set incrementally — and writes every decision down as a
human-readable line (``plan.decisions``), so ``--explain-plan`` and
post-mortems can show *why*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.discovery.config import DiscoveryConfig


#: shard size used when nothing (caller, config, upload) names one
DEFAULT_SHARD_ROWS = 4096


@dataclass
class ExecutionPlan:
    """One resolved discovery or detection run.

    The plan is pure data plus the :class:`DiscoveryConfig` it was
    planned from; the session executes it.
    """

    kind: str  #: ``"discovery"`` or ``"detection"``
    config: DiscoveryConfig
    #: the shard size the dataset was cut at
    shard_rows: int = DEFAULT_SHARD_ROWS
    #: estimated shard count
    n_shards: int = 1
    n_rows: int = 0
    #: the shard store backend the dataset lives on (``"memory"``,
    #: ``"spill"`` or ``"object"``)
    store: str = "memory"
    #: which client serves the ``object`` store: ``"local"`` for the
    #: filesystem client, ``"http"`` for the remote client at
    #: ``config.object_url``, ``"none"`` for the other stores
    object_client: str = "none"
    #: how a re-check refreshes the rule set: ``"incremental"`` routes
    #: through the seeded rule maintainer, ``"full"`` re-discovers from
    #: scratch (when the session holds no seeded maintainer), ``"none"``
    #: for plans that are not re-checks
    rule_maintenance: str = "none"
    #: human-readable routing decisions, in the order they were taken
    decisions: List[str] = field(default_factory=list)

    def describe(self) -> str:
        """The ``--explain-plan`` rendering: one summary line plus one
        indented line per recorded decision."""
        summary = (
            f"execution plan ({self.kind}): "
            f"shards={self.n_shards}x{self.shard_rows} store={self.store}"
        )
        if self.object_client != "none":
            summary += f"[{self.object_client}]"
        summary += f" rows={self.n_rows}"
        if self.rule_maintenance != "none":
            summary += f" rule_maintenance={self.rule_maintenance}"
        lines = [summary]
        lines.extend(f"  - {decision}" for decision in self.decisions)
        return "\n".join(lines)


def plan_run(
    kind: str,
    n_rows: int,
    config: Optional[DiscoveryConfig] = None,
    *,
    shard_rows: int = 0,
    recheck: bool = False,
    maintainable: bool = False,
) -> ExecutionPlan:
    """Resolve one discovery/detection run into an :class:`ExecutionPlan`.

    Parameters
    ----------
    kind:
        ``"discovery"`` or ``"detection"``.
    n_rows:
        Size of the logical table.
    config:
        The session's :class:`DiscoveryConfig` (supplies the store and,
        when ``shard_rows`` is not given, the shard size).
    shard_rows:
        The size the dataset was cut at (its largest shard); ``0`` falls
        back to ``config.shard_rows``, then to :data:`DEFAULT_SHARD_ROWS`.
    recheck:
        Discovery only — whether this run refreshes an existing rule set
        after edits (``AnmatSession.recheck()``) rather than discovering
        from scratch: incremental maintenance when a baseline is
        seeded, full re-discovery otherwise.
    maintainable:
        Whether a seeded :class:`~repro.discovery.maintenance.RuleMaintainer`
        baseline exists for the dataset being re-checked.
    """
    if kind not in ("discovery", "detection"):
        raise ValueError(f"unknown plan kind {kind!r}")
    config = config or DiscoveryConfig()
    decisions: List[str] = []

    # -- shard size ------------------------------------------------------------
    # The cut is made once, at load: a run reads the shards it finds.
    if shard_rows <= 0:
        shard_rows = config.shard_rows or DEFAULT_SHARD_ROWS
    n_shards = max(1, math.ceil(n_rows / shard_rows))
    decisions.append(
        f"the dataset was cut once at load into shards of {shard_rows} rows "
        f"on the {config.store} store"
    )

    # -- object store client -------------------------------------------------
    # Which client serves the shard objects is a real routing decision —
    # shard bytes either stay on the local filesystem or cross the
    # network to config.object_url — so the plan records it explicitly.
    object_client = "none"
    if config.store == "object":
        object_client = "http" if config.object_url else "local"
        decisions.append(
            f"shard objects go through the remote HTTP client at {config.object_url}"
            if config.object_url
            else "shard objects stay on the local filesystem client"
        )

    # -- rule maintenance ----------------------------------------------------
    # Only a re-check maintains; a first discovery has nothing to maintain.
    rule_maintenance = "none"
    if kind == "discovery" and recheck:
        if maintainable:
            rule_maintenance = "incremental"
            decisions.append(
                "re-check maintains the rule set incrementally from the "
                "seeded baseline"
            )
        else:
            rule_maintenance = "full"
            decisions.append(
                "no maintainable rule baseline for this re-check "
                "(incremental maintenance needs a prior discovery run); "
                "re-discovering from scratch"
            )

    return ExecutionPlan(
        kind=kind,
        config=config,
        shard_rows=shard_rows,
        n_shards=n_shards,
        n_rows=n_rows,
        store=config.store,
        object_client=object_client,
        rule_maintenance=rule_maintenance,
        decisions=decisions,
    )

