"""Execution planning: *what* to run is decided once, in one place.

Every discovery/detection run first builds an :class:`ExecutionPlan`
from the observable inputs (table size, ``shard_rows``, whether the
upload arrived sharded), and the matching
:class:`~repro.engine.executors.Executor` backend then runs the plan.
There are two backends: the monolithic ``serial`` engines and the
``sharded`` engines.

The plan records every routing decision it takes as a human-readable
line (``plan.decisions``), so ``--explain-plan`` and post-mortems can
show *why* a backend was chosen.  A sharded upload always runs on the
``sharded`` backend, so nothing the planner decides overrides a user
request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.discovery.config import DiscoveryConfig


class ExecutionBackend:
    """String constants naming the executor backends."""

    SERIAL = "serial"
    SHARDED = "sharded"

    ALL = (SERIAL, SHARDED)


#: shard size used when nothing (caller, config, upload) names one
DEFAULT_SHARD_ROWS = 4096


@dataclass
class ExecutionPlan:
    """One resolved discovery or detection run.

    The plan is pure data plus the :class:`DiscoveryConfig` it was
    planned from; executing it is the
    :class:`~repro.engine.executors.Executor`'s job.
    """

    kind: str  #: ``"discovery"`` or ``"detection"``
    backend: str  #: one of :class:`ExecutionBackend`
    config: DiscoveryConfig
    #: effective shard size (``0`` for the serial backend)
    shard_rows: int = 0
    #: estimated shard count (``0`` for the serial backend)
    n_shards: int = 0
    n_rows: int = 0
    #: ``"never"`` for a sharded upload, which runs end to end on its
    #: shard store; ``"eager"`` for a monolithic table
    materialization: str = "eager"
    #: the shard store backend the upload streams through (``"memory"``,
    #: ``"spill"`` or ``"object"``; meaningful for sharded uploads)
    store: str = "memory"
    #: which client serves the ``object`` store: ``"local"`` for the
    #: filesystem client, ``"http"`` for the remote client at
    #: ``config.object_url``, ``"none"`` for the other stores
    object_client: str = "none"
    #: how a re-check refreshes the rule set: ``"incremental"`` routes
    #: through the rule maintainer, ``"full"`` re-discovers from scratch
    #: (also what an incremental re-check falls back to on a structural
    #: change), ``"none"`` for plans that are not re-checks
    rule_maintenance: str = "none"
    #: human-readable routing decisions, in the order they were taken
    decisions: List[str] = field(default_factory=list)

    def describe(self) -> str:
        """The ``--explain-plan`` rendering: one summary line plus one
        indented line per recorded decision."""
        summary = f"execution plan ({self.kind}): backend={self.backend}"
        if self.backend == ExecutionBackend.SHARDED:
            summary += f" shards={self.n_shards}x{self.shard_rows} store={self.store}"
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
    sharded_upload: bool = False,
    upload_shard_rows: int = 0,
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
        The session's :class:`DiscoveryConfig` (supplies ``shard_rows``
        and the store).
    sharded_upload:
        Whether the dataset arrived as a :class:`ShardedTable` (e.g.
        streamed chunk-wise from CSV).
    upload_shard_rows:
        The upload's largest shard, used as the shard size when
        ``config.shard_rows`` does not name one.
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

    # -- backend selection ---------------------------------------------------
    if sharded_upload and config.shard_rows <= 0:
        backend = ExecutionBackend.SHARDED
        decisions.append("sharded upload detected")
    elif config.shard_rows > 0:
        backend = ExecutionBackend.SHARDED
        decisions.append(
            f"config.shard_rows={config.shard_rows} requests sharded execution"
        )
    else:
        backend = ExecutionBackend.SERIAL

    # -- effective shard size ------------------------------------------------
    shard_rows = 0
    n_shards = 0
    if backend == ExecutionBackend.SHARDED:
        if config.shard_rows > 0:
            shard_rows = config.shard_rows
        elif upload_shard_rows > 0:
            shard_rows = upload_shard_rows
            decisions.append(
                f"keeping the upload's shard size of {shard_rows} rows"
            )
        else:
            # a zero-row upload has no shard size of its own
            shard_rows = DEFAULT_SHARD_ROWS
        n_shards = max(1, math.ceil(n_rows / shard_rows)) if n_rows else 1

    # -- materialization -----------------------------------------------------
    # A sharded upload never builds a monolithic table: profiling,
    # discovery, detection and the edit loop all read through the shard
    # store (and the edit overlay).
    materialization = "never" if sharded_upload else "eager"
    if sharded_upload:
        decisions.append(
            "materialization=never: the sharded upload runs end to end "
            f"on its {config.store} shard store"
        )

    # -- object store client -------------------------------------------------
    # Which client serves the shard objects is a real routing decision —
    # shard bytes either stay on the local filesystem or cross the
    # network to config.object_url — so the plan records it explicitly.
    object_client = "none"
    if config.store == "object" and backend == ExecutionBackend.SHARDED:
        object_client = "http" if config.object_url else "local"
        decisions.append(
            f"shard objects go through the remote HTTP client at {config.object_url}"
            if config.object_url
            else "shard objects stay on the local filesystem client"
        )

    # -- rule maintenance ----------------------------------------------------
    # Only a re-check maintains; a first discovery has nothing to maintain.
    # Incremental maintenance additionally needs the sharded backend (the
    # maintainer diffs shard versions) and a seeded baseline.
    rule_maintenance = "none"
    if kind == "discovery" and recheck:
        if backend == ExecutionBackend.SHARDED and maintainable:
            rule_maintenance = "incremental"
            decisions.append(
                "re-check maintains the rule set incrementally from the "
                "seeded baseline (falls back to full re-discovery on "
                "structural changes)"
            )
        else:
            rule_maintenance = "full"
            decisions.append(
                "no maintainable rule baseline for this re-check "
                "(incremental maintenance needs a prior sharded discovery "
                "run); re-discovering from scratch"
                if backend == ExecutionBackend.SHARDED
                else f"rule maintenance needs the sharded backend, not "
                f"{backend}; re-discovering from scratch"
            )

    return ExecutionPlan(
        kind=kind,
        backend=backend,
        config=config,
        shard_rows=shard_rows,
        n_shards=n_shards,
        n_rows=n_rows,
        materialization=materialization,
        store=config.store,
        object_client=object_client,
        rule_maintenance=rule_maintenance,
        decisions=decisions,
    )


def plan_discovery(
    n_rows: int,
    config: Optional[DiscoveryConfig] = None,
    *,
    sharded_upload: bool = False,
    upload_shard_rows: int = 0,
    recheck: bool = False,
    maintainable: bool = False,
) -> ExecutionPlan:
    """Plan one discovery run (see :func:`plan_run`)."""
    return plan_run(
        "discovery",
        n_rows,
        config,
        sharded_upload=sharded_upload,
        upload_shard_rows=upload_shard_rows,
        recheck=recheck,
        maintainable=maintainable,
    )


def plan_detection(
    n_rows: int,
    config: Optional[DiscoveryConfig] = None,
    *,
    sharded_upload: bool = False,
    upload_shard_rows: int = 0,
) -> ExecutionPlan:
    """Plan one detection run (see :func:`plan_run`)."""
    return plan_run(
        "detection",
        n_rows,
        config,
        sharded_upload=sharded_upload,
        upload_shard_rows=upload_shard_rows,
    )
