"""Execution planning: *what* to run is decided once, in one place.

Every discovery/detection run first builds an :class:`ExecutionPlan`
from the observable inputs (table size, ``shard_rows``, ``n_workers``,
detection strategy, whether the upload arrived sharded), and the
matching :class:`~repro.engine.executors.Executor` backend then runs the
plan.  There are two backends: the monolithic ``serial`` engines and
the ``sharded`` engines, which are also the one route for process
fan-out — ``n_workers > 1`` spreads their per-shard detection work over a
:class:`~repro.engine.worker_pool.WorkerPool`.

The plan records every routing decision it takes as a human-readable
line (``plan.decisions``), so ``--explain-plan`` and post-mortems can
show *why* a backend was chosen.  Decisions that silently change what
the user asked for — notably an explicit detection strategy forcing a
sharded run back onto the monolithic engine — additionally raise a
:class:`PlanWarning`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import List, Optional

from repro.detection.detector import DetectionStrategy
from repro.discovery.config import DiscoveryConfig
from repro.errors import DetectionError


class ExecutionBackend:
    """String constants naming the executor backends."""

    SERIAL = "serial"
    SHARDED = "sharded"

    ALL = (SERIAL, SHARDED)


#: shard size used when a run goes sharded but nothing (config, upload)
#: names one — a monolithic table fanned out over workers is cut here
DEFAULT_SHARD_ROWS = 4096


class PlanWarning(UserWarning):
    """A plan decision silently overrode something the user asked for."""


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
    #: detection strategy handed to the monolithic engine (``"auto"``
    #: for discovery plans and for the sharded backend)
    strategy: str = DetectionStrategy.AUTO
    #: effective per-shard fan-out workers (``<= 1`` means fully serial
    #: stages; always ``0`` on the serial backend)
    n_workers: int = 0
    #: effective shard size (``0`` for the serial backend)
    shard_rows: int = 0
    #: estimated shard count (``0`` for the serial backend)
    n_shards: int = 0
    n_rows: int = 0
    #: resolved materialization mode: ``"never"`` when a sharded upload
    #: runs end to end on its shard store, ``"eager"`` when a monolithic
    #: table is (or already was) built for the run
    materialization: str = "eager"
    #: the shard store backend the upload streams through (``"memory"``,
    #: ``"spill"`` or ``"object"``; meaningful for sharded uploads)
    store: str = "memory"
    #: which client serves the ``object`` store: ``"local"`` for the
    #: filesystem client, ``"http"`` for the remote client at
    #: ``config.object_url``, ``"none"`` for the other stores
    object_client: str = "none"
    #: how many shard objects ahead the ``object`` store's reader
    #: fetches on background threads (``0`` = sequential reads; only
    #: meaningful when ``store`` is ``"object"``)
    prefetch_depth: int = 0
    #: how a re-check refreshes the rule set: ``"incremental"`` routes
    #: through the rule maintainer, ``"full"`` re-discovers from scratch,
    #: ``"none"`` for plans that are not re-checks
    rule_maintenance: str = "none"
    #: human-readable routing decisions, in the order they were taken
    decisions: List[str] = field(default_factory=list)

    def describe(self) -> str:
        """The ``--explain-plan`` rendering: one summary line plus one
        indented line per recorded decision."""
        if self.backend == ExecutionBackend.SHARDED:
            shape = f"shards={self.n_shards}x{self.shard_rows} store={self.store}"
            if self.object_client != "none":
                shape += f"[{self.object_client}]"
        else:
            shape = f"strategy={self.strategy}"
        maintenance = (
            f" rule_maintenance={self.rule_maintenance}"
            if self.rule_maintenance != "none"
            else ""
        )
        prefetch = (
            f" prefetch_depth={self.prefetch_depth}" if self.prefetch_depth > 0 else ""
        )
        lines = [
            f"execution plan ({self.kind}): backend={self.backend} "
            f"{shape} workers={self.n_workers} rows={self.n_rows}"
            f"{prefetch}{maintenance}"
        ]
        lines.extend(f"  - {decision}" for decision in self.decisions)
        return "\n".join(lines)


def plan_run(
    kind: str,
    n_rows: int,
    config: Optional[DiscoveryConfig] = None,
    *,
    strategy: str = DetectionStrategy.AUTO,
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
        and ``n_workers``).
    strategy:
        Detection only — the requested monolithic strategy; anything
        other than ``auto`` pins the run to the serial backend.
    sharded_upload:
        Whether the dataset arrived as a :class:`ShardedTable` (e.g.
        streamed chunk-wise from CSV).
    upload_shard_rows:
        The upload's largest shard, used as the shard size when
        ``config.shard_rows`` does not name one.
    recheck:
        Discovery only — whether this run refreshes an existing rule set
        after edits (``AnmatSession.recheck()``) rather than discovering
        from scratch; enables the rule-maintenance resolution below.
    maintainable:
        Whether a seeded :class:`~repro.discovery.maintenance.RuleMaintainer`
        baseline exists for the dataset being re-checked.
    """
    if kind not in ("discovery", "detection"):
        raise ValueError(f"unknown plan kind {kind!r}")
    if kind == "detection" and strategy not in DetectionStrategy.ALL:
        raise DetectionError(
            f"unknown strategy {strategy!r}; expected one of {DetectionStrategy.ALL}"
        )
    config = config or DiscoveryConfig()
    decisions: List[str] = []

    # -- backend selection ---------------------------------------------------
    n_workers = config.n_workers
    if sharded_upload and config.shard_rows <= 0:
        backend = ExecutionBackend.SHARDED
        decisions.append("sharded upload detected")
    elif config.shard_rows > 0:
        backend = ExecutionBackend.SHARDED
        decisions.append(
            f"config.shard_rows={config.shard_rows} requests sharded execution"
        )
    elif n_workers > 1:
        backend = ExecutionBackend.SHARDED
        decisions.append(
            f"config.n_workers={n_workers} requests process fan-out, which "
            "runs per shard on the sharded backend"
        )
    else:
        backend = ExecutionBackend.SERIAL

    # -- an explicit strategy pins detection to the monolithic engine --------
    if (
        kind == "detection"
        and strategy != DetectionStrategy.AUTO
        and backend == ExecutionBackend.SHARDED
    ):
        backend = ExecutionBackend.SERIAL
        reason = (
            f"explicitly requested strategy {strategy!r} runs the monolithic "
            "serial backend; shard parallelism is skipped (the sharded "
            "backend has its own distinct-value strategy)"
        )
        if n_workers > 1:
            reason += f"; config.n_workers={n_workers} is ignored"
        decisions.append(reason)
        warnings.warn(reason, PlanWarning, stacklevel=2)
    if backend == ExecutionBackend.SERIAL:
        n_workers = 0

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
            shard_rows = DEFAULT_SHARD_ROWS
            decisions.append(
                f"the monolithic table is cut into shards of {shard_rows} "
                "rows (the default shard_rows) for the worker fan-out"
            )
        shard_rows = max(1, shard_rows)
        n_shards = max(1, math.ceil(n_rows / shard_rows)) if n_rows else 1

    # -- materialization -----------------------------------------------------
    # A sharded upload that runs on the sharded backend never builds a
    # monolithic table: profiling, discovery, detection and the edit loop
    # all read through the shard store (and the edit overlay).  Any other
    # combination materializes.
    materialization = "eager"
    if sharded_upload:
        if backend == ExecutionBackend.SHARDED:
            materialization = "never"
            decisions.append(
                "materialization=never: the sharded upload runs end to end "
                f"on its {config.store} shard store"
            )
        else:
            decisions.append(
                f"materialization=eager: the {backend} backend materializes "
                "the sharded upload into one monolithic table"
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

    # -- pipelined execution -------------------------------------------------
    # The pool only matters when a fan-out will actually run — only
    # detection maps per-shard work over it; prefetch only matters when
    # shard bytes leave the process (the object store), so both decisions
    # are recorded exactly then.
    if kind == "detection" and n_workers > 1:
        decisions.append(
            f"per-shard pair groups fan out over a WorkerPool of {n_workers} "
            "processes (a session keeps it warm across detection runs and "
            "closes it with the session)"
        )
    prefetch_depth = 0
    if config.store == "object" and backend == ExecutionBackend.SHARDED:
        prefetch_depth = config.prefetch_depth
        if prefetch_depth > 0:
            decisions.append(
                f"prefetch_depth={prefetch_depth}: shard objects are "
                "fetched and checksum-verified ahead on background threads"
            )
        else:
            decisions.append(
                "prefetch_depth=0: shard objects are read sequentially "
                "on the compute path"
            )

    # -- rule maintenance ----------------------------------------------------
    # Only a re-check maintains; a first discovery has nothing to maintain.
    # Incremental maintenance additionally needs the sharded backend (the
    # maintainer diffs shard versions) and a seeded baseline.
    rule_maintenance = "none"
    if kind == "discovery" and recheck:
        requested = config.rule_maintenance
        if requested == "full":
            rule_maintenance = "full"
            decisions.append(
                "rule_maintenance='full' requested: the re-check re-discovers "
                "from scratch"
            )
        elif backend != ExecutionBackend.SHARDED or not maintainable:
            rule_maintenance = "full"
            reason = (
                "no maintainable rule baseline for this re-check "
                "(incremental maintenance needs a prior sharded discovery "
                "run); re-discovering from scratch"
                if backend == ExecutionBackend.SHARDED
                else f"rule maintenance needs the sharded backend, not "
                f"{backend}; re-discovering from scratch"
            )
            decisions.append(reason)
            if requested == "incremental":
                warnings.warn(reason, PlanWarning, stacklevel=2)
        else:
            rule_maintenance = "incremental"
            decisions.append(
                "re-check maintains the rule set incrementally from the "
                "seeded baseline (falls back to full re-discovery on "
                "structural changes)"
            )

    return ExecutionPlan(
        kind=kind,
        backend=backend,
        config=config,
        strategy=strategy if kind == "detection" else DetectionStrategy.AUTO,
        n_workers=n_workers,
        shard_rows=shard_rows,
        n_shards=n_shards,
        n_rows=n_rows,
        materialization=materialization,
        store=config.store,
        object_client=object_client,
        prefetch_depth=prefetch_depth,
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
    strategy: str = DetectionStrategy.AUTO,
    sharded_upload: bool = False,
    upload_shard_rows: int = 0,
) -> ExecutionPlan:
    """Plan one detection run (see :func:`plan_run`)."""
    return plan_run(
        "detection",
        n_rows,
        config,
        strategy=strategy,
        sharded_upload=sharded_upload,
        upload_shard_rows=upload_shard_rows,
    )
