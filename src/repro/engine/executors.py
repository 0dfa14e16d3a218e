"""Executor backends: *how* an :class:`ExecutionPlan` runs.

Every discovery/detection run in the system goes ``plan →
executor.run(plan)``.  The two concrete backends map one-to-one onto
:class:`~repro.engine.plan.ExecutionBackend`:

* :class:`SerialExecutor` — the monolithic engines
  (:class:`~repro.discovery.discoverer.PfdDiscoverer`,
  :class:`~repro.detection.detector.ErrorDetector`), fully in-process.
* :class:`ShardedExecutor` — the sharded engines over a
  :class:`~repro.sharding.sharded_table.ShardedTable` (whose shards may
  live in any :class:`~repro.sharding.store.ShardStore`), in-process:
  discovery and detection share the table-wide column encodings.

Executors are stateless; :func:`build_executor` hands back the backend a
plan names.  The :class:`DataSource` wrapper owns the monolithic-table /
sharded-view duality (including the rebuild-on-edit caching of the
sharded view), so executors never branch on how the data arrived.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dataset.profiling import TableProfile, cached_profile_table
from repro.dataset.table import Table
from repro.detection.detector import ErrorDetector
from repro.detection.violation import ViolationReport
from repro.discovery.discoverer import DiscoveryResult, PfdDiscoverer
from repro.engine.plan import ExecutionBackend, ExecutionPlan
from repro.errors import DetectionError
from repro.pfd.pfd import PFD
from repro.sharding.detection import ShardedDetector
from repro.sharding.discovery import ShardedDiscoverer
from repro.sharding.overlay import ShardOverlay
from repro.sharding.sharded_table import ShardedTable
from repro.sharding.store import InMemoryShardStore


class DataSource:
    """One dataset behind the executors, monolithic or never-materialized.

    Two construction modes:

    * ``DataSource(table)`` — **monolithic**: the logical :class:`Table`
      is both :attr:`table` and :attr:`view`.  :meth:`sharded_view` cuts
      it into shards for a sharded run, rebuilding them only when the
      table was edited since they were cut or the partition size
      changed, so the merged-artifact caches survive between runs.
    * ``DataSource.from_sharded(sharded)`` — **never-materialized**: the
      dataset exists only as its :class:`ShardedTable`, and the source
      has no :attr:`table`.  :attr:`view` is a mutable
      :class:`~repro.sharding.overlay.ShardOverlay` over the immutable
      store — the session's row-addressable table and edit-loop target —
      and :meth:`sharded_view` seals the overlay back into shards for
      the re-check path.  The planner runs such a source on the sharded
      backend only.
    """

    def __init__(self, table: Table):
        #: the monolithic table (monolithic sources only)
        self.table = table
        #: the row-addressable logical dataset the session holds and
        #: edits: the table itself, or a shard overlay
        self.view = table
        self._upload_sharded: Optional[ShardedTable] = None
        self._sharded: Optional[ShardedTable] = None
        self._sharded_version: Optional[int] = None
        self._sharded_rows = 0

    @classmethod
    def from_sharded(cls, sharded: ShardedTable) -> "DataSource":
        """A never-materialized source: the dataset lives on its shard
        store, reads and edits go through a :class:`ShardOverlay`."""
        self = cls.__new__(cls)
        self.view = ShardOverlay(sharded)
        self._upload_sharded = sharded
        self._sharded_rows = max(sharded.shard_row_counts())
        #: (overlay version, shard_rows) → sealed sharded view
        self._view_cache: Optional[Tuple[Tuple[int, int], ShardedTable]] = None
        return self

    @property
    def is_sharded_upload(self) -> bool:
        """Whether the dataset arrived as shards (upload kind, not
        whether a sharded view happens to be cached)."""
        return self._upload_sharded is not None

    @property
    def upload_shard_rows(self) -> int:
        """The upload partition's largest shard (``0`` for monolithic
        uploads)."""
        return self._sharded_rows if self._upload_sharded is not None else 0

    def sharded_view(self, shard_rows: int) -> ShardedTable:
        """The sharded view of the current logical dataset at the
        requested shard size.

        Monolithic sources reuse the cached view until the table is
        edited or the partition size changes, then recut with
        ``from_table``.  Never-materialized sources go through the
        overlay instead: untouched overlays return the base shards
        directly (merged caches intact), touched overlays seal
        copy-on-read patched shards, and only an explicit partition-size
        mismatch streams a repartition — still never a monolithic table.
        """
        if self._upload_sharded is not None:
            return self._overlay_sharded_view(shard_rows)
        if (
            self._sharded is not None
            and self._sharded_version == self.table.version
            and shard_rows == self._sharded_rows
        ):
            return self._sharded
        shard_rows = max(1, shard_rows)
        self._sharded = ShardedTable.from_table(self.table, shard_rows)
        self._sharded_version = self.table.version
        self._sharded_rows = shard_rows
        return self._sharded

    def _overlay_sharded_view(self, shard_rows: int) -> ShardedTable:
        overlay = self.view
        matches_upload = shard_rows <= 0 or shard_rows == self._sharded_rows
        if matches_upload and not overlay.is_touched:
            return self._upload_sharded
        key = (overlay.version, shard_rows if not matches_upload else 0)
        if self._view_cache is not None and self._view_cache[0] == key:
            return self._view_cache[1]
        if matches_upload:
            view = overlay.as_sharded()
        else:
            view = _repartition_streaming(overlay, max(1, shard_rows))
        self._view_cache = (key, view)
        return view

    def profile(self) -> TableProfile:
        """Profile the logical dataset.  Never-materialized sources
        stream shard-major through the column builders (one resident
        shard at a time); monolithic sources profile the table directly.
        The output is identical either way, and cached per data version
        where discovery finds it again."""
        if self._upload_sharded is not None:
            return self.sharded_view(0).profile()
        return cached_profile_table(self.table)

    def close(self) -> None:
        """Release the backing shard store (spill files, object roots).
        A no-op for monolithic sources."""
        if self._upload_sharded is not None:
            self._upload_sharded.store.close()
            self._view_cache = None


def _repartition_streaming(overlay: ShardOverlay, shard_rows: int) -> ShardedTable:
    """Recut an overlay into shards of ``shard_rows`` rows by streaming
    its logical rows — one output shard buffered at a time, never the
    whole table."""
    schema = overlay.schema
    store = InMemoryShardStore()
    columns: List[List[str]] = [[] for _ in range(len(schema))]
    pending = 0
    for row in overlay.iter_rows():
        for column, value in zip(columns, row):
            column.append(value)
        pending += 1
        if pending == shard_rows:
            store.append(Table(schema, columns))
            columns = [[] for _ in range(len(schema))]
            pending = 0
    if pending or store.n_shards == 0:
        store.append(Table(schema, columns))
    return ShardedTable(store)


class Executor(ABC):
    """A backend that can run discovery/detection plans."""

    name: str

    @abstractmethod
    def run_discovery(
        self,
        plan: ExecutionPlan,
        source: DataSource,
        relation: Optional[str] = None,
    ) -> DiscoveryResult:
        """Run a discovery plan over the source."""

    @abstractmethod
    def run_detection(
        self,
        plan: ExecutionPlan,
        source: DataSource,
        rules: Sequence[PFD],
    ) -> ViolationReport:
        """Run a detection plan (the given rules) over the source."""


class SerialExecutor(Executor):
    """The monolithic engines, fully in-process."""

    name = ExecutionBackend.SERIAL

    def run_discovery(self, plan, source, relation=None):
        return PfdDiscoverer(plan.config).discover_with_report(
            source.table, relation=relation
        )

    def run_detection(self, plan, source, rules):
        return ErrorDetector(source.table).detect_all(rules)


class ShardedExecutor(Executor):
    """The sharded engines over the table-wide column encodings."""

    name = ExecutionBackend.SHARDED

    def run_discovery(self, plan, source, relation=None):
        return ShardedDiscoverer(plan.config).discover_with_report(
            source.sharded_view(plan.shard_rows), relation=relation
        )

    def run_detection(self, plan, source, rules):
        return ShardedDetector(source.sharded_view(plan.shard_rows)).detect_all(rules)


_EXECUTORS: Dict[str, Executor] = {
    ExecutionBackend.SERIAL: SerialExecutor(),
    ExecutionBackend.SHARDED: ShardedExecutor(),
}


def build_executor(plan: ExecutionPlan) -> Executor:
    """The executor backend a plan names (executors are stateless, so
    one shared instance per backend)."""
    try:
        return _EXECUTORS[plan.backend]
    except KeyError:
        raise DetectionError(f"plan names unknown backend {plan.backend!r}") from None
