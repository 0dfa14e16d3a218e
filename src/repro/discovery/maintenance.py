"""Incremental rule maintenance: edit batches as count deltas.

A batch of cell repairs moves a handful of rows from one ``(LHS value,
RHS value)`` pair to another, and γ, ρ and support are counting
conditions over those pairs — so a re-check patches counts instead of
re-mining.

:class:`RuleMaintainer` keeps the baseline of the last discovery run —
the sealed view, whose table-wide column encodings every column
keeps, the per-column profiles and the run's
:class:`~repro.kernels.mine.MiningState` — and, given the freshly sealed
view of the edited overlay, patches that state instead of re-mining,
without reading a shard:

1. **Cell diff.**  The new seal lists every cell it overrides
   (:meth:`~repro.sharding.overlay.OverlayShardStore.edited_cells`, in
   seal-global rows).  Each is compared with the baseline encoding's
   value at that row; a column is *changed* only if some cell really
   differs, so a batch that restored the original values dirties
   nothing.
2. **Patched encodings.**  Each changed column's baseline encoding is
   patched with its differing cells
   (:meth:`~repro.kernels.encoder.ColumnEncoding.with_cells`), which
   equals a fresh encoding of the new column and returns the code
   renumbering.  It goes into the new view's ``encodings`` field, and
   the baseline view's encodings of clean columns and pair groups of
   rule pairs over clean columns move into the new view's
   ``encodings`` and ``pair_groups`` fields (a sealed view is a
   snapshot, so nothing moved can go stale).  Pairs touching a changed
   column are regrouped from the encodings by the next
   :meth:`~repro.anmat.session.AnmatSession.run_detection`, not by the
   re-check: it hands the edit loop's detector over, which already
   holds the state of the rules it keeps.
3. **Profiles from counts.**  A changed column's profile is built from
   its patched encoding's distinct values and counts
   (:func:`~repro.dataset.profiling.profile_encoding`); clean columns
   reuse their baseline profile, so candidate generation sees what a
   full re-profile would.
4. **Count deltas.**  :meth:`~repro.kernels.mine.MiningState.patch`
   moves each edited row from its old ``(LHS, RHS)`` pair to its new
   one in the pair counts of every candidate over a changed column,
   tokenizes only the values the batch added and drops the verdicts of
   the entries whose value set changed.  Then the pipeline body full
   discovery runs after profiling
   (:meth:`~repro.discovery.discoverer.PfdDiscoverer._pipeline`)
   recomputes the candidates from the updated profile and selects
   every tableau from the state.  A candidate over clean columns took
   the empty delta, one new to the set is built fresh; the rule set is
   *identical* to a full re-discovery (the differential gate in
   ``tests/discovery/test_maintenance.py`` checks every report field).

:meth:`RuleMaintainer.maintain` raises
:class:`~repro.errors.DiscoveryError` for an unseeded maintainer and for
a view that is not a seal of the baseline's base: neither has a delta
to patch.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.dataset.profiling import TableProfile, profile_encoding
from repro.discovery.config import DiscoveryConfig
from repro.discovery.discoverer import DiscoveryResult, PfdDiscoverer
from repro.errors import DiscoveryError
from repro.kernels.encoder import ColumnEncoding
from repro.kernels.runtime import np
from repro.sharding.overlay import OverlayShardStore
from repro.sharding.sharded_table import ShardedTable


class RuleMaintainer:
    """Maintains a discovered rule set under overlay edit batches.

    Sits beside :class:`~repro.detection.incremental.IncrementalDetector`
    in the session: the detector keeps the *violations* current per
    edit, the maintainer keeps the *rules* current per re-check.  Seed
    it with a discovery run over a sharded view (:meth:`seed`), then
    hand each re-check's freshly sealed view to :meth:`maintain`.
    """

    def __init__(self, config: Optional[DiscoveryConfig] = None):
        #: supplies the pipeline body full discovery runs
        self.discoverer = PfdDiscoverer(config)
        self.config = self.discoverer.config
        self.timers = self.discoverer.timers
        self._view: Optional[ShardedTable] = None
        self._state = None
        self._profiles: Dict[str, object] = {}
        #: what the last :meth:`maintain` did (a plan decision line):
        #: candidate states patched, built fresh and left as they were,
        #: entries re-verified
        self.last_work = ""

    @property
    def seeded(self) -> bool:
        """Whether a baseline discovery run has been adopted."""
        return self._view is not None

    def seed(self, view: ShardedTable, result: DiscoveryResult) -> None:
        """Adopt a discovery run over ``view`` as the baseline.

        Cheap — stores references; the baseline encodings are the ones
        discovery left in ``view.encodings``.  The mining state moves
        out of ``result.mining_state`` into the maintainer, so it is
        released with the baseline.
        """
        self._view = view
        self._state, result.mining_state = result.mining_state, None
        self._profiles = dict(result.profile.columns)

    # -- the maintenance pass ---------------------------------------------------

    def maintain(
        self, view: ShardedTable, relation: Optional[str] = None
    ) -> DiscoveryResult:
        """Bring the rule set up to date with a freshly sealed view.

        Returns the maintained :class:`DiscoveryResult` — identical to a
        full re-discovery over ``view`` — and advances the baseline to
        it, patching the mining state in place (so a call that raises
        leaves a baseline to drop, not to reuse).  Raises
        :class:`~repro.errors.DiscoveryError` when the maintainer is
        unseeded or ``view`` is not a seal of the baseline's base; the
        baseline is left as it was.
        """
        started = time.perf_counter()
        if self._view is None or self._state is None:
            raise DiscoveryError(
                "the rule maintainer has no baseline; seed it with a discovery run"
            )
        cells = self._cells_since_baseline(view)
        state = self._state

        with self.timers.stage("patch"):
            patches = _patched_encodings(self._view.encodings, cells)
            self._carry_clean_artifacts(view, set(patches))
            view.encodings.update((name, patch.new) for name, patch in patches.items())
            state.patch(patches, view.encodings)

        with self.timers.stage("profile"):
            profile = TableProfile(
                n_rows=view.n_rows,
                columns={
                    name: profile_encoding(name, patches[name].new)
                    if name in patches
                    else self._profiles[name]
                    for name in view.column_names()
                },
            )
            view.table_profile = profile
        result = self.discoverer._pipeline(view, profile, state, relation, started)
        self.last_work = (
            f"mining state: {state.n_patched} candidates patched, {state.n_fresh} "
            f"built fresh, {state.n_reused} unchanged; "
            f"{sum(e.n_verified for e in state.lhs.values())} "
            "inverted-list entries re-verified"
        )
        # advance the baseline to the maintained state, which keeps the
        # mining state
        self._view, result.mining_state = view, None
        self._profiles = dict(profile.columns)
        return result

    # -- change detection -------------------------------------------------------

    def _cells_since_baseline(
        self, view: ShardedTable
    ) -> Iterable[Tuple[int, str, str]]:
        """The cells that turn the baseline view's columns into
        ``view``'s; raises :class:`~repro.errors.DiscoveryError` when
        ``view`` is not a seal of the baseline's base."""
        old_store, store = self._view.store, view.store
        if store is old_store:
            return ()
        if isinstance(store, OverlayShardStore) and store.extends(old_store):
            return store.edited_cells()
        raise DiscoveryError(
            "the view is not a seal of the rule baseline's base dataset; "
            "re-discover and re-seed"
        )

    # -- maintained statistics --------------------------------------------------

    def _carry_clean_artifacts(
        self, view: ShardedTable, changed_columns: Set[str]
    ) -> None:
        """Move the old view's encodings of clean columns, and the pair
        groups of pairs over clean columns, onto the new view.

        A clean column's values are the same on both seals, so its
        encoding — and any pair groups built only from clean encodings —
        equal what the new view would build.  The old view releases both
        kinds: what moved now belongs to the new view, and the rest
        describes a state no later op reads.
        """
        old_view = self._view
        if view is old_view:
            return  # nothing changed; the artifacts are already in place
        view.encodings.update(
            (name, encoding)
            for name, encoding in old_view.encodings.items()
            if name not in changed_columns
        )
        view.pair_groups.update(
            (pair, groups)
            for pair, groups in old_view.pair_groups.items()
            if changed_columns.isdisjoint(pair)
        )
        old_view.encodings.clear()
        old_view.pair_groups.clear()


def _patched_encodings(
    baseline: Dict[str, ColumnEncoding], cells: Iterable[Tuple[int, str, str]]
):
    """The :class:`~repro.kernels.mine.ColumnPatch` of every column some
    cell really changes: the baseline encoding with the differing cells
    written in."""
    # local import: see repro.discovery.discoverer.new_mining_state
    from repro.kernels.mine import ColumnPatch

    by_column: Dict[str, Tuple[List[int], List[str]]] = {}
    for row, name, value in cells:
        rows, values = by_column.setdefault(name, ([], []))
        rows.append(row)
        values.append(value)
    patched = {}
    for name, (rows, values) in by_column.items():
        encoding = baseline[name]
        distinct = encoding.distinct
        current = encoding.codes[np.asarray(rows, dtype=np.int64)].tolist()
        differing = [
            i for i, (code, value) in enumerate(zip(current, values))
            if distinct[code] != value
        ]
        if differing:
            rows = [rows[i] for i in differing]
            new, renumber = encoding.with_cells(rows, [values[i] for i in differing])
            patched[name] = ColumnPatch(
                encoding, new, np.unique(np.asarray(rows, dtype=np.int64)), renumber
            )
    return patched
