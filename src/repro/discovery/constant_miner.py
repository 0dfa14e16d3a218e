"""Mining constant PFDs for one candidate dependency.

This implements the body of the Figure 2 loop for a single ``A → B``:
build the inverted list over tokens/n-grams of ``A``, let the decision
function turn entries into pattern-tuple candidates, then greedily keep
the candidates that add coverage (so the tableau stays small and free of
redundant, more-specific patterns — ``900\\D{2}`` suppresses ``9000\\D``
when the latter covers no additional tuples).

:meth:`ConstantPfdMiner.mine` is the eager form: it decides every entry
and then selects.  The greedy selection itself is defined once, by
:meth:`ConstantPfdMiner.selection_key` (the order candidates are
considered in) and :meth:`ConstantPfdMiner.accepts` (the marginal
coverage test).  :meth:`ConstantPfdMiner.select` and the lazy kernel
walk of :func:`repro.kernels.mine.mine_constant_kernel`, which decides
only the entries the selection could still keep, both call them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.discovery.config import DiscoveryConfig
from repro.discovery.decision import DecisionFunction, MajorityDecision, PatternTupleCandidate
from repro.discovery.inverted_index import ColumnTokenization, InvertedList
from repro.kernels.runtime import np
from repro.perf.timers import StageTimers, stage_or_null


def _rows_bitmask(rows) -> int:
    """Pack a sequence of row ids into an int bitmask (bit i = row i)."""
    if not len(rows):
        return 0
    ids = np.asarray(rows)
    bits = np.zeros(int(ids.max()) + 1, dtype=bool)
    bits[ids] = True
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


class ConstantPfdMiner:
    """Produces the constant pattern tuples of one candidate dependency."""

    def __init__(
        self,
        config: Optional[DiscoveryConfig] = None,
        decision: Optional[DecisionFunction] = None,
    ):
        self.config = config or DiscoveryConfig()
        self.decision = decision or MajorityDecision()

    def mine(
        self,
        lhs_values: Sequence[str],
        rhs_values: Sequence[str],
        mode: str,
        tokenization: Optional[ColumnTokenization] = None,
        timers: Optional[StageTimers] = None,
    ) -> List[PatternTupleCandidate]:
        """Return the selected pattern tuples for ``A → B``.

        ``mode`` is the token extraction mode for the LHS column
        (``"token"``, ``"ngram"`` or ``"prefix"``).  ``tokenization``
        optionally supplies the LHS column's prebuilt single-pass
        tokenization (see :class:`ColumnTokenization`) so candidates
        sharing an LHS column do not re-tokenize it.  ``timers``
        optionally attributes the index-build and decision phases to
        pipeline stages.
        """
        with stage_or_null(timers, "index_build"):
            if tokenization is not None and tokenization.mode == mode:
                index = InvertedList.from_tokenization(tokenization, rhs_values)
            else:
                index = InvertedList.build(
                    lhs_values,
                    rhs_values,
                    mode=mode,
                    ngram_size=self.config.ngram_size,
                )
        with stage_or_null(timers, "mine_constant"):
            candidates: List[PatternTupleCandidate] = []
            for entry in index.entries(min_support=self.config.min_support):
                candidate = self.decision.decide(entry, lhs_values, self.config)
                if candidate is not None:
                    candidates.append(candidate)
            return self.select(candidates)

    @staticmethod
    def selection_key(support: int, agreement: float, pattern_text: str) -> Tuple:
        """The greedy selection's order: most covering first, then most
        agreeing, then the shorter (more general) pattern text.  Sorts
        are stable, so equal keys keep the decision order.  With an
        empty text it is the least key any pattern with that support
        and agreement can have."""
        return (-support, -agreement, len(pattern_text), pattern_text)

    def accepts(self, n_new: int, already_covered: bool) -> bool:
        """The marginal-coverage test of the greedy selection.

        ``n_new`` counts the candidate's tuples not yet covered by a
        kept candidate with the same RHS constant; ``already_covered``
        says whether any such candidate was kept.  The answer only gets
        stricter as ``n_new`` shrinks and once ``already_covered``
        holds, which is what lets the kernel reject an entry from an
        upper bound on its tuples.
        """
        if not n_new:
            return False
        # below the support floor, a more general kept pattern already
        # explains the rest
        return n_new >= self.config.min_support or not already_covered

    def select(self, candidates: List[PatternTupleCandidate]) -> List[PatternTupleCandidate]:
        """Greedy redundancy elimination.

        Candidates are considered in :meth:`selection_key` order; a
        candidate is kept when :meth:`accepts` passes on its tuples not
        yet covered by a kept candidate with the same RHS constant.
        Candidates with different RHS constants never suppress each
        other (they are different rules of the tableau).
        """
        ordered = sorted(
            candidates,
            key=lambda c: self.selection_key(c.support, c.agreement, c.pattern_text),
        )
        kept: List[PatternTupleCandidate] = []
        # Coverage is tracked as one int bitmask per RHS constant (bit i =
        # tuple i covered): a set of boxed row ids here peaks at tens of
        # megabytes on large columns, the bitmask at n_rows / 8 bytes.
        covered_by_rhs: dict = {}
        for candidate in ordered:
            if len(kept) >= self.config.max_tableau_rows:
                break
            already = covered_by_rhs.get(candidate.rhs_constant, 0)
            mask = _rows_bitmask(candidate.covered_tuple_ids)
            if not self.accepts((mask & ~already).bit_count(), bool(already)):
                continue
            kept.append(candidate)
            covered_by_rhs[candidate.rhs_constant] = already | mask
        return kept

    def coverage(
        self, candidates: Sequence[PatternTupleCandidate], lhs_values: Sequence[str]
    ) -> float:
        """Fraction of non-empty LHS values covered by the candidates
        (the quantity compared against γ in Figure 2, line 13)."""
        non_empty = [i for i, v in enumerate(lhs_values) if v != ""]
        if not non_empty:
            return 0.0
        covered = set()
        for candidate in candidates:
            covered.update(candidate.covered_tuple_ids)
        return len(covered & set(non_empty)) / len(non_empty)
