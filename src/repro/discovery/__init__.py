"""PFD discovery (Section 3, Figure 2 of the paper).

The pipeline mirrors the published algorithm:

1. :func:`candidate_dependencies` reads the table's profile and prunes
   attributes that cannot host PFDs (line 1).
2. For every candidate ``A → B``, the tokens or n-grams of ``t[A]`` key
   an inverted list of the tuples carrying them (lines 5–8).
3. The decision function ``f`` turns each entry whose tuples agree on
   one RHS constant, up to the allowed-violation ratio ρ, into a
   :class:`PatternTupleCandidate`; a greedy selection keeps the ones
   that add coverage (lines 10–12).
4. Tableaux whose coverage reaches the minimum-coverage threshold γ are
   emitted as PFDs (lines 13–14).

Variable PFDs (λ4/λ5-style, :class:`VariableCandidate`) come from
constrained prefixes for code-like attributes and constrained tokens for
multi-token attributes.  :meth:`PfdDiscoverer.mine_candidates` runs steps
2–4 through the kernels of :mod:`repro.kernels.mine`, over a sharded
view's column encodings (a plain table is one shard), for full discovery
and rule maintenance alike.
"""

from repro.discovery.config import DiscoveryConfig
from repro.discovery.candidates import CandidateDependency, candidate_dependencies
from repro.discovery.decision import PatternTupleCandidate
from repro.discovery.variable_miner import VariableCandidate
from repro.discovery.discoverer import DiscoveryResult, PfdDiscoverer
from repro.discovery.maintenance import RuleMaintainer

__all__ = [
    "DiscoveryConfig",
    "CandidateDependency",
    "candidate_dependencies",
    "PatternTupleCandidate",
    "VariableCandidate",
    "DiscoveryResult",
    "PfdDiscoverer",
    "RuleMaintainer",
]
