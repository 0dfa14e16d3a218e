"""The literal Discover-PFDs loop (Figure 2 of the paper) over row lists.

This is the reference the mining kernels (:mod:`repro.kernels.mine`)
must match byte for byte: the same tableaux in the same order, the same
variable candidates, the same floats.  It replaces the scalar loop body
``src/`` used to carry (``InvertedList``, ``MajorityDecision.decide`` and
the miners' ``mine`` methods, reached through ``ReferenceMajority``).

Everything the loop decides is written out here, one row at a time:

* tokens by ``str.split`` and slicing (lines 6–7);
* the inverted list as a dict ``(key, position) → rows``, keys in order
  of first appearance (line 8);
* the decision function ``f`` by majority over the entry's rows, with
  the pattern re-checked by ``pattern.nfa.matches_string`` (lines 10–12);
* the greedy tableau selection over Python sets, and the tableau
  coverage compared against γ as a ratio of row sets (line 13);
* the variable prefix and token families blocked with plain dicts.

It uses no interning, ``MATCH_MEMO``, batch tokenizer or matcher, and no
numpy.  Shared with ``src/``: the mining limits (``NGRAM_SIZE``,
``MAX_TABLEAU_ROWS``, ``MAX_CONSTRAINED_TOKEN_POSITION``), candidate
generation (``candidate_dependencies``, which caps the LHS columns at
``MAX_CANDIDATE_COLUMNS``), the PFD assembly (``assemble_pfds``) and
the pattern synthesis — the ``generalize_*`` functions,
``contains_token_pattern``, ``token_constraint_pattern`` and
``constrained_prefix``, which ``tests/patterns`` and
``tests/discovery/test_decision.py`` check on their own.

Test modules import it as ``import figure2_reference`` (pytest puts this
directory, home of the root ``conftest.py``, on ``sys.path``).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.constrained.constrained_pattern import constrained_prefix
from repro.dataset.profiling import profile_table
from repro.dataset.rowids import row_ids
from repro.discovery import DiscoveryConfig, PfdDiscoverer, candidate_dependencies
from repro.discovery.decision import PatternTupleCandidate, contains_token_pattern
from repro.discovery.discoverer import DependencyReport, DiscoveryResult
from repro.discovery.variable_miner import VariableCandidate, token_constraint_pattern
from repro.kernels.mine import MAX_CONSTRAINED_TOKEN_POSITION, MAX_TABLEAU_ROWS
from repro.kernels.tokenize import NGRAM_SIZE
from repro.patterns.generalize import generalize_strings, generalize_with_literal_prefix
from repro.patterns.pattern import Pattern

#: what a token key strips from both ends of a word
PUNCTUATION = ".,;:!?\"'()[]{}"


# -- lines 6-8: tokens and the inverted list ------------------------------------------


def tokens(value: str, mode: str) -> List[Tuple[str, int, str]]:
    """``(key, position, text)`` of every token of one LHS value."""
    if value == "":
        return []
    if mode == "token":
        return [
            (word.strip(PUNCTUATION) or word, position, word)
            for position, word in enumerate(value.split())
        ]
    if mode == "ngram":
        starts = range(len(value) - NGRAM_SIZE + 1)
        return [(value[s : s + NGRAM_SIZE], s, value[s : s + NGRAM_SIZE]) for s in starts]
    if mode == "prefix":
        sizes = [size for size in (1, 2, 3, 4, 5) if size <= len(value)]
        return [(value[:size], 0, value[:size]) for size in sizes]
    raise ValueError(f"unknown token mode {mode!r}")


def inverted_list(lhs_values: Sequence[str], mode: str) -> Dict[Tuple[str, int], List[int]]:
    """``(key, position) → rows`` carrying that token, rows ascending."""
    index: Dict[Tuple[str, int], List[int]] = {}
    for row, value in enumerate(lhs_values):
        for key, position, _text in tokens(value, mode):
            index.setdefault((key, position), []).append(row)
    return index


# -- lines 10-13: the decision function, the tableau and γ ---------------------------


def decide(
    token: str,
    position: int,
    rows: List[int],
    lhs_values: Sequence[str],
    rhs_values: Sequence[str],
    config: DiscoveryConfig,
) -> Optional[PatternTupleCandidate]:
    """``f``: the pattern tuple one entry forms, or ``None``."""
    if len(rows) < config.min_support:
        return None
    counts: Dict[str, int] = {}
    for row in rows:
        counts[rhs_values[row]] = counts.get(rhs_values[row], 0) + 1
    top = max(counts, key=lambda value: (counts[value], value))
    if top == "" or counts[top] / len(rows) < config.min_agreement:
        return None
    covered_values = [lhs_values[row] for row in rows]
    if position == 0 and all(value.startswith(token) for value in covered_values):
        pattern = generalize_with_literal_prefix(covered_values, len(token))
    else:
        pattern = contains_token_pattern(token, position, covered_values)
    if pattern is None:
        return None
    matching = [row for row in rows if pattern.nfa.matches_string(lhs_values[row])]
    if len(matching) < config.min_support:
        return None
    agreeing = [row for row in matching if rhs_values[row] == top]
    if len(agreeing) / len(matching) < config.min_agreement:
        return None
    return PatternTupleCandidate(
        lhs_pattern=pattern,
        rhs_constant=top,
        support=len(matching),
        agreement=len(agreeing) / len(matching),
        covered_tuple_ids=row_ids(matching),
        violating_tuple_ids=row_ids(row for row in matching if rhs_values[row] != top),
        source_token=token,
        source_position=position,
    )


def select(
    candidates: List[PatternTupleCandidate], config: DiscoveryConfig
) -> List[PatternTupleCandidate]:
    """The greedy tableau: most covering first, then most agreeing, then
    the shorter pattern text (stable, so ties keep decision order).  A
    candidate is kept when it covers rows no kept candidate with its
    RHS constant covers — at least ``min_support`` of them once one
    was kept."""
    ordered = sorted(
        candidates,
        key=lambda c: (-c.support, -c.agreement, len(c.pattern_text), c.pattern_text),
    )
    kept: List[PatternTupleCandidate] = []
    covered: Dict[str, set] = {}
    for candidate in ordered:
        if len(kept) >= MAX_TABLEAU_ROWS:
            break
        already = covered.get(candidate.rhs_constant, set())
        new = set(candidate.covered_tuple_ids) - already
        if not new or (already and len(new) < config.min_support):
            continue
        kept.append(candidate)
        covered[candidate.rhs_constant] = already | new
    return kept


def coverage(candidates: Sequence[PatternTupleCandidate], lhs_values: Sequence[str]) -> float:
    """Covered rows over non-empty LHS rows."""
    non_empty = {row for row, value in enumerate(lhs_values) if value != ""}
    if not non_empty:
        return 0.0
    covered = set()
    for candidate in candidates:
        covered.update(candidate.covered_tuple_ids)
    return len(covered & non_empty) / len(non_empty)


def mine_constant(
    lhs_values: Sequence[str], rhs_values: Sequence[str], mode: str, config: DiscoveryConfig
) -> List[PatternTupleCandidate]:
    """The selected pattern tuples of ``A → B``, before γ."""
    candidates = []
    for (token, position), rows in inverted_list(lhs_values, mode).items():
        candidate = decide(token, position, rows, lhs_values, rhs_values, config)
        if candidate is not None:
            candidates.append(candidate)
    return select(candidates, config)


# -- variable PFDs ------------------------------------------------------------------


def block_agreement(blocks: Dict[object, List[str]]) -> Tuple[float, int, int]:
    """(rows agreeing with their block's majority / rows, #blocks,
    #blocks with two or more rows)."""
    total = agreeing = multi = 0
    for rhs_values in blocks.values():
        counts: Dict[str, int] = {}
        for value in rhs_values:
            counts[value] = counts.get(value, 0) + 1
        total += len(rhs_values)
        agreeing += max(counts.values())
        multi += len(rhs_values) >= 2
    if total == 0:
        return 0.0, 0, 0
    return agreeing / total, len(blocks), multi


def _passes(agreement, n_blocks, n_multi, coverage_, config) -> bool:
    return (
        n_multi >= 1
        and n_blocks >= 2
        and agreement >= config.min_agreement
        and coverage_ >= config.min_coverage
    )


def mine_prefix(
    pairs: List[Tuple[str, str]], n_rows: int, config: DiscoveryConfig
) -> Optional[VariableCandidate]:
    """λ5: the shortest prefix length whose blocks determine the RHS."""
    lengths = sorted({len(lhs) for lhs, _ in pairs})
    typical_length = lengths[len(lengths) // 2]
    for k in range(1, typical_length):
        usable = [(lhs, rhs) for lhs, rhs in pairs if len(lhs) > k]
        if len(usable) < 2 * config.min_support:
            continue
        blocks: Dict[str, List[str]] = {}
        for lhs, rhs in usable:
            blocks.setdefault(lhs[:k], []).append(rhs)
        agreement, n_blocks, n_multi = block_agreement(blocks)
        coverage_ = len(usable) / max(1, n_rows)
        if not _passes(agreement, n_blocks, n_multi, coverage_, config):
            continue
        remainder = generalize_strings([lhs[k:] for lhs, _ in usable])
        if remainder is None:
            remainder = Pattern.any_string()
        head = generalize_strings([lhs[:k] for lhs, _ in usable])
        return VariableCandidate(
            constrained_pattern=constrained_prefix(k, remainder, head=head),
            coverage=coverage_,
            agreement=agreement,
            n_blocks=n_blocks,
            n_multi_blocks=n_multi,
            description=f"first {k} characters determine the RHS",
        )
    return None


def mine_token(
    pairs: List[Tuple[str, str]], n_rows: int, config: DiscoveryConfig
) -> Optional[VariableCandidate]:
    """λ4: the first token position whose blocks determine the RHS."""
    split = [(lhs.split(), rhs) for lhs, rhs in pairs]
    for position in range(MAX_CONSTRAINED_TOKEN_POSITION + 1):
        usable = [(words, rhs) for words, rhs in split if len(words) > position]
        if len(usable) < 2 * config.min_support:
            continue
        blocks: Dict[str, List[str]] = {}
        for words, rhs in usable:
            word = words[position]
            blocks.setdefault(word.strip(PUNCTUATION) or word, []).append(rhs)
        agreement, n_blocks, n_multi = block_agreement(blocks)
        coverage_ = len(usable) / max(1, n_rows)
        if not _passes(agreement, n_blocks, n_multi, coverage_, config):
            continue
        pattern = token_constraint_pattern([words for words, _ in usable], position)
        nfa = pattern.embedded_pattern().nfa
        matched = sum(1 for words, _ in usable if nfa.matches_string(" ".join(words)))
        if matched / len(usable) < config.min_coverage:
            continue
        return VariableCandidate(
            constrained_pattern=pattern,
            coverage=coverage_,
            agreement=agreement,
            n_blocks=n_blocks,
            n_multi_blocks=n_multi,
            description=f"the token at position {position} determines the RHS",
        )
    return None


def mine_variable(
    lhs_values: Sequence[str], rhs_values: Sequence[str], mode: str, config: DiscoveryConfig
) -> List[VariableCandidate]:
    """The variable candidate of ``A → B`` over rows with both values."""
    pairs = [(lhs, rhs) for lhs, rhs in zip(lhs_values, rhs_values) if lhs != "" and rhs != ""]
    if len(pairs) < 2 * config.min_support:
        return []
    mine = mine_prefix if mode in ("prefix", "ngram") else mine_token
    found = mine(pairs, len(lhs_values), config)
    return [found] if found is not None else []


# -- the loop -----------------------------------------------------------------------


def mine_report(candidate, lhs_values, rhs_values, config: DiscoveryConfig) -> DependencyReport:
    """One iteration of the loop: mine ``A → B`` and apply γ."""
    started = time.perf_counter()
    report = DependencyReport(candidate=candidate)
    report.constant_candidates = mine_constant(lhs_values, rhs_values, candidate.lhs_mode, config)
    report.coverage = coverage(report.constant_candidates, lhs_values)
    report.variable_candidates = mine_variable(lhs_values, rhs_values, candidate.lhs_mode, config)
    constant_ok = bool(report.constant_candidates) and report.coverage >= config.min_coverage
    if not constant_ok:
        report.constant_candidates = []
    report.accepted = constant_ok or bool(report.variable_candidates)
    report.elapsed_seconds = time.perf_counter() - started
    return report


def discover(table, config: Optional[DiscoveryConfig] = None, relation=None) -> DiscoveryResult:
    """Discover-PFDs over a table (anything with ``column`` and
    ``column_names``, profiled by ``profile_table``)."""
    started = time.perf_counter()
    config = config or DiscoveryConfig()
    profile = profile_table(table)
    candidates = candidate_dependencies(table, config, profile)
    reports = [
        mine_report(c, list(table.column(c.lhs)), list(table.column(c.rhs)), config)
        for c in candidates
    ]
    return DiscoveryResult(
        pfds=PfdDiscoverer(config).assemble_pfds(candidates, reports, relation),
        reports=reports,
        profile=profile,
        config=config,
        elapsed_seconds=time.perf_counter() - started,
    )
