"""Pattern containment ``P ⊆ P'``, for tests: every string matching P
matches P'.

No route in ``src/`` decides containment; ``tests/patterns`` uses this
as the oracle that the generalization levels of a value are ordered by
containment and that containment agrees with matching on samples.

General regular-expression containment is PSPACE-complete, which is one
of the reasons the paper restricts the pattern language.  Within the
restricted language the check stays cheap: patterns compile to small
linear NFAs, and the *symbolic alphabet* needed to compare two patterns
is finite — every literal character mentioned by either pattern plus one
"residual" symbol per character class (standing for all remaining members
of that class).  We determinize both NFAs over that symbolic alphabet and
search the product automaton for a string accepted by P but not by P'.

Test modules import it as ``import containment_reference`` (pytest puts
this directory, home of the root ``conftest.py``, on ``sys.path``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Tuple, Union

from repro.patterns.alphabet import CharClass, classify_char
from repro.patterns.nfa import Nfa
from repro.patterns.syntax import ClassAtom, Literal

#: A symbolic alphabet symbol: either a concrete literal character or the
#: residual of a character class (all members not named as literals).
SymbolicChar = Tuple[str, Union[str, CharClass]]

_RESIDUAL_CLASSES = (
    CharClass.UPPER,
    CharClass.LOWER,
    CharClass.DIGIT,
    CharClass.SYMBOL,
)


def _symbolic_alphabet(patterns: Sequence) -> List[SymbolicChar]:
    """Build the finite symbolic alphabet covering both patterns."""
    literals = set()
    for pattern in patterns:
        for element in pattern.elements:
            if isinstance(element.atom, Literal):
                literals.add(element.atom.char)
    alphabet: List[SymbolicChar] = [("lit", c) for c in sorted(literals)]
    class_sizes = {CharClass.UPPER: 26, CharClass.LOWER: 26, CharClass.DIGIT: 10}
    for char_class in _RESIDUAL_CLASSES:
        # The residual is empty only if every member of the class appears
        # as a literal (possible only for the finite classes).
        members_named = {c for c in literals if classify_char(c) is char_class}
        size = class_sizes.get(char_class)
        if size is None or len(members_named) < size:
            alphabet.append(("res", char_class))
    return alphabet


def _atom_accepts_symbol(atom, symbol: SymbolicChar) -> bool:
    """Whether a pattern atom accepts a symbolic alphabet symbol."""
    kind, payload = symbol
    if isinstance(atom, Literal):
        return kind == "lit" and payload == atom.char
    if isinstance(atom, ClassAtom):
        char_class = atom.char_class
        if kind == "lit":
            return char_class.contains_char(payload)  # type: ignore[arg-type]
        if char_class is CharClass.ANY:
            return True
        return char_class is payload
    raise TypeError(f"unknown atom type {atom!r}")


def _determinize(
    nfa: Nfa, alphabet: Sequence[SymbolicChar]
) -> Tuple[Dict[FrozenSet[int], Dict[SymbolicChar, FrozenSet[int]]], FrozenSet[int]]:
    """Subset construction of the NFA over the symbolic alphabet."""
    start = nfa.epsilon_closure([nfa.start])
    table: Dict[FrozenSet[int], Dict[SymbolicChar, FrozenSet[int]]] = {}
    stack = [start]
    while stack:
        state = stack.pop()
        if state in table:
            continue
        row: Dict[SymbolicChar, FrozenSet[int]] = {}
        for symbol in alphabet:
            nxt = nfa.step(state, lambda atom: _atom_accepts_symbol(atom, symbol))
            row[symbol] = nxt
            if nxt and nxt not in table:
                stack.append(nxt)
        table[state] = row
    table.setdefault(frozenset(), {s: frozenset() for s in alphabet})
    return table, start


def pattern_contains(inner, outer) -> bool:
    """Return True iff ``inner ⊆ outer`` (outer is at least as general).

    Both arguments are :class:`~repro.patterns.pattern.Pattern` objects.
    """
    alphabet = _symbolic_alphabet([inner, outer])
    inner_dfa, inner_start = _determinize(inner.nfa, alphabet)
    outer_dfa, outer_start = _determinize(outer.nfa, alphabet)

    def accepting(nfa: Nfa, state: FrozenSet[int]) -> bool:
        return nfa.accept in state

    seen = set()
    stack = [(inner_start, outer_start)]
    while stack:
        pair = stack.pop()
        if pair in seen:
            continue
        seen.add(pair)
        inner_state, outer_state = pair
        if accepting(inner.nfa, inner_state) and not accepting(outer.nfa, outer_state):
            return False
        if not inner_state:
            # inner automaton is dead — no further counterexample possible
            continue
        for symbol in alphabet:
            nxt_inner = inner_dfa[inner_state][symbol]
            nxt_outer = outer_dfa.get(outer_state, {}).get(symbol, frozenset())
            if not nxt_inner:
                continue
            stack.append((nxt_inner, nxt_outer))
    return True
