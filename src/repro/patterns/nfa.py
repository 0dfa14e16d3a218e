"""Epsilon-NFA construction and simulation for patterns.

Because the pattern language has no alternation and no nesting, every
pattern compiles to a small linear NFA: each element contributes its
required repetitions as a chain of states, followed by either optional
states (bounded quantifiers) or a single self-looping state (unbounded
quantifiers).  The same NFA is used for matching (simulation over the
input characters) and, in the tests' containment reference
(``tests/containment_reference.py``), for subset construction over a
finite symbolic alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.patterns.syntax import Atom, Element


@dataclass
class Nfa:
    """An epsilon-NFA whose transitions are labeled by pattern atoms."""

    n_states: int
    start: int
    accept: int
    #: (source state, atom, destination state)
    transitions: List[Tuple[int, Atom, int]] = field(default_factory=list)
    #: (source state, destination state)
    epsilons: List[Tuple[int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._eps_map: Dict[int, List[int]] = {}
        for src, dst in self.epsilons:
            self._eps_map.setdefault(src, []).append(dst)
        self._trans_map: Dict[int, List[Tuple[Atom, int]]] = {}
        for src, atom, dst in self.transitions:
            self._trans_map.setdefault(src, []).append((atom, dst))

    # -- core operations ------------------------------------------------------

    def epsilon_closure(self, states: Iterable[int]) -> FrozenSet[int]:
        """All states reachable from ``states`` via epsilon moves."""
        closure: Set[int] = set(states)
        stack = list(closure)
        while stack:
            state = stack.pop()
            for nxt in self._eps_map.get(state, ()):
                if nxt not in closure:
                    closure.add(nxt)
                    stack.append(nxt)
        return frozenset(closure)

    def step(self, states: Iterable[int], accepts: Callable[[Atom], bool]) -> FrozenSet[int]:
        """Advance one input symbol.

        ``accepts`` decides whether a transition atom accepts the symbol;
        for plain string matching it closes over the current character,
        for the containment reference over a symbolic alphabet atom.
        """
        nxt: Set[int] = set()
        for state in states:
            for atom, dst in self._trans_map.get(state, ()):
                if accepts(atom):
                    nxt.add(dst)
        return self.epsilon_closure(nxt)

    def matches_string(self, text: str) -> bool:
        """Simulate the NFA over ``text`` and report acceptance."""
        current = self.epsilon_closure([self.start])
        for char in text:
            if not current:
                return False
            current = self.step(current, lambda atom: atom.matches_char(char))
        return self.accept in current


def build_nfa(elements: Sequence[Element]) -> Nfa:
    """Compile a pattern element sequence into an epsilon-NFA."""
    transitions: List[Tuple[int, Atom, int]] = []
    epsilons: List[Tuple[int, int]] = []
    next_state = 1
    current = 0

    def new_state() -> int:
        nonlocal next_state
        state = next_state
        next_state += 1
        return state

    for element in elements:
        atom = element.atom
        quantifier = element.quantifier
        # mandatory repetitions form a chain
        for _ in range(quantifier.minimum):
            nxt = new_state()
            transitions.append((current, atom, nxt))
            current = nxt
        if quantifier.maximum is None:
            # unbounded tail: a single state with a self loop, reachable by
            # epsilon so that zero extra repetitions are allowed
            loop = new_state()
            epsilons.append((current, loop))
            transitions.append((loop, atom, loop))
            current = loop
        else:
            # bounded optional repetitions: a chain where every intermediate
            # state can epsilon-skip to the end
            extra = quantifier.maximum - quantifier.minimum
            if extra > 0:
                end = new_state()
                epsilons.append((current, end))
                prev = current
                for _ in range(extra):
                    nxt = new_state()
                    transitions.append((prev, atom, nxt))
                    epsilons.append((nxt, end))
                    prev = nxt
                current = end
    return Nfa(
        n_states=next_state,
        start=0,
        accept=current,
        transitions=transitions,
        epsilons=epsilons,
    )
