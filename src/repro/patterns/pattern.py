"""The :class:`Pattern` value type.

A pattern is an immutable sequence of quantified atoms.  It knows how to
render itself back to the paper's syntax, match strings (via NFA
simulation or a compiled Python regex), and expose structural facts used
elsewhere (literal prefix for indexing, minimum/maximum length, the set
of character classes it mentions, …).
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import PatternSyntaxError
from repro.patterns.alphabet import CharClass
from repro.patterns.nfa import Nfa, build_nfa
from repro.patterns.regex import compile_to_regex
from repro.patterns.syntax import ClassAtom, Element, Literal, ONE, Quantifier

_ANY_STAR_TEXT = "\\A*"

_UNSET = object()


class Pattern:
    """An immutable pattern over the generalization-tree alphabet.

    Each instance compiles its regex and builds its NFA on first use
    and keeps them in its own slots, so hot matching loops pay no
    lookup cost; the hash and rendered text are memoized the same way.
    """

    __slots__ = ("_elements", "_source", "_hash", "_text", "_regex", "_nfa")

    def __init__(self, elements: Iterable[Element], source: Optional[str] = None):
        self._elements: Tuple[Element, ...] = tuple(elements)
        for element in self._elements:
            if not isinstance(element, Element):
                raise PatternSyntaxError(
                    f"Pattern expects Element instances, got {element!r}"
                )
        self._source = source
        self._hash: Optional[int] = None
        self._text: Optional[str] = None
        self._regex = _UNSET  # None is a valid cached value (compile failure)
        self._nfa: Optional[Nfa] = None

    # -- constructors ----------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Pattern":
        """Parse pattern text (delegates to :mod:`repro.patterns.parser`)."""
        from repro.patterns.parser import parse_elements

        return cls(parse_elements(text), source=text)

    @classmethod
    def literal(cls, text: str) -> "Pattern":
        """A pattern matching exactly ``text``."""
        return cls([Element(Literal(c), ONE) for c in text])

    @classmethod
    def any_string(cls) -> "Pattern":
        """The most general pattern ``\\A*``."""
        return cls.parse(_ANY_STAR_TEXT)

    @classmethod
    def of_class(cls, char_class: CharClass, quantifier: Quantifier = ONE) -> "Pattern":
        """A single-class pattern such as ``\\D{5}``."""
        return cls([Element(ClassAtom(char_class), quantifier)])

    # -- structure -------------------------------------------------------------

    @property
    def elements(self) -> Tuple[Element, ...]:
        return self._elements

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(self._elements)

    def __getitem__(self, index: int) -> Element:
        return self._elements[index]

    def is_empty(self) -> bool:
        """Whether this pattern only matches the empty string trivially."""
        return all(e.quantifier.minimum == 0 for e in self._elements)

    def is_literal_only(self) -> bool:
        """Whether every atom is a literal with a fixed single repetition."""
        return all(
            isinstance(e.atom, Literal) and e.quantifier.is_single
            for e in self._elements
        )

    def literal_text(self) -> Optional[str]:
        """The exact string matched when the pattern is literal-only."""
        if not self.is_literal_only():
            return None
        return "".join(e.atom.char for e in self._elements)  # type: ignore[union-attr]

    def literal_prefix(self) -> str:
        """Longest leading run of fixed literal characters.

        The detection engine buckets column values by literal prefix so a
        constant PFD such as ``850\\D{7}`` only inspects the values that
        start with ``850``.
        """
        prefix = []
        for element in self._elements:
            if isinstance(element.atom, Literal) and element.quantifier.is_single:
                prefix.append(element.atom.char)
            else:
                break
        return "".join(prefix)

    def char_classes(self) -> List[CharClass]:
        """The distinct character classes mentioned, in order of appearance."""
        seen: List[CharClass] = []
        for element in self._elements:
            if isinstance(element.atom, ClassAtom) and element.atom.char_class not in seen:
                seen.append(element.atom.char_class)
        return seen

    def min_length(self) -> int:
        """Minimum number of characters a matching string can have."""
        return sum(e.quantifier.minimum for e in self._elements)

    def max_length(self) -> Optional[int]:
        """Maximum matching length, or None when unbounded."""
        total = 0
        for element in self._elements:
            if element.quantifier.maximum is None:
                return None
            total += element.quantifier.maximum
        return total

    def is_fixed_length(self) -> bool:
        """Whether every match has the same length."""
        maximum = self.max_length()
        return maximum is not None and maximum == self.min_length()

    def concat(self, other: "Pattern") -> "Pattern":
        """Concatenate two patterns."""
        return Pattern(self._elements + other.elements)

    def slice(self, start: int, stop: Optional[int] = None) -> "Pattern":
        """A sub-pattern over an element range."""
        return Pattern(self._elements[start:stop])

    # -- rendering ---------------------------------------------------------------

    def to_text(self) -> str:
        """Render back to the paper's concrete syntax (memoized)."""
        text = self._text
        if text is None:
            text = self._text = "".join(e.to_text() for e in self._elements)
        return text

    @property
    def source(self) -> Optional[str]:
        """The original text this pattern was parsed from, if any."""
        return self._source

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Pattern({self.to_text()!r})"

    def __reduce__(self):
        # Pickle only the value; compiled-artifact pointers and memos are
        # process-local and rebuilt lazily on the other side.
        return (Pattern, (self._elements, self._source))

    # -- equality / hashing -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return self._elements == other._elements

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash(self._elements)
        return value

    # -- matching -----------------------------------------------------------------

    @property
    def nfa(self) -> Nfa:
        """The compiled epsilon-NFA (built once per instance)."""
        nfa = self._nfa
        if nfa is None:
            nfa = self._nfa = build_nfa(self.elements)
        return nfa

    def matches(self, text: str) -> bool:
        """Whether ``text`` matches this pattern (``s ↦ P`` in the paper).

        Uses the compiled Python regex when available (much faster for
        bulk scans) and falls back to NFA simulation.
        """
        regex = self.compiled_regex()
        if regex is not None:
            return regex.fullmatch(text) is not None
        return self.nfa.matches_string(text)

    def matches_via_nfa(self, text: str) -> bool:
        """Match using only the NFA simulation (used to cross-check the
        regex backend in property-based tests)."""
        return self.nfa.matches_string(text)

    def compiled_regex(self) -> Optional["re.Pattern[str]"]:
        """The pattern compiled to a Python regex, or None if unsupported."""
        regex = self._regex
        if regex is _UNSET:
            regex = self._regex = compile_to_regex(self)
        return regex

    def filter_matching(self, values: Sequence[str]) -> List[int]:
        """Indexes of the values that match this pattern."""
        return [i for i, value in enumerate(values) if self.matches(value)]

    # -- containment --------------------------------------------------------------

    def contains(self, other: "Pattern") -> bool:
        """Whether ``other ⊆ self`` — every string matching ``other`` also
        matches ``self`` (i.e. ``self`` is more general)."""
        from repro.patterns.containment import pattern_contains

        return pattern_contains(other, self)

    def is_contained_in(self, other: "Pattern") -> bool:
        """Whether ``self ⊆ other`` in the paper's notation."""
        from repro.patterns.containment import pattern_contains

        return pattern_contains(self, other)
