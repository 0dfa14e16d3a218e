"""The :class:`Pattern` value type.

A pattern is an immutable sequence of quantified atoms.  It knows how to
render itself back to the paper's syntax, match strings (via NFA
simulation or a compiled Python regex), and expose structural facts used
elsewhere (literal prefix for indexing, minimum/maximum length, …).
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Optional, Tuple

from repro.errors import PatternSyntaxError
from repro.patterns.nfa import Nfa, build_nfa
from repro.patterns.regex import compile_to_regex
from repro.patterns.syntax import Element, Literal, ONE

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

    def concat(self, other: "Pattern") -> "Pattern":
        """Concatenate two patterns."""
        return Pattern(self._elements + other.elements)

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

    def compiled_regex(self) -> Optional["re.Pattern[str]"]:
        """The pattern compiled to a Python regex, or None if unsupported."""
        regex = self._regex
        if regex is _UNSET:
            regex = self._regex = compile_to_regex(self)
        return regex
