"""Constrained patterns: segmented patterns with constrained projections.

Example (λ4 of the paper): ``\\LU\\LL*\\ \\A*`` on a name attribute with
the leading ``\\LU\\LL*\\ `` segment constrained.  The embedded pattern
matches any capitalized first name followed by anything; the constrained
projection of ``"John Charles"`` is ``("John ",)`` so two tuples whose
names start with the same first name are ``≡_Q``-equivalent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConstraintError
from repro.patterns.pattern import Pattern
from repro.patterns.regex import pattern_to_regex_source
from repro.patterns.syntax import ClassAtom, Element, Literal, ONE, Quantifier


@dataclass(frozen=True)
class Segment:
    """One segment of a constrained pattern."""

    pattern: Pattern
    constrained: bool = False

    def to_text(self) -> str:
        text = self.pattern.to_text()
        if self.constrained:
            return "⟨" + text + "⟩"
        return text


class ConstrainedPattern:
    """A concatenation of pattern segments, at least one constrained.

    The textual form marks constrained segments with angle brackets,
    e.g. ``⟨\\LU\\LL*\\ ⟩\\A*``; :meth:`parse` accepts that syntax.
    """

    def __init__(self, segments: Sequence[Segment]):
        segments = list(segments)
        if not segments:
            raise ConstraintError("a constrained pattern needs at least one segment")
        if not any(s.constrained for s in segments):
            raise ConstraintError(
                "a constrained pattern must mark at least one segment as constrained"
            )
        self._segments: Tuple[Segment, ...] = tuple(segments)
        self._hash: Optional[int] = None
        self._regex = self._compile()

    # -- constructors ----------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "ConstrainedPattern":
        """Parse the angle-bracket syntax, e.g. ``⟨\\D{3}⟩\\ \\D{2}``.

        ASCII ``<`` / ``>`` are also accepted so constrained patterns can
        be written without Unicode input.
        """
        normalized = text.replace("<", "⟨").replace(">", "⟩")
        segments: List[Segment] = []
        buffer = ""
        constrained = False
        i = 0
        while i < len(normalized):
            char = normalized[i]
            if char == "⟨":
                if constrained:
                    raise ConstraintError(f"nested constrained segment in {text!r}")
                if buffer:
                    segments.append(Segment(Pattern.parse(buffer), False))
                    buffer = ""
                constrained = True
            elif char == "⟩":
                if not constrained:
                    raise ConstraintError(f"unbalanced '⟩' in {text!r}")
                segments.append(Segment(Pattern.parse(buffer), True))
                buffer = ""
                constrained = False
            else:
                buffer += char
            i += 1
        if constrained:
            raise ConstraintError(f"unterminated constrained segment in {text!r}")
        if buffer:
            segments.append(Segment(Pattern.parse(buffer), False))
        return cls(segments)

    @classmethod
    def whole_value(cls, pattern: Pattern) -> "ConstrainedPattern":
        """A constrained pattern whose single segment is the whole value."""
        return cls([Segment(pattern, True)])

    # -- structure -------------------------------------------------------------

    @property
    def segments(self) -> Tuple[Segment, ...]:
        return self._segments

    @property
    def constrained_segments(self) -> List[Segment]:
        return [s for s in self._segments if s.constrained]

    def embedded_pattern(self) -> Pattern:
        """The pattern obtained by dropping the constraint annotations."""
        combined = Pattern([])
        for segment in self._segments:
            combined = combined.concat(segment.pattern)
        return combined

    def to_text(self) -> str:
        return "".join(s.to_text() for s in self._segments)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConstrainedPattern({self.to_text()!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConstrainedPattern):
            return NotImplemented
        return self._segments == other._segments

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash(self._segments)
        return value

    # -- matching & projection ----------------------------------------------------

    def _compile(self) -> "re.Pattern[str]":
        """One grouped regex: constrained segments become capturing
        groups (their captures are the constrained projection),
        unconstrained ones non-capturing groups."""
        parts = []
        for segment in self._segments:
            source = pattern_to_regex_source(segment.pattern)
            parts.append(("(" if segment.constrained else "(?:") + source + ")")
        return re.compile("".join(parts))

    def matches(self, value: str) -> bool:
        """``s ↦ Q``: the value matches the embedded pattern."""
        return self._regex.fullmatch(value) is not None

    def project(self, value: str) -> Optional[Tuple[str, ...]]:
        """The constrained projection ``s(Q)`` or None when no match.

        Python's regex engine resolves the (rare) ambiguity between
        adjacent unbounded segments greedily from the left, which gives a
        deterministic, documented projection.
        """
        match = self._regex.fullmatch(value)
        if match is None:
            return None
        return tuple(match.groups())

    def equivalent(self, left: str, right: str) -> bool:
        """``left ≡_Q right``: both match and their projections agree."""
        left_projection = self.project(left)
        if left_projection is None:
            return False
        right_projection = self.project(right)
        if right_projection is None:
            return False
        return left_projection == right_projection

    def blocking_key(self, value: str) -> Optional[Tuple[str, ...]]:
        """Key used to block tuples during variable-PFD detection.

        Identical to :meth:`project`; exposed under a separate name so
        detection code reads naturally.
        """
        return self.project(value)


# -- convenience factories used by discovery ---------------------------------------


def constrained_prefix(
    prefix_length: int,
    remainder: Pattern,
    head: Optional[Pattern] = None,
) -> ConstrainedPattern:
    """A constrained pattern fixing the first ``prefix_length`` characters.

    The constrained segment defaults to ``\\A{prefix_length}`` (any
    characters, but the *same* characters across equivalent values); when
    the callers knows the prefix shape it can pass ``head`` — e.g. λ5's
    ``⟨\\D{3}⟩\\D{2}`` for zip codes uses a ``\\D{3}`` head.
    """
    if prefix_length <= 0:
        raise ConstraintError("prefix length must be positive")
    from repro.patterns.alphabet import CharClass

    if head is None:
        head = Pattern(
            [Element(ClassAtom(CharClass.ANY), Quantifier(prefix_length, prefix_length))]
        )
    return ConstrainedPattern([Segment(head, True), Segment(remainder, False)])


def constrained_first_token(rest: Optional[Pattern] = None) -> ConstrainedPattern:
    """λ4-style constrained pattern: first word constrained, rest free.

    The constrained segment is ``\\LU\\LL*\\ `` (a capitalized word and
    the following space); the unconstrained remainder defaults to
    ``\\A*``.
    """
    from repro.patterns.alphabet import CharClass

    head = Pattern(
        [
            Element(ClassAtom(CharClass.UPPER), ONE),
            Element(ClassAtom(CharClass.LOWER), Quantifier(0, None)),
            Element(Literal(" "), ONE),
        ]
    )
    tail = rest if rest is not None else Pattern.any_string()
    return ConstrainedPattern([Segment(head, True), Segment(tail, False)])


def constrained_word_sequence(
    word_patterns: Sequence[Pattern],
    constrained_index: int,
    trailing_any: bool = True,
) -> ConstrainedPattern:
    """Constrain one word of a space-separated word-pattern sequence.

    ``word_patterns`` are patterns for the individual tokens (typically
    generalized from observed tokens, e.g. ``\\LU\\LL+\\S`` for
    ``"Holloway,"``); the token at ``constrained_index`` becomes the
    constrained segment and a trailing ``\\A*`` absorbs any further
    tokens.  This is the λ4-family generator used by discovery for
    multi-token attributes such as full names.
    """
    if not word_patterns:
        raise ConstraintError("need at least one word pattern")
    if not 0 <= constrained_index < len(word_patterns):
        raise ConstraintError(
            f"constrained index {constrained_index} out of range for "
            f"{len(word_patterns)} word patterns"
        )
    space = Pattern([Element(Literal(" "), ONE)])
    segments: List[Segment] = []
    for i, word in enumerate(word_patterns):
        if i > 0:
            segments.append(Segment(space, False))
        segments.append(Segment(word, i == constrained_index))
    if trailing_any:
        segments.append(Segment(Pattern.parse("\\A*"), False))
    return ConstrainedPattern(segments)
