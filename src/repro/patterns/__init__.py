"""The restricted pattern language of ANMAT.

Patterns are sequences of characters and character classes drawn from the
generalization tree (Figure 1 of the paper), optionally quantified with
``{N}``, ``+`` or ``*``.  The class deliberately excludes alternation and
nested/recursive quantification, which keeps matching, discovery and
containment tractable (checking equivalence of general regular
expressions is PSPACE-complete).

Public surface:

* :func:`parse_pattern` / :class:`Pattern` — parse and represent patterns
  written in the paper's syntax (``\\LU\\LL*\\ \\A*``, ``900\\D{2}`` …).
* :class:`CharClass` and :func:`classify_char` — the Figure 1 tree.
* matching — ``Pattern.matches`` (NFA simulation) and
  :func:`compile_to_regex` (Python ``re`` backend).
* :func:`generalize` / :class:`PatternHistogram` — learning patterns
  from values, over a shape table of their class runs.

The ``Tokenize`` function of the discovery algorithm runs over whole
encoded columns, in :mod:`repro.kernels.tokenize`.
"""

from repro.patterns.alphabet import CharClass, classify_char
from repro.patterns.syntax import Element, Literal, ClassAtom, Quantifier, ONE
from repro.patterns.parser import parse_pattern
from repro.patterns.pattern import Pattern
from repro.patterns.regex import compile_to_regex
from repro.patterns.generalize import PatternHistogram, generalize

__all__ = [
    "CharClass",
    "classify_char",
    "Element",
    "Literal",
    "ClassAtom",
    "Quantifier",
    "ONE",
    "parse_pattern",
    "Pattern",
    "compile_to_regex",
    "PatternHistogram",
    "generalize",
]
