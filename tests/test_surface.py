"""Surface gate: every definition in ``src/`` must be reached from outside ``tests/``.

The gate parses every module of ``src/`` with :mod:`ast` and lists its
functions, methods and classes (module and class level; nested helpers are
local and skipped, as are dunder methods, which the language calls).  A
definition fails when its name is read nowhere in ``src/``, ``bench/``,
``benchmarks/``, ``examples/`` or ``tools/`` outside its own definition.
The names read are collected from each module's syntax tree: every
``Name``, every ``Attribute``, every keyword argument, the imported name of
an aliased import (``stage_or_null as _stage``), and every string constant
that spells an identifier or a dotted path (``getattr`` targets, the tracer
targets of ``bench/trace.py``) other than a docstring, a bare string
statement or an ``__all__`` entry.  Comments, docstrings and plain imports
name nothing.  A definition that stays on purpose although nothing in those
trees names it goes on :data:`ALLOWLIST`, with the reason it stays.

A second gate ratchets the knobs: the number of defaulted parameters in
``src/`` signatures (:data:`DEFAULTED_PARAMETERS`) may not grow.  A
default is a knob a caller can turn, so a new one has to be paid for by
removing another, or the pin raised in a reviewed change.

Blind spot: the gate matches names, not bindings.  A method that shares its
name with a used attribute or variable anywhere in the scanned trees (one
``report`` is called, so every ``report`` passes) passes even when nothing
calls it.
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "bench", "benchmarks", "examples", "tools")
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")

#: Qualified name -> why it stays although nothing in the scanned trees names it.
ALLOWLIST = {
    "_ObjectRequestHandler.do_GET": "http.server dispatches each GET request to it",
    "_ObjectRequestHandler.do_PUT": "http.server dispatches each PUT request to it",
    "_ObjectRequestHandler.do_DELETE": "http.server dispatches each DELETE request to it",
    "_ObjectRequestHandler.log_message": "http.server hook, overridden to keep the dev server quiet",
    "ObjectHTTPServer.object_count": "the remote gate's zero-leak check reads it after a session closes",
    "ProjectStore.open_project": "the demo's select-a-project step reopens a saved project",
    "ProjectStore.list_projects": "the demo's select-a-project step lists the saved projects",
    "Project.load_dataset": "the demo's reload step reads back the table a session saved",
    "Project.load_pfds": "the demo's reload step reads back the PFDs a session saved",
    "Project.load_results": "the demo's reload step reads back the results a session saved",
    "caches_disabled": "test hook: the cached-vs-uncached equivalence tests run the slow path with it",
    "ObjectHTTPServer.fail_next_with": "test hook: the remote tests force HTTP failures on the dev server",
    "PrefetchingFetcher.closed": "test hook: the prefetch tests check that closing a store closes its fetcher",
}


#: Defaulted parameters in ``src/`` signatures (see :func:`defaulted_parameters`).
DEFAULTED_PARAMETERS = 147


def defaulted_parameters() -> int:
    """Every function's ``defaults`` plus its non-``None`` ``kw_defaults``
    (a keyword-only parameter without a default is a ``None`` entry)."""
    count = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                count += len(args.defaults)
                count += sum(default is not None for default in args.kw_defaults)
    return count


def _skipped_strings(tree: ast.Module) -> set[int]:
    """The ids of the string constants that name nothing: docstrings and
    other bare string statements, and the entries of ``__all__``."""
    skipped: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            skipped.add(id(node.value))
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                skipped.update(id(child) for child in ast.walk(node.value))
    return skipped


def _scan(path: Path, occurrences: dict[str, set[tuple[Path, int]]]) -> ast.Module:
    """Add every name ``path`` reads to ``occurrences``, with its line."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    skipped = _skipped_strings(tree)

    def add(name: str, line: int) -> None:
        occurrences.setdefault(name, set()).add((path, line))

    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            add(node.id, node.lineno)
        elif isinstance(node, ast.Attribute):
            add(node.attr, node.lineno)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            add(node.arg, node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.name.rpartition(".")[2]
                if alias.asname and alias.asname != name:
                    add(name, node.lineno)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skipped
            and _DOTTED.fullmatch(node.value)
        ):
            for name in node.value.split("."):
                add(name, node.lineno)
    return tree


def _definitions(node: ast.AST, prefix: str = ""):
    """(qualified name, node) of the module- and class-level definitions under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + child.name, child
            if isinstance(child, ast.ClassDef):
                yield from _definitions(child, f"{prefix}{child.name}.")
        else:
            yield from _definitions(child, prefix)


@lru_cache(maxsize=1)
def unreached_definitions() -> dict[str, str]:
    """Qualified name -> ``path:line`` of every ``src/`` definition named from nowhere."""
    occurrences: dict[str, set[tuple[Path, int]]] = {}
    definitions = []
    for directory in SCANNED:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = _scan(path, occurrences)
            if directory == "src":
                definitions.extend((path, name, node) for name, node in _definitions(tree))
    unreached = {}
    for path, qualname, node in definitions:
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if all(
            where == path and node.lineno <= line <= node.end_lineno
            for where, line in occurrences.get(name, ())
        ):
            unreached[qualname] = f"{path.relative_to(ROOT)}:{node.lineno}"
    return unreached


def test_every_src_definition_is_reached_outside_tests():
    hits = sorted(
        f"{where} {name}" for name, where in unreached_definitions().items() if name not in ALLOWLIST
    )
    assert not hits, (
        "definitions in src/ that only tests/ reach (delete them, or add an "
        "ALLOWLIST entry with the reason they stay):\n  " + "\n  ".join(hits)
    )


def test_every_allowlist_entry_is_still_needed():
    stale = sorted(set(ALLOWLIST) - set(unreached_definitions()))
    assert not stale, f"ALLOWLIST entries that are gone or now named elsewhere: {stale}"


@pytest.mark.parametrize(
    "source,reads",
    [
        ("value = target", True),
        ("obj.target()", True),
        ("call(target=1)", True),
        ("from module import target as other", True),
        ("TARGETS = ['repro.module.Class.target']", True),
        ("getattr(obj, 'target')", True),
        ("from module import target", False),
        ('"""Calls target."""', False),
        ("# target", False),
        ("raise ValueError('target is gone')", False),
        ("__all__ = ['target']", False),
    ],
    ids=[
        "name", "attribute", "keyword", "aliased-import", "dotted-string",
        "getattr-string", "plain-import", "docstring", "comment", "message",
        "all-entry",
    ],
)
def test_the_scan_reads_names_not_words(tmp_path, source, reads):
    path = tmp_path / "module.py"
    path.write_text(source + "\n", encoding="utf-8")
    occurrences: dict[str, set[tuple[Path, int]]] = {}
    _scan(path, occurrences)
    assert ("target" in occurrences) is reads


def test_defaulted_parameters_are_pinned():
    count = defaulted_parameters()
    assert count == DEFAULTED_PARAMETERS, (
        f"src/ signatures carry {count} defaulted parameters, pinned at "
        f"{DEFAULTED_PARAMETERS}: a new knob has to remove another (or raise "
        "the pin in a reviewed change), and a removed one lowers the pin"
    )
