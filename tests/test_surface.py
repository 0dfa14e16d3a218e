"""Surface gate: every definition in ``src/`` must be reached from outside ``tests/``.

The gate parses every module of ``src/`` with :mod:`ast` and lists its
functions, methods and classes (module and class level; nested helpers are
local and skipped, as are dunder methods, which the language calls).  A
definition fails when its name occurs as a word nowhere in ``src/``,
``bench/``, ``benchmarks/``, ``examples/`` or ``tools/`` outside its own
definition, the import statements and the ``__all__`` lists.  An aliased
import (``stage_or_null as _stage``) counts as an occurrence of the imported
name, and a string naming a tracer target in ``bench/trace.py`` counts too.
A definition that stays on purpose although nothing in those trees names it
goes on :data:`ALLOWLIST`, with the reason it stays.

Blind spot: the gate matches words, not bindings.  A method that shares its
name with a used one (one ``report`` is called, so every ``report`` passes),
or whose name a comment or docstring elsewhere mentions, passes even when
nothing calls it.
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "bench", "benchmarks", "examples", "tools")
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

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
}


def _scan(path: Path, occurrences: dict[str, set[tuple[Path, int]]]) -> ast.Module:
    """Add every word of ``path`` outside imports and ``__all__`` to ``occurrences``."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    skipped: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            skipped.update(range(node.lineno, node.end_lineno + 1))
            for alias in node.names:
                name = alias.name.rpartition(".")[2]
                if alias.asname and alias.asname != name:
                    occurrences.setdefault(name, set()).add((path, node.lineno))
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            skipped.update(range(node.lineno, node.end_lineno + 1))
    for number, line in enumerate(text.splitlines(), 1):
        if number not in skipped:
            for word in _WORD.findall(line):
                occurrences.setdefault(word, set()).add((path, number))
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
