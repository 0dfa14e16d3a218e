"""Import gate: no module imports a name it never reads.

The gate parses every module of ``src/``, ``tests/``, ``bench/``,
``benchmarks/``, ``tools/`` and ``examples/`` with :mod:`ast`.  A name an
``import`` binds (its alias, the imported name, or the first component of
a dotted ``import a.b``) fails when the module reads it nowhere: as a
``Name``, inside a string annotation (``Optional["re.Pattern[str]"]``) or
as an entry of ``__all__``.  Package ``__init__.py`` modules re-export
what they import and are skipped, as are ``from __future__`` imports.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "bench", "benchmarks", "tools", "examples")


def _annotation_names(node: ast.AST):
    """The names a string annotation reads (``"re.Pattern[str]"`` reads ``re``)."""
    for child in ast.walk(node):
        if isinstance(child, ast.Constant) and isinstance(child.value, str):
            try:
                parsed = ast.parse(child.value, mode="eval")
            except SyntaxError:
                continue
            yield from (n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))


def unused_imports(path: Path) -> list[str]:
    """``line name`` of every name ``path`` imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            read.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            read.update(_annotation_names(node.returns))
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(
                child.value
                for child in ast.walk(node.value)
                if isinstance(child, ast.Constant) and isinstance(child.value, str)
            )
    return [f"{line} {name}" for name, line in sorted(imported.items()) if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    hits = []
    for directory in SCANNED:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            hits.extend(
                f"{path.relative_to(ROOT)}:{hit}" for hit in unused_imports(path)
            )
    assert not hits, "imported names no module reads (delete the imports):\n  " + "\n  ".join(hits)


def test_the_gate_sees_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import re\n"
        "from typing import Dict, List, Optional\n"
        "__all__ = ['Dict']\n"
        "def f(x: List[int]) -> Optional['re.Pattern[str]']:\n"
        "    return None\n"
    )
    assert unused_imports(module) == ["2 os"]
