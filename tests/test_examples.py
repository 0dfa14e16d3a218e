"""Every example under ``examples/`` runs to completion.

The examples walk the public API end to end (upload, profile, discover,
confirm, detect, the edit loop, the sharded stores), so an API change
that breaks one is caught here rather than by a reader.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def test_examples_exist():
    assert EXAMPLES, "no examples found"


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_exits_zero(path, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, str(path)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, (
        f"{path.name} exited {completed.returncode}\n"
        f"stdout:\n{completed.stdout[-2000:]}\nstderr:\n{completed.stderr[-2000:]}"
    )
