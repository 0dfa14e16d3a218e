"""The heap a session round leaves behind.

Every object the collector tracks is walked by each full collection, so
a heap that grows with the data makes the first session on new data
pay for collections instead of work.  One round of profile → discover →
confirm → detect over the five 4k-row paper tables must leave at most
:data:`MAX_TRACKED` tracked objects: generalization keeps its per-value
state in numpy shape tables owned by the column encodings, not in
process-wide memos.  The round runs in a fresh interpreter, so pytest's
own heap does not count.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: tracked objects allowed after one round (the per-value memos this
#: replaced held about 754k)
MAX_TRACKED = 100_000

_ROUND = """
import gc
from repro.anmat.session import AnmatSession
from repro.datagen import build_dataset

for name in ("phone_state", "fullname_gender", "employee_ids", "chembl_records", "zip_city_state"):
    table = build_dataset(name, n_rows=4000, seed=23).table
    session = AnmatSession(dataset_name=name)
    session.load_table(table)
    session.run_profiling()
    session.run_discovery()
    session.confirm_all()
    session.run_detection()
    session.close()
del table, session
gc.collect()
print(len(gc.get_objects()))
"""


def test_a_session_round_leaves_a_small_heap():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _ROUND],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    tracked = int(done.stdout.strip().splitlines()[-1])
    assert tracked <= MAX_TRACKED, tracked
