"""Tests of the benchmark harness itself (``pytest bench/``).

Not part of tier-1: the repository's ``testpaths`` name only
``tests/``.  The last test runs the whole benchmark at 1/100 of its rows.
"""

from __future__ import annotations

import json
import pickle
import shutil
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from bench import metrics  # noqa: E402
from bench.session_child import Round, run_session  # noqa: E402
from bench.trace import Span, Target, Tracer, self_times  # noqa: E402
from bench.workloads import WORKLOADS, build_inputs  # noqa: E402


# -- summary statistics ----------------------------------------------------------


def test_median_quartiles_and_percentile_on_fixed_samples():
    samples = [4.0, 1.0, 3.0, 2.0, 5.0, 6.0, 7.0, 8.0]
    assert metrics.median(samples) == 4.5
    # statistics.quantiles' default (exclusive) method
    assert metrics.quartiles(samples) == (2.25, 6.75)
    assert metrics.iqr_share(samples) == pytest.approx(4.5 / 4.5)
    assert metrics.percentile(samples, 50) == 4.5
    assert metrics.percentile(samples, 95) == pytest.approx(7.65)
    assert metrics.percentile([3.0], 95) == 3.0
    assert metrics.iqr_share([2.0]) == 0.0


def test_f1_score_matches_precision_and_recall():
    assert metrics.f1_score(8, 2, 0) == pytest.approx(2 * 0.8 * 1.0 / 1.8)
    assert metrics.f1_score(0, 3, 3) == 0.0


# -- self time -------------------------------------------------------------------


def _span(span_id, name, start, end, parent=None, tid=1):
    return Span(span_id, name, tid, start, end, parent, 1, {})


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, "session.discover", 0.0, 10.0),
        _span(1, "engine.executor", 1.0, 9.0, parent=0),
        _span(2, "kernels.mine", 2.0, 5.0, parent=1),
        _span(3, "kernels.mine", 5.0, 6.0, parent=1),
        _span(4, "kernels.match", 2.5, 3.0, parent=2),
        # another thread's root span overlapping in time is not a child
        _span(5, "sharding.remote.get", 1.0, 8.0, tid=2),
    ]
    selves = self_times(spans)
    assert selves[0] == pytest.approx(2.0)
    assert selves[1] == pytest.approx(4.0)
    assert selves[2] == pytest.approx(2.5)
    assert selves[3] == pytest.approx(1.0)
    assert selves[4] == pytest.approx(0.5)
    assert selves[5] == pytest.approx(7.0)


# -- patch and restore -------------------------------------------------------------


@pytest.fixture
def fake_modules():
    """``benchfake.a`` defines the targets; ``benchfake.b`` imported one
    with ``from benchfake.a import work``."""
    package = types.ModuleType("benchfake")
    package.__path__ = []
    a = types.ModuleType("benchfake.a")
    exec(
        "def work(x):\n"
        "    return x + 1\n"
        "def chunks(n):\n"
        "    for i in range(n):\n"
        "        yield i\n"
        "class Store:\n"
        "    def get(self, i):\n"
        "        return work(i)\n",
        a.__dict__,
    )
    b = types.ModuleType("benchfake.b")
    b.work = a.work
    modules = {"benchfake": package, "benchfake.a": a, "benchfake.b": b}
    sys.modules.update(modules)
    yield a, b
    for name in modules:
        sys.modules.pop(name, None)


def test_patch_by_identity_and_restore(fake_modules):
    a, b = fake_modules
    original_work, original_get = a.work, a.Store.get
    targets = [
        Target("fake.work", "benchfake.a.work"),
        Target("fake.get", "benchfake.a.Store.get"),
        Target("fake.chunks", "benchfake.a.chunks"),
        Target("fake.gone", "benchfake.a.no_such_function"),
        Target("fake.gone", "benchfake.nowhere.f"),
    ]
    tracer = Tracer(targets, module_prefix="benchfake").install()
    try:
        assert a.work is b.work and a.work is not original_work
        assert a.work.__wrapped__ is original_work
        assert b.work(1) == 2
        assert a.Store().get(4) == 5
        assert list(a.chunks(3)) == [0, 1, 2]
        # wrappers pickle by reference, as a process pool ships them
        assert pickle.loads(pickle.dumps(a.work)) is a.work
        assert tracer.missing == ["benchfake.a.no_such_function", "benchfake.nowhere.f"]
    finally:
        tracer.uninstall()
    assert a.work is original_work and b.work is original_work
    assert a.Store.__dict__["get"] is original_get

    names = [span.name for span in tracer.spans]
    assert names.count("fake.work") == 2  # b.work, then via Store.get
    assert names.count("fake.get") == 1
    assert names.count("fake.chunks") == 4  # three items and the final step
    get = next(s for s in tracer.spans if s.name == "fake.get")
    inner = [s for s in tracer.spans if s.name == "fake.work" and s.parent == get.id]
    assert len(inner) == 1


def test_spans_are_per_thread_and_renamed_inside_an_ancestor(fake_modules):
    a, _b = fake_modules
    tracer = Tracer(
        [Target("fake.work", "benchfake.a.work", inside=("outer", "fake.work.inner"))],
        module_prefix="benchfake",
    ).install()
    try:
        with tracer.span("outer"):
            a.work(1)
            thread = threading.Thread(target=a.work, args=(2,))
            thread.start()
            thread.join(timeout=10)
        assert not thread.is_alive()
    finally:
        tracer.uninstall()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    outer = by_name["outer"][0]
    (inner,) = by_name["fake.work.inner"]
    (other_thread,) = by_name["fake.work"]
    assert inner.parent == outer.id
    assert other_thread.parent is None and other_thread.tid != outer.tid
    events = tracer.chrome_trace()["traceEvents"]
    assert {e["name"] for e in events if e["ph"] == "X"} == {"outer", "fake.work", "fake.work.inner"}


# -- correctness check ------------------------------------------------------------


@pytest.fixture(scope="module")
def small_edit_loop(tmp_path_factory):
    workload = WORKLOADS["edit_loop_64k"]
    manifest = build_inputs(workload, 5, tmp_path_factory.mktemp("inputs"), scale=0.01)
    return workload, manifest["datasets"][0]


def test_session_matches_reference(small_edit_loop):
    workload, entry = small_edit_loop
    rnd = Round(0, None)
    run_session(workload, entry, rnd, 5, None)
    assert rnd.failed == 0, rnd.errors
    assert rnd.attempted > 10
    assert rnd.ops["recheck"] > 0 and rnd.edit_ms


def test_correctness_check_rejects_a_tampered_report(small_edit_loop, monkeypatch):
    from repro.anmat.session import AnmatSession

    workload, entry = small_edit_loop
    run_detection = AnmatSession.run_detection

    def tampered(self, *args, **kwargs):
        report = run_detection(self, *args, **kwargs)
        if report.violations:
            report.violations.pop()
        return report

    monkeypatch.setattr(AnmatSession, "run_detection", tampered)
    rnd = Round(0, None)
    run_session(workload, entry, rnd, 5, None)
    assert rnd.failed >= 1
    assert any("violations" in error for error in rnd.errors)


# -- compare ------------------------------------------------------------------------


def test_compare_verdicts_on_canned_samples():
    lower = metrics.Metric("session_s", "s", "lower", 0.10)
    higher = metrics.Metric("detect_f1", "ratio", "higher", 0.05)
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert metrics.verdict(lower, steady, [1.05, 1.04, 1.06, 1.05, 1.05])[1] == "ok"
    delta, outcome = metrics.verdict(lower, steady, [1.30, 1.31, 1.29, 1.30, 1.32])
    assert outcome == "regressed" and delta == pytest.approx(0.30)
    noisy = [0.7, 1.0, 1.3, 1.0, 0.8]
    assert metrics.verdict(lower, steady, noisy)[1] == "unresolved"
    # a spread wider than the bound still resolves when every sample wins
    assert metrics.verdict(lower, [2.0, 3.0, 4.0], [1.0, 1.1, 1.2])[1] == "ok"
    assert metrics.verdict(higher, [0.9, 0.9], [0.8, 0.8])[1] == "regressed"


def _canned_run(session_samples, get_s):
    end_to_end = {
        metric.name: {"value": 1.0, "unit": metric.unit, "samples": [1.0, 1.0, 1.0]}
        for metric in metrics.END_TO_END
    }
    end_to_end["session_s"]["samples"] = session_samples
    per_layer = {
        "sharding.store.get_s": {"value": get_s, "unit": "s"},
        "kernels.mine_s": {"value": 1.0, "unit": "s"},
    }
    return {
        "workloads": {
            "bulk_spill_512k": {
                "untraced": {"end_to_end": end_to_end},
                "traced": {"per_layer": per_layer},
            }
        }
    }


def test_compare_names_the_layer_that_moved(tmp_path, capsys):
    from bench.run import compare

    before, after = tmp_path / "a.json", tmp_path / "b.json"
    before.write_text(json.dumps(_canned_run([10.0, 10.1, 9.9], 0.5)))
    after.write_text(json.dumps(_canned_run([13.0, 13.1, 12.9], 3.4)))
    assert compare([str(before), str(after)]) == 1
    output = capsys.readouterr().out
    line = next(line for line in output.splitlines() if " session_s " in line)
    assert "regressed" in line and "sharding.store.get_s" in line
    assert compare([str(before), str(before)]) == 0


# -- the benchmark definition ---------------------------------------------------------


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    declared = {m["name"]: m for m in spec["end_to_end"]}
    assert list(declared) == [m.name for m in metrics.END_TO_END]
    for metric in metrics.END_TO_END:
        assert declared[metric.name] == {
            "name": metric.name,
            "unit": metric.unit,
            "better": metric.better,
            "bound": metric.bound,
        }
    assert declared["setup_s"]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    layers = [{"name": m.name, "unit": m.unit, "better": m.better} for m, _ in metrics.PER_LAYER]
    assert spec["per_layer"] == layers


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper_mix_4k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_smoke_run_of_every_workload(tmp_path):
    out = tmp_path / "smoke.json"
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke", "--seed", "23", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert time.monotonic() - started < 60
    results = json.loads(out.read_text())["workloads"]
    assert list(results) == list(WORKLOADS)
    for name, runs in results.items():
        assert runs["untraced"]["failed"] == 0
        assert runs["traced"]["failed"] == 0
        assert runs["traced"]["missing_targets"] == []
        gated = {m.name for m in metrics.END_TO_END}
        measured = set(runs["untraced"]["end_to_end"])
        assert gated <= measured <= gated | {m.name for m in metrics.REPORTED}
        assert ("recheck_s" in measured) == (WORKLOADS[name].batches > 0)
        assert set(runs["traced"]["per_layer"]) == {m.name for m, _ in metrics.PER_LAYER}
        trace = json.loads((ROOT / runs["traced"]["trace_file"]).read_text())
        assert any(e["name"] == "session.discover" for e in trace["traceEvents"])
