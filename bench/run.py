"""End-to-end ANMAT session benchmark.

Usage::

    python3 bench/run.py --seed 23                 # every workload, untraced then traced
    python3 bench/run.py --workload edit_loop_64k --seed 5 --seconds 18 --trace 0
    python3 bench/run.py --smoke                   # 1/100 of the rows, one round each
    python3 bench/run.py compare A.json B.json     # paired verdicts per metric

Each workload's CSV inputs are generated from ``repro.datagen`` with the
seed (their sha256 is recorded) and replayed by a closed loop with one
user: fresh session processes, started one at a time with
``subprocess``, each running a cold round and then warm rounds until the
``--seconds`` budget is spent.  Every round's rules and violations are
checked against a monolithic reference run.  With ``--workload`` the
last line of stdout is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``): the end-to-end metrics with ``--trace 0``, the
per-layer metrics of one traced process with ``--trace 1``.  Without it
every workload runs both ways, the results go to ``bench/out/`` and each
traced process leaves a Chrome trace-event file there.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

#: fresh-process imports timed per run for ``setup_s``, half before and
#: half after the session processes, so one slow stretch of the machine
#: does not reach them all (after one untimed import that leaves the
#: bytecode cache warm)
SETUP_SAMPLES = 6
#: the longest one session process may run before it is killed
CHILD_TIMEOUT_S = 150

_SETUP_CODE = (
    "import time; started = time.perf_counter(); import repro.anmat.session; "
    "print(time.perf_counter() - started)"
)


def _child_env(tmpdir: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    # the program's temporary files (spill stores) stay in the checkout
    env["TMPDIR"] = str(tmpdir)
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env: Dict[str, str], samples: int) -> List[float]:
    """``import repro.anmat.session`` timed in fresh interpreters."""
    timings = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        timings.append(float(done.stdout.strip()))
    return timings


@contextlib.contextmanager
def object_server(env: Dict[str, str]):
    """The remote workload's object server process; yields its URL."""
    server = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "object_server.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        url = server.stdout.readline().strip()
        if not url.startswith("http://"):
            raise RuntimeError(f"object server did not start (said {url!r})")
        yield url
    finally:
        server.stdin.close()
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()


def run_process(
    manifest: Path,
    out: Path,
    env: Dict[str, str],
    max_warm: int,
    budget: float,
    url: Optional[str],
    trace: Optional[Path] = None,
) -> dict:
    """One session process; a crash becomes a result with one failed op."""
    command = [
        sys.executable,
        str(BENCH_DIR / "session_child.py"),
        "--manifest", str(manifest),
        "--out", str(out),
        "--max-warm", str(max_warm),
        "--budget", f"{budget:.3f}",
    ]
    if url:
        command += ["--object-url", url]
    if trace:
        command += ["--trace", str(trace)]
    try:
        done = subprocess.run(command, env=env, timeout=CHILD_TIMEOUT_S, capture_output=True, text=True)
        error = None if done.returncode == 0 else done.stderr.strip()[-2000:]
    except subprocess.TimeoutExpired:
        error = f"session process exceeded {CHILD_TIMEOUT_S} s"
    if error is None and out.exists():
        return json.loads(out.read_text())
    return {"crashed": error or "no result written", "rounds": []}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    scale: float = 1.0,
    max_processes: Optional[int] = None,
    max_warm: Optional[int] = None,
    setup_samples: int = SETUP_SAMPLES,
) -> dict:
    """Run one workload, untraced or traced, and summarize it."""
    from bench import metrics
    from bench.workloads import WORKLOADS, build_inputs

    workload = WORKLOADS[name]
    started = time.monotonic()
    work = OUT / f"work-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tmpdir = work / "tmp"
    tmpdir.mkdir(parents=True)
    env = _child_env(tmpdir)
    processes: List[dict] = []
    try:
        manifest = build_inputs(workload, seed, work / "inputs", scale)
        manifest_path = work / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))
        if not traced:
            measure_setup(env, 1)  # compiles the bytecode cache of a fresh checkout
            setup = measure_setup(env, (setup_samples + 1) // 2)
        trace_path = OUT / f"trace_{name}.json" if traced else None
        warm = max_warm if max_warm is not None else (2 if traced else workload.warm_rounds)
        limit = 1 if traced else (max_processes or workload.processes)
        with contextlib.ExitStack() as stack:
            url = stack.enter_context(object_server(env)) if workload.route == "remote" else None
            deadline = time.monotonic() + seconds
            shortest = 0.0  # a cold plus a warm round, as the first process ran them
            for index in range(limit):
                remaining = deadline - time.monotonic()
                if index and remaining < shortest:
                    break
                result = run_process(
                    manifest_path,
                    work / f"process-{index}.json",
                    env,
                    warm,
                    max(remaining, 0.0),
                    url,
                    trace_path,
                )
                processes.append(result)
                if not index:
                    shortest = sum(r["wall_s"] for r in result["rounds"][:2])
        if not traced:
            setup += measure_setup(env, setup_samples // 2)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = [r for p in processes for r in p["rounds"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    errors = [e for r in rounds for e in r["errors"]]
    for process in processes:
        if "crashed" in process:
            attempted += 1
            failed += 1
            errors.append(f"session process crashed: {process['crashed']}")
    summary = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "scale": scale,
        "inputs": [
            {"name": d["name"], "rows": d["rows"], "sha256": d["sha256"]}
            for d in manifest["datasets"]
        ],
        "processes": len(processes),
        "cold_rounds": sum(1 for r in rounds if r["index"] == 0),
        "warm_rounds": sum(1 for r in rounds if r["index"] > 0),
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "elapsed_s": time.monotonic() - started,
    }
    complete = [p for p in processes if "crashed" not in p and p["rounds"]]
    if complete and traced:
        summary["per_layer"] = metrics.per_layer(complete[0])
        summary["missing_targets"] = complete[0]["missing_targets"]
        summary["trace_file"] = str(trace_path.relative_to(ROOT))
        warm = metrics.warm_rounds(complete[0]["rounds"])
        summary["session_s"] = metrics.median([r["session_s"] for r in warm])
    elif complete:
        ratio = failed / attempted
        summary["end_to_end"] = metrics.end_to_end(complete, setup, ratio)
    return summary


def _print_metrics(name: str, values: Dict[str, dict]) -> None:
    from bench.metrics import iqr_share

    for metric, entry in values.items():
        line = f"{name:18s} {metric:40s} {entry['value']:14.6g} {entry['unit']}"
        samples = entry.get("samples")
        if samples:
            line += f"  (n={len(samples)}, IQR {iqr_share(samples):.1%})"
        print(line)


def _print_summary(summary: dict) -> None:
    print(
        f"{summary['workload']}: {summary['processes']} process(es), "
        f"{summary['cold_rounds']} cold + {summary['warm_rounds']} warm rounds, "
        f"{summary['failed']}/{summary['attempted']} ops failed, "
        f"{summary['elapsed_s']:.1f} s"
    )
    for item in summary["inputs"]:
        print(f"  input {item['name']} ({item['rows']} rows) sha256 {item['sha256']}")
    for error in summary["errors"]:
        print(f"  error: {error}")
    for target in summary.get("missing_targets", []):
        print(f"  trace target missing: {target}")
    values = summary.get("per_layer") or summary.get("end_to_end") or {}
    _print_metrics(summary["workload"], values)


def single(args) -> int:
    """One workload, one mode; ends with the one-line JSON result."""
    from bench.metrics import END_TO_END

    summary = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_summary(summary)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"run_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(summary, indent=1))
    if args.trace:
        values = summary.get("per_layer")
    elif "end_to_end" in summary:
        values = {m.name: summary["end_to_end"][m.name] for m in END_TO_END}
    else:
        values = None  # no session process finished
    correct = summary["failed"] == 0 and values is not None
    line = {
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in (values or {}).items()
        },
    }
    print(json.dumps(line))
    return 0 if correct else 1


def full(args) -> int:
    """Every workload untraced, then traced; one results file."""
    from bench.workloads import WORKLOADS

    smoke = args.smoke
    results = {
        "meta": {
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": smoke,
            "python": sys.version.split()[0],
            "cpus": os.cpu_count(),
        },
        "workloads": {},
    }
    options = dict(scale=0.01, max_processes=1, max_warm=0, setup_samples=1) if smoke else {}
    ok = True
    for traced in (False, True):
        for name in WORKLOADS:
            summary = run_workload(name, args.seed, args.seconds, traced, **options)
            _print_summary(summary)
            entry = results["workloads"].setdefault(name, {})
            entry["traced" if traced else "untraced"] = summary
            ok = ok and summary["failed"] == 0
    for name, entry in results["workloads"].items():
        base = entry["untraced"].get("end_to_end", {}).get("session_s", {}).get("value")
        traced = entry["traced"].get("session_s")
        if base and traced:
            entry["trace_overhead"] = traced / base - 1.0
            print(f"{name:18s} trace_overhead {entry['trace_overhead']:+.1%} (reported, not gated)")
    OUT.mkdir(exist_ok=True)
    path = args.out or OUT / f"{'smoke' if smoke else 'results'}_seed{args.seed}.json"
    path.write_text(json.dumps(results, indent=1))
    print(f"wrote {path}")
    return 0 if ok else 1


def compare(paths: List[str]) -> int:
    """Paired verdicts of run B against run A, per workload and metric."""
    from bench.metrics import END_TO_END, REPORTED, iqr_share, median, moved_layer, verdict

    if len(paths) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    before, after = (json.loads(Path(p).read_text())["workloads"] for p in paths)
    counts = {"ok": 0, "regressed": 0, "unresolved": 0}
    print(f"{'workload':18s} {'metric':16s} {'A median':>12s} {'IQR':>6s} {'B median':>12s} {'IQR':>6s} {'delta':>7s} {'bound':>6s}  verdict")
    for name in before:
        if name not in after:
            print(f"{name}: missing from {paths[1]}")
            continue
        a_run, b_run = before[name]["untraced"], after[name]["untraced"]
        for metric in (*END_TO_END, *REPORTED):
            if metric.name not in a_run["end_to_end"] or metric.name not in b_run["end_to_end"]:
                continue  # e.g. the edit loop's metrics on a read-only workload
            a = a_run["end_to_end"][metric.name]["samples"]
            b = b_run["end_to_end"][metric.name]["samples"]
            delta, outcome = verdict(metric, a, b)
            counts[outcome] += 1
            line = (
                f"{name:18s} {metric.name:16s} {median(a):12.6g} {iqr_share(a):6.1%} "
                f"{median(b):12.6g} {iqr_share(b):6.1%} {delta:+7.1%} {metric.bound:6.0%}  {outcome}"
            )
            # only a session timing has a layer to blame
            if outcome == "regressed" and metric.unit in ("s", "ms") and metric.name != "setup_s":
                layer = moved_layer(
                    before[name]["traced"].get("per_layer", {}),
                    after[name]["traced"].get("per_layer", {}),
                )
                if layer:
                    line += f"  (layer: {layer[0]} +{layer[1]:.4f} s/round)"
            print(line)
    print(", ".join(f"{count} {outcome}" for outcome, count in counts.items()))
    return 1 if counts["regressed"] else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (SRC / "repro").is_dir():
        print(f"bench: no program sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    for entry in (str(SRC), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    from bench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument(
        "--seconds", type=float, default=60.0, help="measurement budget of each workload run"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="1/100 of the rows, one round each")
    parser.add_argument("--out", type=Path, default=None, help="results file (full runs)")
    args = parser.parse_args(argv)
    if args.workload:
        return single(args)
    return full(args)


if __name__ == "__main__":
    raise SystemExit(main())
