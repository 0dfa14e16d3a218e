"""Hot-path benchmark runner — writes the persisted perf baseline.

Runs the discovery-scalability, detection, edit-loop and sharded
workloads and writes ``BENCH_hotpath.json`` at the repository root: a
machine-readable map of bench name → wall-clock seconds, with the
pre-optimization numbers (or, for paired benches, the same-tree
reference workload) kept under ``"baseline"`` so every subsequent run
reports its speedup against that reference.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py              # measure, keep baseline
    PYTHONPATH=src python benchmarks/run_bench.py --record-baseline
    PYTHONPATH=src python benchmarks/run_bench.py --cold       # clear caches per round
    PYTHONPATH=src python benchmarks/run_bench.py --check      # perf smoke gate

``--record-baseline`` overwrites the stored baseline with the numbers
just measured (used once, before the optimization work).  ``--cold``
clears the shared pattern/match caches before every round, measuring the
cache-off path.  ``--check`` runs nothing: it validates the recorded
speedups and exits non-zero if any fell below 1.0, so CI can use it as a
perf smoke gate.  See docs/PERFORMANCE.md for how to read the output.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.constrained import constrained_prefix  # noqa: E402
from repro.datagen import generate_zip_city_state  # noqa: E402
from repro.detection import ErrorDetector, IncrementalDetector  # noqa: E402
from repro.discovery import DiscoveryConfig, MajorityDecision, PfdDiscoverer  # noqa: E402
from repro.patterns import parse_pattern  # noqa: E402
from repro.perf.timers import StageTimers  # noqa: E402
from repro.pfd import PFD  # noqa: E402
from repro.engine import DEFAULT_SHARD_ROWS  # noqa: E402
from repro.sharding import (  # noqa: E402
    ShardedDetector,
    ShardedDiscoverer,
    ShardedTable,
    ShardOverlay,
)

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_hotpath.json"


def _clear_shared_caches() -> None:
    """Reset every process-wide cache (only when it exists in this tree)."""
    try:
        from repro import perf
    except ImportError:  # pre-optimization tree: nothing to clear
        return
    perf.clear_caches()


def _lambda5() -> PFD:
    """The zip-prefix → city variable PFD used by the detection bench."""
    return PFD.variable(
        "zip",
        "city",
        constrained_prefix(3, parse_pattern("\\D{2}"), head=parse_pattern("\\D{3}")),
        name="lambda5",
    )


def _bench_discovery(n_rows: int) -> Tuple[Callable[[], object], int]:
    table = generate_zip_city_state(n_rows=n_rows, seed=23).table
    discoverer = PfdDiscoverer()

    def run() -> object:
        return discoverer.discover(table)

    run.stage_timers = discoverer.timers
    return run, (2 if n_rows >= 4000 else 3)


def _bench_detection(n_rows: int = 2000) -> Tuple[Callable[[], object], int]:
    table = generate_zip_city_state(n_rows=n_rows, seed=23).table
    pfd = _lambda5()

    def run() -> object:
        return ErrorDetector(table).detect(pfd)

    return run, 15


def _bench_edit_loop(n_rows: int = 8000, k: int = 40):
    """The interactive edit loop: k single-cell fixes, violations re-derived
    after each one.

    Returns *two* workloads: the incremental path over a shard overlay
    (the measured bench) and the full-re-detection path over a table,
    which is recorded as this bench's baseline — so the persisted
    speedup is incremental vs full, the paper-relevant comparison.
    """
    dataset = generate_zip_city_state(n_rows=n_rows, seed=23)
    base_table = dataset.table
    pfds = list(PfdDiscoverer().discover(base_table))
    assert pfds, "edit-loop setup discovered no PFDs"
    columns = base_table.column_names()
    # Deterministic single-cell edits: overwrite a cell with the value
    # another row holds in the same column (merges/splits real blocks).
    edits = []
    for i in range(k):
        row = (i * 997) % n_rows
        column = columns[i % len(columns)]
        donor = (i * 499 + 1) % n_rows
        edits.append((row, column, base_table.cell(donor, column)))

    timers = StageTimers()  # shared across rounds so the harness can print it

    def incremental_run() -> object:
        overlay = ShardOverlay(ShardedTable.from_table(base_table, DEFAULT_SHARD_ROWS))
        detector = IncrementalDetector(overlay, pfds, timers=timers)
        report = None
        for row, column, value in edits:
            detector.set_cell(row, column, value)
            report = detector.report()
        return report

    def full_run() -> object:
        table = base_table.copy()
        report = None
        for row, column, value in edits:
            table.set_cell(row, column, value)
            report = ErrorDetector(table).detect_all(pfds)
        return report

    incremental_run.stage_timers = timers
    return incremental_run, 5, full_run


class _ReferenceMajority(MajorityDecision):
    """``MajorityDecision`` under another type: the kernel fallback rule
    sends every candidate through the scalar loop body."""


def _bench_sharded_discovery(n_rows: int = 64000, shard_rows: int = 8000):
    """Sharded discovery at out-of-core scale: vectorized kernels vs the
    same-tree scalar reference.

    A paired bench: the recorded baseline runs the identical sharded
    pipeline with a decision function the kernels do not reproduce, so
    every candidate takes the scalar loop body and the persisted speedup
    isolates the columnar mining kernels (the two routes produce
    identical rule sets — the differential suite proves it).  Both sides
    run warm; each discovery drops its merged mining inputs when it
    finishes, so neither primes the other.
    """
    table = generate_zip_city_state(n_rows=n_rows, seed=23).table
    sharded = ShardedTable.from_table(table, shard_rows)
    kernel = ShardedDiscoverer(DiscoveryConfig())
    scalar = ShardedDiscoverer(DiscoveryConfig(), decision=_ReferenceMajority())

    def run() -> object:
        return kernel.discover(sharded)

    def baseline_run() -> object:
        return scalar.discover(sharded)

    run.stage_timers = kernel.discoverer.timers
    return run, 2, baseline_run


def _bench_sharded_detection(n_rows: int = 64000, shard_rows: int = 8000):
    """Sharded detection vs the monolithic single-worker engine.

    A paired bench (like ``incremental_edit_loop``): the recorded
    baseline is the monolithic ``ErrorDetector`` run over the same data
    and rules, so the persisted speedup is sharded-merged emission vs
    row-level monolithic emission — the comparison the sharding PR is
    about.  Both paths run warm (shared caches primed by round one).
    """
    table = generate_zip_city_state(n_rows=n_rows, seed=23).table
    pfds = PfdDiscoverer().discover(table)
    assert pfds, "sharded-detection setup discovered no PFDs"
    sharded = ShardedTable.from_table(table, shard_rows)
    detector = ShardedDetector(sharded)

    def run() -> object:
        return detector.detect_all(pfds)

    def baseline_run() -> object:
        return ErrorDetector(table).detect_all(pfds)

    run.stage_timers = detector.timers
    return run, 5, baseline_run


def _bench_rule_maintenance_edit_loop(
    n_rows: int = 64000, shard_rows: int = 4096, k: int = 8
):
    """The rule-maintenance edit loop: a batch of ``k`` cell edits, then
    the rule set brought back up to date via ``AnmatSession.recheck()``.

    A paired bench: the measured side re-checks — the seeded
    :class:`RuleMaintainer` re-mines only the candidates whose
    statistics changed, from the delta shards the edit batch dirtied —
    while the recorded baseline runs the *identical* edit stream and
    then ``AnmatSession.run_discovery()``, re-discovering the 64k-row
    table from scratch every batch (the edit loop without
    maintenance).  The differential suite proves the two
    produce identical rules, so the persisted speedup isolates the
    maintenance layer.  Each invocation writes fresh values from a
    monotone counter, so no round's edits are no-ops against the
    overlay, and edits land in one column of the first two shards — the
    realistic interactive shape (a user repairing one attribute over a
    neighbourhood of rows) where most shards stay clean and candidates
    not touching the repaired column keep their baseline reports.

    The table is the geo generator widened with three small-domain
    columns (a state-determined region, a random department and grade) —
    a six-column relation with 25+ candidate pairs, where a full
    re-check re-mines every big-LHS candidate (``zip -> *``) but an edit
    batch over one small-domain column dirties only that column's
    candidates.  A three-column table would cap the win near 1.4x: any
    edited column there touches half the expensive candidates.
    """
    import random

    from repro.anmat.session import AnmatSession
    from repro.dataset.table import Table

    geo = generate_zip_city_state(n_rows=n_rows, seed=23).table
    states = list(geo.column_ref("state"))
    regions = {s: f"Region-{i % 4}" for i, s in enumerate(sorted(set(states)))}
    rng = random.Random(23)
    departments = ["Finance", "Engineering", "HR", "Marketing", "Sales", "Research"]
    grades = ["Junior", "Associate", "Senior", "Principal", "Director"]
    table = Table(
        ["zip", "city", "state", "region", "department", "grade"],
        [
            list(geo.column_ref("zip")),
            list(geo.column_ref("city")),
            states,
            [regions[s] for s in states],
            [rng.choice(departments) for _ in range(n_rows)],
            [rng.choice(grades) for _ in range(n_rows)],
        ],
    )
    column = "grade"

    def make_runner(
        refresh: Callable[[AnmatSession], object]
    ) -> Callable[[], object]:
        sharded = ShardedTable.from_table(table, shard_rows)
        session = AnmatSession(
            dataset_name="bench-rule-maintenance",
            config=DiscoveryConfig(shard_rows=shard_rows),
        )
        session.load_table(sharded)
        session.run_discovery()
        state = {"step": 0}

        def run() -> object:
            for _ in range(k):
                state["step"] += 1
                step = state["step"]
                row = (step * 131) % (2 * shard_rows)
                donor = (step * 499 + 1) % n_rows
                session.table.set_cell(row, column, table.cell(donor, column))
            return refresh(session)

        run.session = session  # keeps the maintainer (and its timers) alive
        return run

    run = make_runner(AnmatSession.recheck)
    baseline_run = make_runner(AnmatSession.run_discovery)
    run.stage_timers = run.session._maintainer.timers
    return run, 3, baseline_run


def _memory_out_of_core(
    n_rows: int = 256_000, shard_rows: int = 16_000
) -> Dict[str, float]:
    """Peak tracemalloc of the never-materialized spill-store session.

    A paired *memory* bench: the baseline reading is what merely loading
    the same CSV into a monolithic ``Table`` costs, the measurement is
    the full profile → discover → detect session over a spill store with
    two resident shards.  Recorded under ``payload["memory"]`` as peaks
    and a ratio — not under ``speedup``, because the comparison is bytes,
    not seconds.
    """
    import gc
    import tempfile
    import tracemalloc

    from repro.anmat.session import AnmatSession
    from repro.dataset.csvio import read_csv, read_csv_sharded, write_csv
    from repro.sharding import SpillToDiskShardStore

    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "zip_city_state.csv"
        write_csv(generate_zip_city_state(n_rows=n_rows, seed=23).table, csv_path)
        gc.collect()

        _clear_shared_caches()
        tracemalloc.start()
        table = read_csv(csv_path)
        baseline_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        del table
        _clear_shared_caches()
        gc.collect()

        tracemalloc.start()
        store = SpillToDiskShardStore(cache_shards=2)
        sharded = read_csv_sharded(csv_path, shard_rows, store=store)
        session = AnmatSession(dataset_name="bench-out-of-core")
        session.load_table(sharded)
        session.set_parameters(min_coverage=0.5)
        session.run_profiling()
        session.run_discovery()
        session.confirm_all()
        session.run_detection()
        session.close()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

    return {
        "peak_mb": round(peak / 1e6, 2),
        "baseline_peak_mb": round(baseline_peak / 1e6, 2),
        "ratio": round(peak / baseline_peak, 4),
    }


def _remote_object_faults(
    n_rows: int = 64_000,
    shard_rows: int = 8_000,
    fault_rate: float = 0.05,
    prefetch_depth: int = 0,
) -> Dict[str, float]:
    """Sharded detection with every shard behind the fault-injected
    remote HTTP client, vs the same run over clean in-memory shards.

    A paired *remote* bench: the baseline reading is the clean in-memory
    sharded detection, the measurement is the identical workload with
    shard bytes crossing a loopback HTTP object server through a
    :class:`FaultInjectingClient` firing at ``fault_rate`` — so the
    recorded ratio prices the transport plus the retry/backoff healing.
    With ``prefetch_depth > 0`` (the ``pipelined_remote_*`` variant) the
    store's prefetching reader fetches and checksum-verifies shards
    ahead on background threads, so the ratio additionally prices how
    much of that I/O the fetch pipeline hides behind compute; the
    readings then include the unhidden ``fetch_wait`` seconds and the
    hit counters.  Recorded under ``payload["remote"]`` — not under
    ``speedup``, because remote I/O under faults is an overhead to
    bound, not a win to gate upward.
    """
    from repro.sharding import (
        FaultInjectingClient,
        HttpObjectClient,
        ObjectShardStore,
        RetryPolicy,
    )
    from repro.sharding.devserver import ObjectHTTPServer

    table = generate_zip_city_state(n_rows=n_rows, seed=23).table
    pfds = PfdDiscoverer().discover(table)
    assert pfds, "remote-faults setup discovered no PFDs"

    clean_sharded = ShardedTable.from_table(table, shard_rows)
    _clear_shared_caches()
    started = time.perf_counter()
    clean_report = ShardedDetector(clean_sharded).detect_all(pfds)
    clean_seconds = time.perf_counter() - started

    with ObjectHTTPServer() as server:
        client = FaultInjectingClient(
            HttpObjectClient(server.url), seed=23, fault_rate=fault_rate
        )
        store = ObjectShardStore(
            client=client,
            owns_client=True,
            prefix="bench",
            cache_shards=2,
            retry_policy=RetryPolicy(max_attempts=8, base_delay=0.0),
            prefetch_depth=prefetch_depth,
        )
        sharded = ShardedTable.from_table(table, shard_rows, store=store)
        _clear_shared_caches()
        started = time.perf_counter()
        report = ShardedDetector(sharded).detect_all(pfds)
        seconds = time.perf_counter() - started
        assert (
            report.canonical_violations() == clean_report.canonical_violations()
        ), "faulted remote detection diverged from the clean run"
        readings = {
            "seconds": round(seconds, 6),
            "clean_seconds": round(clean_seconds, 6),
            "overhead_ratio": round(seconds / clean_seconds, 4),
            "rows_per_s": round(n_rows / seconds, 1),
            "fault_rate": fault_rate,
            "faults_injected": client.total_faults,
            "retried_reads": store.retried_reads,
            "retried_puts": store.retried_puts,
            "fetch_wait_seconds": round(
                store.timers.totals().get("fetch_wait", 0.0), 6
            ),
        }
        if prefetch_depth > 0:
            readings["prefetch_depth"] = prefetch_depth
            readings["prefetch_hits"] = store.prefetch_hits
            readings["demand_fetches"] = store._prefetcher.demand_fetches
        store.close()
    return readings


#: bench name → zero-argument setup returning (workload, default rounds)
#: or (workload, default rounds, baseline workload) — the third element
#: is measured and recorded under ``baseline`` whenever the bench has no
#: stored baseline yet (or ``--record-baseline`` is given), so paired
#: benches persist their own reference point.
BENCHES: Dict[str, Callable[[], Tuple]] = {
    "discovery_scalability_2000": lambda: _bench_discovery(2000),
    "discovery_scalability_8000": lambda: _bench_discovery(8000),
    "detection_scan_2000": lambda: _bench_detection(),
    "incremental_edit_loop_8000": lambda: _bench_edit_loop(),
    "rule_maintenance_edit_loop_64000": lambda: _bench_rule_maintenance_edit_loop(),
    "sharded_discovery_64000": lambda: _bench_sharded_discovery(),
    "sharded_detection_64000": lambda: _bench_sharded_detection(),
}

#: benches the --check gate requires to be present in "current" — a
#: baseline file predating them fails the gate until re-measured
REQUIRED_BENCHES = (
    "sharded_discovery_64000",
    "sharded_detection_64000",
    "rule_maintenance_edit_loop_64000",
)

#: per-bench speedup floors stricter than the global 1.0 (the sharded
#: detection engine's merge-time emission must stay >= 2x the monolithic
#: single-worker path at 64k rows)
SPEEDUP_FLOORS = {
    "sharded_detection_64000": 2.0,
    # the vectorized kernel path must stay >= 2x its scalar reference
    "sharded_discovery_64000": 2.0,
    # maintaining the rule set from delta shards must stay >= 3x a full
    # re-discovery per edit batch at 64k rows
    "rule_maintenance_edit_loop_64000": 3.0,
}

#: memory bench name → one-shot workload returning its peak readings
MEMORY_BENCHES: Dict[str, Callable[[], Dict[str, float]]] = {
    "out_of_core_256000": _memory_out_of_core,
}

#: --check ceilings on recorded memory ratios: the out-of-core session's
#: peak must stay below 40% of the materialized-table footprint (the
#: acceptance bar of the never-materialized session work)
MEMORY_RATIO_CEILINGS = {
    "out_of_core_256000": 0.40,
}

#: remote bench name → one-shot workload returning its readings
REMOTE_BENCHES: Dict[str, Callable[[], Dict[str, float]]] = {
    "remote_object_faults_64000": _remote_object_faults,
    "pipelined_remote_64000": lambda: _remote_object_faults(prefetch_depth=4),
}

#: --check ceilings on recorded remote overhead ratios: detection with
#: shard bytes crossing the loopback HTTP store under a 5% fault rate
#: must stay under this multiple of the clean in-memory sharded run —
#: and must actually have healed injected faults (retries > 0), or the
#: bench measured nothing.  The pipelined variant is the same workload
#: through the prefetching reader; its tighter ceiling gates that the
#: fetch pipeline keeps hiding the GET + checksum work behind compute.
REMOTE_OVERHEAD_CEILINGS = {
    "remote_object_faults_64000": 3.0,
    "pipelined_remote_64000": 1.4,
}


def measure(run: Callable[[], object], rounds: int, cold: bool) -> float:
    """Best-of-``rounds`` wall-clock seconds for one workload."""
    timings: List[float] = []
    for _ in range(rounds):
        if cold:
            _clear_shared_caches()
        started = time.perf_counter()
        run()
        timings.append(time.perf_counter() - started)
    return min(timings)


def check_recorded_speedups(output: Path) -> int:
    """The ``--check`` perf smoke gate over the persisted baseline file."""
    if not output.exists():
        print(f"--check: {output} does not exist; run the benches first")
        return 1
    payload = json.loads(output.read_text())
    speedups: Dict[str, float] = payload.get("speedup", {})
    if not speedups:
        print(f"--check: {output} records no speedups; run the benches first")
        return 1
    missing = [
        name for name in REQUIRED_BENCHES if name not in payload.get("current", {})
    ]
    if missing:
        print(f"--check FAILED: required bench(es) not recorded: {missing}")
        return 1
    regressed = []
    for name, speedup in sorted(speedups.items()):
        floor = SPEEDUP_FLOORS.get(name, 1.0)
        verdict = "ok" if speedup >= floor else "REGRESSED"
        print(f"{name:32s} {speedup:8.3f}x  (floor {floor:.1f}x)  {verdict}")
        if speedup < floor:
            regressed.append(name)
    memory: Dict[str, Dict[str, float]] = payload.get("memory", {})
    for name, ceiling in sorted(MEMORY_RATIO_CEILINGS.items()):
        entry = memory.get(name)
        if entry is None:
            print(f"--check FAILED: memory bench {name!r} not recorded")
            return 1
        ratio = entry.get("ratio")
        verdict = "ok" if ratio is not None and ratio < ceiling else "REGRESSED"
        print(
            f"{name:32s} {ratio:8.3f}   (memory ratio, ceiling {ceiling:.2f})  {verdict}"
        )
        if verdict != "ok":
            regressed.append(name)
    remote: Dict[str, Dict[str, float]] = payload.get("remote", {})
    for name, ceiling in sorted(REMOTE_OVERHEAD_CEILINGS.items()):
        entry = remote.get(name)
        if entry is None:
            print(f"--check FAILED: remote bench {name!r} not recorded")
            return 1
        ratio = entry.get("overhead_ratio")
        healed = entry.get("retried_reads", 0) + entry.get("retried_puts", 0)
        ok = ratio is not None and ratio < ceiling and healed > 0
        verdict = "ok" if ok else "REGRESSED"
        print(
            f"{name:32s} {ratio:8.3f}   (remote overhead, ceiling {ceiling:.2f}, "
            f"{entry.get('faults_injected', 0)} faults healed via {healed} retries)  "
            f"{verdict}"
        )
        if not ok:
            regressed.append(name)
    if regressed:
        print(
            f"\n--check FAILED: {len(regressed)} bench(es) out of bounds: {regressed}"
        )
        return 1
    print(
        f"\n--check ok: all {len(speedups)} recorded speedups at or above their "
        f"floors, {len(MEMORY_RATIO_CEILINGS)} memory ratio(s) and "
        f"{len(REMOTE_OVERHEAD_CEILINGS)} remote overhead ratio(s) under their "
        "ceilings"
    )
    return 0


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--record-baseline",
        action="store_true",
        help="store the measured numbers as the baseline too",
    )
    parser.add_argument(
        "--cold",
        action="store_true",
        help="clear shared caches before every round (measures the cache-off path)",
    )
    parser.add_argument(
        "--only", nargs="*", default=None, help="run only the named benches"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "perf smoke gate: validate the speedups recorded in the output "
            "file and exit non-zero if any has regressed below 1.0 (runs no benches)"
        ),
    )
    args = parser.parse_args(argv)

    if args.check:
        return check_recorded_speedups(args.output)

    known = list(BENCHES) + list(MEMORY_BENCHES) + list(REMOTE_BENCHES)
    names = args.only or known
    unknown = [n for n in names if n not in known]
    if unknown:
        parser.error(f"unknown bench names: {unknown}; known: {known}")

    previous: Dict[str, object] = {}
    if args.output.exists():
        previous = json.loads(args.output.read_text())
    baseline: Dict[str, float] = dict(previous.get("baseline", {}))
    current: Dict[str, float] = dict(previous.get("current", {}))
    memory: Dict[str, Dict[str, float]] = dict(previous.get("memory", {}))
    remote: Dict[str, Dict[str, float]] = dict(previous.get("remote", {}))

    for name in (n for n in names if n in BENCHES):
        setup = BENCHES[name]()
        run, rounds = setup[0], setup[1]
        baseline_run = setup[2] if len(setup) > 2 else None
        if baseline_run is not None and (args.record_baseline or name not in baseline):
            _clear_shared_caches()
            baseline[name] = round(measure(baseline_run, rounds, cold=args.cold), 6)
        _clear_shared_caches()
        seconds = measure(run, rounds, cold=args.cold)
        current[name] = round(seconds, 6)
        if args.record_baseline and baseline_run is None:
            baseline[name] = round(seconds, 6)
        base = baseline.get(name)
        speedup = f"  ({base / seconds:.2f}x vs baseline)" if base else ""
        print(f"{name:32s} {seconds * 1000:10.2f} ms{speedup}")
        timers = getattr(run, "stage_timers", None)
        if timers is not None and timers.totals():
            # per-stage wall clock accumulated across the measured rounds
            for line in timers.summary().splitlines():
                print(f"    {line}")

    for name in (n for n in names if n in MEMORY_BENCHES):
        readings = MEMORY_BENCHES[name]()
        memory[name] = readings
        print(
            f"{name:32s} {readings['peak_mb']:8.1f} MB peak  "
            f"({readings['ratio']:.3f}x the {readings['baseline_peak_mb']:.1f} MB "
            f"materialized footprint)"
        )

    for name in (n for n in names if n in REMOTE_BENCHES):
        readings = REMOTE_BENCHES[name]()
        remote[name] = readings
        print(
            f"{name:32s} {readings['seconds'] * 1000:10.2f} ms  "
            f"({readings['overhead_ratio']:.3f}x the clean in-memory run; "
            f"{readings['faults_injected']} faults at rate "
            f"{readings['fault_rate']}, healed via {readings['retried_reads']} "
            f"read + {readings['retried_puts']} put retries)"
        )
        # I/O-vs-compute overlap: fetch_wait is the unhidden remainder of
        # shard I/O the compute path actually blocked on
        wait = readings.get("fetch_wait_seconds")
        if wait is not None:
            blocked = 100.0 * wait / readings["seconds"]
            line = (
                f"    io: blocked {wait * 1000:.2f} ms on shard fetches "
                f"({blocked:.1f}% of wall clock; compute {100.0 - blocked:.1f}%)"
            )
            if "prefetch_hits" in readings:
                line += (
                    f"; prefetch depth {readings['prefetch_depth']} served "
                    f"{readings['prefetch_hits']} shards early, "
                    f"{readings['demand_fetches']} on demand"
                )
            print(line)

    payload = {
        "_meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "mode": "cold" if args.cold else "warm",
            "note": (
                "seconds are best-of-N wall clock; 'baseline' is the "
                "pre-optimization tree (recorded once), 'current' the tree at "
                "measurement time -- except for "
                "paired benches (incremental_edit_loop_*, sharded_detection_*, "
                "sharded_discovery_*, rule_maintenance_edit_loop_*), whose "
                "baseline is their same-tree reference workload (full "
                "re-detection / monolithic single-worker detection / "
                "scalar-reference-route sharded discovery / full "
                "re-discovery per edit batch); 'memory' "
                "records tracemalloc peaks of the out-of-core session vs the "
                "materialized-table footprint (a bytes ratio, not a speedup); "
                "'remote' records sharded detection with shard bytes behind "
                "the fault-injected loopback HTTP object client vs the clean "
                "in-memory sharded run (an overhead ratio to bound, plus the "
                "fault/retry counters); pipelined_remote_* is the same "
                "workload through the prefetching reader (shards fetched and "
                "checksum-verified ahead on background threads), with "
                "fetch_wait recording the unhidden I/O the compute path "
                "blocked on"
            ),
        },
        "baseline": baseline,
        "current": current,
        "memory": memory,
        "remote": remote,
        "speedup": {
            name: round(baseline[name] / current[name], 3)
            for name in current
            if baseline.get(name) and current[name] > 0
        },
    }
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
