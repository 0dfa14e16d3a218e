"""One benchmark session process: a cold round, then warm rounds.

Started by ``bench/run.py`` as a fresh interpreter (never forked), so
the process-wide caches and the resident set start clean.  It replays a
workload manifest: each round uploads every dataset, then profiles,
discovers, confirms, detects, applies the repair batches (each followed
by a re-check) and closes.  Each op is timed around the public call
only; the digest checks against the manifest's reference run outside
the timed spans.  The results go to ``--out`` as JSON.

With ``--trace`` the outside-in tracer is installed for the whole
process and its Chrome trace-event file is written there.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro import perf  # noqa: E402
from repro.anmat.session import AnmatSession  # noqa: E402
from repro.dataset import csvio  # noqa: E402
from repro.discovery.config import DiscoveryConfig  # noqa: E402
from repro.metrics.evaluation import evaluate_report  # noqa: E402
from repro.sharding import (  # noqa: E402
    FaultInjectingClient,
    HttpObjectClient,
    ObjectShardStore,
    RetryPolicy,
)

from bench.trace import Tracer  # noqa: E402
from bench.workloads import (  # noqa: E402
    REMOTE_FAULT_RATE,
    WORKLOADS,
    Workload,
    rules_digest,
    violations_digest,
)


class SessionFailed(Exception):
    """A session op raised; the rest of that session is skipped."""


class Round:
    """Per-op wall clock, edit latencies and check outcomes of one round."""

    def __init__(self, index: int, tracer: Tracer | None):
        self.index = index
        self.tracer = tracer
        self.ops: dict = defaultdict(float)
        self.edit_ms: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.f1_counts = [0, 0, 0]
        self.counters: dict = defaultdict(float)

    def timed(self, name: str, call, *args):
        """Run one session op, adding its wall clock to ``name``."""
        self.attempted += 1
        span = self.tracer.span(f"session.{name}") if self.tracer else contextlib.nullcontext()
        with span:
            started = time.perf_counter()
            try:
                result = call(*args)
            except Exception as exc:
                self.failed += 1
                self.errors.append(f"{name}: {exc!r}")
                raise SessionFailed from exc
            finally:
                elapsed = time.perf_counter() - started
        self.ops[name] += elapsed
        return result, elapsed

    def check(self, what: str, ok: bool) -> None:
        """A failed output check fails the op it checked."""
        if not ok:
            self.failed += 1
            self.errors.append(f"check failed: {what}")

    def as_dict(self, wall_s: float) -> dict:
        return {
            "index": self.index,
            "ops": dict(self.ops),
            "session_s": sum(self.ops.values()),
            "wall_s": wall_s,
            "edit_ms": self.edit_ms,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "f1_counts": self.f1_counts,
            "counters": dict(self.counters),
        }


def _config(workload: Workload) -> DiscoveryConfig:
    if workload.route == "spill":
        return DiscoveryConfig(store="spill")
    if workload.route == "remote":
        return DiscoveryConfig(store="object", n_workers=workload.n_workers)
    return DiscoveryConfig()


def _remote_store(url: str, seed: int):
    client = FaultInjectingClient(HttpObjectClient(url), seed=seed, fault_rate=REMOTE_FAULT_RATE)
    store = ObjectShardStore(
        client=client,
        owns_client=True,
        retry_policy=RetryPolicy(max_attempts=8, base_delay=0.0),
        prefetch_depth=2,
    )
    return client, store


def _spill_bytes() -> int:
    """Bytes of the spill files under this process's private TMPDIR."""
    root = Path(os.environ.get("TMPDIR", "."))
    return sum(p.stat().st_size for p in root.glob("repro-shards-*/*") if p.is_file())


def run_session(workload: Workload, entry: dict, rnd: Round, seed: int, url: str | None) -> None:
    """One dataset's session; raises :class:`SessionFailed` when an op
    raised (the session is closed either way)."""
    session = AnmatSession(dataset_name=entry["name"], config=_config(workload))
    client = store = None
    if workload.route == "remote":
        client, store = _remote_store(url, seed)
    reference = entry["reference"]
    try:
        if workload.route == "table":
            # through the module, so a traced run sees the (wrapped) reader
            rnd.timed("upload", lambda: session.load_table(csvio.read_csv(entry["csv"])))
        else:
            rnd.timed("upload", session.upload_csv, entry["csv"], workload.shard_rows, store)
            if rnd.tracer and workload.route == "spill":
                rnd.counters["spill_bytes"] += _spill_bytes()
        rnd.counters["csv_bytes"] += entry["csv_bytes"]
        if workload.shard_rows:
            rnd.counters["shards"] += -(-entry["rows"] // workload.shard_rows)
        rnd.timed("profile", session.run_profiling)
        rnd.timed("discover", session.run_discovery)
        rnd.timed("confirm", session.confirm_all)
        report, _ = rnd.timed("detect", session.run_detection)
        rnd.counters["data_passes"] += 3
        rnd.check(f"{entry['name']} initial rules", rules_digest(session.discovery.pfds) == reference[0]["rules"])
        rnd.check(f"{entry['name']} initial violations", violations_digest(report) == reference[0]["violations"])
        scores = evaluate_report(report, [tuple(cell) for cell in entry["error_cells"]])
        for position, count in enumerate(
            (scores.true_positives, scores.false_positives, scores.false_negatives)
        ):
            rnd.f1_counts[position] += count
        for number, batch in enumerate(entry["batches"], start=1):
            for position, (row, attribute, value) in enumerate(batch):
                if position == 0:
                    rnd.timed("edit_attach", session.edit_cell, row, attribute, value)
                else:
                    _, elapsed = rnd.timed("edit", session.edit_cell, row, attribute, value)
                    rnd.edit_ms.append(elapsed * 1000.0)
            rnd.timed("recheck", session.recheck)
            rnd.counters["data_passes"] += 1
            point = reference[number]
            rnd.check(f"{entry['name']} batch {number} rules", rules_digest(session.discovery.pfds) == point["rules"])
            rnd.check(f"{entry['name']} batch {number} violations", violations_digest(session.violations) == point["violations"])
    finally:
        rnd.timed("close", session.close)
        if store is not None:
            rnd.counters["faults_injected"] += client.total_faults
            rnd.counters["retried_reads"] += store.retried_reads
            rnd.counters["retried_puts"] += store.retried_puts
            rnd.counters["prefetch_hits"] += store.prefetch_hits
            left = len(HttpObjectClient(url).list(""))
            rnd.counters["objects_left_after_close"] += left
            rnd.check("no objects left after close", left == 0)


def _peak_rss_mb() -> float:
    """This program's peak resident set.  ``ru_maxrss`` would not do: on
    Linux it starts from the spawning process's peak, carried over the
    exec."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cache_counts() -> dict:
    """Flat hit/miss/size counters of the process-wide caches."""
    stats = perf.cache_stats()
    return {
        f"{cache}.{key}": value
        for cache in ("match_memo", "regex", "table_artifacts")
        for key, value in stats[cache].items()
        if isinstance(value, (int, float))
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--max-warm", type=int, required=True)
    parser.add_argument(
        "--budget", type=float, required=True, help="seconds after which no warm round starts"
    )
    parser.add_argument("--trace", type=Path, default=None, help="Chrome trace output")
    parser.add_argument("--object-url", default=None)
    args = parser.parse_args(argv)

    manifest = json.loads(args.manifest.read_text())
    workload = WORKLOADS[manifest["workload"]]
    tracer = Tracer().install() if args.trace else None
    started = time.monotonic()
    rounds = []
    layers = {}
    try:
        for index in range(1 + args.max_warm):
            # always one warm round; further ones while budget is left
            # (the round in progress is finished, never cut)
            if index >= 2 and time.monotonic() - started >= args.budget:
                break
            if tracer:
                tracer.round = index
                caches_before = _cache_counts()
            # every round starts from the same collector state, so where
            # the full collections land inside it does not depend on the
            # garbage the previous round left behind
            gc.collect()
            rnd = Round(index, tracer)
            round_started = time.perf_counter()
            for entry in manifest["datasets"]:
                try:
                    run_session(workload, entry, rnd, manifest["seed"], args.object_url)
                except SessionFailed:
                    pass
            rounds.append(rnd.as_dict(time.perf_counter() - round_started))
            if tracer:
                after = _cache_counts()
                counts = {k: after[k] - caches_before.get(k, 0) for k in after}
                # the memo's size, not its growth: once warm a round adds nothing
                counts["match_memo.values"] = after["match_memo.values"]
                rounds[-1]["cache_deltas"] = counts
    finally:
        if tracer:
            tracer.uninstall()
    if tracer:
        tracer.write_chrome_trace(args.trace)
        layers = {str(r["index"]): tracer.layer_totals(r["index"]) for r in rounds}
    result = {
        "rounds": rounds,
        "layers": layers,
        "missing_targets": tracer.missing if tracer else [],
        "peak_rss_mb": _peak_rss_mb(),
        "worker_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
