"""Metric definitions, summary statistics and run comparison.

End-to-end metrics come from untraced session processes: timings are
medians over warm rounds, with the samples kept so a comparison can
judge spread.  Per-layer metrics come from the traced process: ``*_s``
is self time per warm round (span time minus time covered by child
spans), ``*_calls`` exact call counts per warm round.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: Optional[float] = None


#: the end-to-end metrics ``BENCHMARK.json`` gates.  Each exists on every
#: workload and holds its bound from run to run on a shared two-vCPU
#: host (README.md lists the measured spreads).
END_TO_END: Sequence[Metric] = (
    Metric("session_s", "s", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
    Metric("detect_f1", "ratio", "higher", 0.02),
)

#: end-to-end metrics every run reports and ``run.py compare`` judges,
#: but ``BENCHMARK.json`` does not gate: their run-to-run spread exceeds
#: the largest bound it allows, or (the edit loop's) they do not exist
#: on the read-only workload.  Omitted where a workload has no edits.
REPORTED: Sequence[Metric] = (
    Metric("cold_session_s", "s", "lower", 0.10),
    Metric("upload_s", "s", "lower", 0.10),
    Metric("profile_s", "s", "lower", 0.10),
    Metric("discover_s", "s", "lower", 0.10),
    Metric("detect_s", "s", "lower", 0.10),
    Metric("edit_attach_s", "s", "lower", 0.10),
    Metric("edit_p50_ms", "ms", "lower", 0.10),
    Metric("edit_p95_ms", "ms", "lower", 0.10),
    Metric("recheck_s", "s", "lower", 0.10),
    Metric("failed_ops_ratio", "ratio", "lower", 0.0),
)

EDIT_METRICS = ("edit_attach_s", "edit_p50_ms", "edit_p95_ms", "recheck_s")

#: session op → end-to-end metric timing it (per round: the op's total)
OP_METRICS = {
    "upload": "upload_s",
    "profile": "profile_s",
    "discover": "discover_s",
    "detect": "detect_s",
    "edit_attach": "edit_attach_s",
    "recheck": "recheck_s",
}


# -- summary statistics --------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, q3)`` as ``statistics.quantiles(values, n=4)`` gives them
    (both equal the value for a single sample)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def iqr_share(values: Sequence[float]) -> float:
    """The distance between the quartiles as a share of the median."""
    mid = median(values)
    if mid == 0:
        return 0.0
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(mid)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def f1_score(true_positives: int, false_positives: int, false_negatives: int) -> float:
    flagged = true_positives + false_positives
    actual = true_positives + false_negatives
    if not flagged or not actual or not true_positives:
        return 0.0
    precision = true_positives / flagged
    recall = true_positives / actual
    return 2 * precision * recall / (precision + recall)


# -- end-to-end aggregation ----------------------------------------------------


def warm_rounds(rounds: List[dict]) -> List[dict]:
    """Warm rounds; a run with only cold rounds (a smoke run) uses those."""
    return [r for r in rounds if r["index"] > 0] or rounds


def end_to_end(
    processes: Sequence[dict], setup_samples: Sequence[float], failed_ops_ratio: float
) -> Dict[str, dict]:
    """Every end-to-end metric (gated and reported) from the session
    processes' results: ``{"value", "unit", "samples"}`` per metric."""
    rounds = [r for process in processes for r in process["rounds"]]
    warm = warm_rounds(rounds)
    cold = [r for r in rounds if r["index"] == 0]
    samples: Dict[str, List[float]] = {
        "session_s": [r["session_s"] for r in warm],
        "cold_session_s": [r["session_s"] for r in cold],
        "setup_s": list(setup_samples),
        "peak_rss_mb": [process["peak_rss_mb"] for process in processes],
        "detect_f1": [f1_score(*r["f1_counts"]) for r in rounds],
        "failed_ops_ratio": [failed_ops_ratio],
    }
    for op, name in OP_METRICS.items():
        samples[name] = [r["ops"].get(op, 0.0) for r in warm]
    # edit latencies pool over warm rounds; their samples (for judging
    # spread) are the per-round percentiles
    edits = [ms for r in warm for ms in r["edit_ms"]]
    samples["edit_p50_ms"] = [median(r["edit_ms"]) for r in warm if r["edit_ms"]]
    samples["edit_p95_ms"] = [percentile(r["edit_ms"], 95) for r in warm if r["edit_ms"]]
    values = {
        "peak_rss_mb": max(samples["peak_rss_mb"]),
        "edit_p50_ms": median(edits) if edits else 0.0,
        "edit_p95_ms": percentile(edits, 95) if edits else 0.0,
    }
    result = {}
    for metric in (*END_TO_END, *REPORTED):
        if metric.name in EDIT_METRICS and not edits:
            continue
        metric_samples = samples[metric.name]
        value = values.get(metric.name, median(metric_samples))
        result[metric.name] = {"value": value, "unit": metric.unit, "samples": metric_samples}
    return result


# -- per-layer aggregation -----------------------------------------------------


def _self(span: str) -> Callable:
    return lambda t, c: t.get(span, {}).get("self_s", 0.0)


def _calls(span: str) -> Callable:
    return lambda t, c: t.get(span, {}).get("calls", 0)


def _sum(span: str, key: str) -> Callable:
    return lambda t, c: t.get(span, {}).get(key, 0)


def _counter(key: str) -> Callable:
    return lambda t, c: c.get(key, 0)


def _ratio(numerator: Callable, denominator: Callable) -> Callable:
    def ratio(t, c):
        below = denominator(t, c)
        return numerator(t, c) / below if below else 0.0

    return ratio


def _hit_ratio(cache: str) -> Callable:
    def ratio(t, c):
        hits, misses = c.get(f"{cache}.hits", 0), c.get(f"{cache}.misses", 0)
        return hits / (hits + misses) if hits + misses else 0.0

    return ratio


def _remine_calls(t, c):
    return _calls("discovery.remine")(t, c) - _sum("discovery.remine", "declined")(t, c)


def _data_passes(t, c):
    return c.get("shards", 0) * c.get("data_passes", 0)


def _stored_bytes(t, c):
    return c.get("spill_bytes", 0) + _sum("sharding.remote.put", "bytes")(t, c)


def _layer(name: str, unit: str, better: str, compute: Callable) -> tuple:
    return Metric(name, unit, better), compute


def _timed(prefix: str, span: str) -> List[tuple]:
    """``<prefix>_s`` (self time) and ``<prefix>_calls`` of one span."""
    return [
        _layer(f"{prefix}_s", "s", "lower", _self(span)),
        _layer(f"{prefix}_calls", "count", "lower", _calls(span)),
    ]


#: (metric, compute(span totals, round counters)) for every per-layer metric
PER_LAYER: Sequence[tuple] = (
    _layer("dataset.csv_parse_s", "s", "lower", _self("dataset.csv_parse")),
    _layer("dataset.profile_s", "s", "lower", _self("dataset.profile")),
    *_timed("sharding.store.get", "sharding.store.get"),
    *_timed("sharding.store.append", "sharding.store.append"),
    _layer(
        "sharding.store.read_amplification",
        "ratio",
        "lower",
        _ratio(_calls("sharding.store.get"), _data_passes),
    ),
    _layer(
        "sharding.store.space_amplification",
        "ratio",
        "lower",
        _ratio(_stored_bytes, _counter("csv_bytes")),
    ),
    *_timed("sharding.remote.get", "sharding.remote.get"),
    *_timed("sharding.remote.put", "sharding.remote.put"),
    _layer("sharding.remote.faults_injected", "count", "lower", _counter("faults_injected")),
    _layer("sharding.remote.retried_reads", "count", "lower", _counter("retried_reads")),
    _layer("sharding.remote.retried_puts", "count", "lower", _counter("retried_puts")),
    _layer(
        "sharding.remote.fetch_wait_s",
        "s",
        "lower",
        _sum("sharding.remote.fetch_wait", "total_s"),
    ),
    _layer(
        "sharding.remote.prefetch_hit_ratio",
        "ratio",
        "higher",
        _ratio(_counter("prefetch_hits"), _calls("sharding.remote.fetch_wait")),
    ),
    _layer(
        "sharding.remote.objects_left_after_close",
        "count",
        "lower",
        _counter("objects_left_after_close"),
    ),
    _layer("sharding.stats.extract_s", "s", "lower", _self("sharding.stats.extract")),
    _layer("sharding.stats.merge_s", "s", "lower", _self("sharding.stats.merge")),
    _layer("sharding.stats.delta_s", "s", "lower", _self("sharding.stats.delta")),
    _layer("sharding.overlay.set_cell_s", "s", "lower", _self("sharding.overlay.set_cell")),
    _layer("sharding.overlay.patched_get_s", "s", "lower", _self("sharding.overlay.patched_get")),
    _layer("sharding.discovery.self_s", "s", "lower", _self("sharding.discovery")),
    _layer("sharding.detection.self_s", "s", "lower", _self("sharding.detection")),
    _layer(
        "sharding.detection.warm_pair_groups_s",
        "s",
        "lower",
        _self("sharding.detection.warm_pair_groups"),
    ),
    *_timed("kernels.encode", "kernels.encode"),
    *_timed("kernels.tokenize", "kernels.tokenize"),
    *_timed("kernels.match", "kernels.match"),
    *_timed("kernels.mine", "kernels.mine"),
    *_timed("kernels.groupby", "kernels.groupby"),
    _layer("discovery.mine_s", "s", "lower", _self("discovery.mine")),
    _layer("discovery.seed_s", "s", "lower", _self("discovery.seed")),
    _layer("discovery.maintain_s", "s", "lower", _self("discovery.maintain")),
    _layer(
        "discovery.maintain_fallbacks",
        "count",
        "lower",
        _sum("discovery.maintain", "fallback"),
    ),
    _layer("discovery.remine_calls", "count", "lower", _remine_calls),
    _layer(
        "discovery.remine_ratio",
        "ratio",
        "lower",
        _ratio(_remine_calls, _sum("discovery.maintain", "candidates")),
    ),
    _layer("detection.detect_s", "s", "lower", _self("detection.detect")),
    _layer("detection.attach_s", "s", "lower", _self("detection.attach")),
    _layer("detection.set_cell_s", "s", "lower", _self("detection.set_cell")),
    _layer("detection.report_s", "s", "lower", _self("detection.report")),
    _layer("engine.executor.self_s", "s", "lower", _self("engine.executor")),
    _layer("engine.source.sharded_view_s", "s", "lower", _self("engine.source.sharded_view")),
    *_timed("engine.pool.map", "engine.pool.map"),
    _layer("engine.pool.warm_hits", "count", "higher", _sum("engine.pool.close", "warm_hits")),
    _layer(
        "engine.pool.worker_peak_rss_mb",
        "MB",
        "lower",
        _counter("worker_peak_rss_mb"),
    ),
    _layer("perf.match_memo.hit_ratio", "ratio", "higher", _hit_ratio("match_memo")),
    _layer("perf.match_memo.values", "count", "lower", _counter("match_memo.values")),
    _layer("perf.regex.hit_ratio", "ratio", "higher", _hit_ratio("regex")),
    _layer("perf.table_artifacts.hit_ratio", "ratio", "higher", _hit_ratio("table_artifacts")),
    _layer(
        "perf.table_artifacts.patched",
        "count",
        "higher",
        _counter("table_artifacts.patched"),
    ),
)


def per_layer(traced: dict) -> Dict[str, dict]:
    """Every per-layer metric from the traced process, averaged over its
    warm rounds: ``{"value", "unit"}`` per metric."""
    warm = warm_rounds(traced["rounds"])
    per_round: Dict[str, List[float]] = {metric.name: [] for metric, _ in PER_LAYER}
    for rnd in warm:
        totals = traced["layers"].get(str(rnd["index"]), {})
        counters = dict(rnd["counters"])
        counters.update(rnd.get("cache_deltas", {}))
        counters["worker_peak_rss_mb"] = traced["worker_peak_rss_mb"]
        for metric, compute in PER_LAYER:
            per_round[metric.name].append(compute(totals, counters))
    return {
        metric.name: {"value": statistics.fmean(per_round[metric.name]), "unit": metric.unit}
        for metric, _ in PER_LAYER
    }


# -- comparison ----------------------------------------------------------------


def verdict(metric: Metric, before: Sequence[float], after: Sequence[float]) -> tuple:
    """``(delta, verdict)`` of ``after`` against ``before``.

    ``delta`` is the change of the median as a share of ``before``'s,
    positive when worse.  The verdict is ``unresolved`` when either
    run's spread is wider than the bound (unless every ``after`` sample
    beats every ``before`` sample), ``regressed`` when the median
    worsened by more than the bound, else ``ok``.
    """
    base, new = median(before), median(after)
    if base:
        change = (new - base) / abs(base)
    else:
        change = math.copysign(math.inf, new) if new else 0.0
    worse = change if metric.better == "lower" else -change
    if metric.better == "lower":
        all_better = max(after) < min(before)
    else:
        all_better = min(after) > max(before)
    if max(iqr_share(before), iqr_share(after)) > metric.bound and not all_better:
        return worse, "unresolved"
    if worse > metric.bound:
        return worse, "regressed"
    return worse, "ok"


def moved_layer(before: Dict[str, dict], after: Dict[str, dict]) -> Optional[tuple]:
    """The per-layer self time (``*_s`` in seconds) that grew the most:
    ``(metric name, seconds per warm round)``, or ``None``."""
    grown = [
        (after[name]["value"] - before[name]["value"], name)
        for name in after
        if name in before and after[name]["unit"] == "s"
    ]
    if not grown:
        return None
    delta, name = max(grown)
    return (name, delta) if delta > 0 else None
