"""Outside-in tracer: times each layer's public entry points from outside.

The benchmark installs :class:`Tracer` in a session process to learn how
a round's time splits across the layers of ``src/repro``, without
touching the program.  Every target in :data:`TARGETS` is wrapped with a
timing wrapper:

* module functions are replaced *by identity* in every loaded module
  under the prefix (``repro`` by default), so call sites that did
  ``from x import f`` are covered too;
* methods are replaced on the class that defines them;
* generator functions get a wrapper that times each ``next()`` step, so
  a streaming reader's parse time is not lost to its consumer.

Wrappers carry ``functools.wraps`` metadata and are installed under the
original's module and qualified name, so pickling one by reference (the
way ``ProcessPoolExecutor`` ships functions) finds the same object.
Each thread keeps its own span stack (the prefetcher fetches on
background threads), every span records the span that caused it, and
:meth:`Tracer.uninstall` restores every original.  A target that no
longer exists is recorded in :attr:`Tracer.missing` instead of failing
the run.

Per-value functions (the tokenizer, the generalizer,
``MatchMemo.matches``) are deliberately absent from the table: they run
millions of times per round and a wrapper there would distort what it
measures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: the span it records and where it lives.

    ``describe`` (optional) maps ``(args, result)`` of a call to a dict
    of numbers stored on the span, for counts a span alone cannot give
    (bytes written, a fallback taken).  ``inside`` (optional) is
    ``(ancestor span, other span name)``: calls made within that
    ancestor are recorded under the other name.
    """

    span: str
    dotted: str
    describe: Optional[Callable[[tuple, object], Dict[str, float]]] = None
    inside: Optional[Tuple[str, str]] = None


def _put_bytes(args: tuple, _result) -> Dict[str, float]:
    return {"bytes": len(args[2])}


def _maintain_outcome(_args: tuple, result) -> Dict[str, float]:
    if result is None:
        return {"fallback": 1}
    return {"candidates": len(result.reports)}


def _remine_outcome(_args: tuple, result) -> Dict[str, float]:
    # remine_candidate_encoded returns None when the scalar loop body
    # must run instead; that call is then counted under remine_candidate
    return {"declined": 1} if result is None else {}


def _pool_warm_hits(args: tuple, _result) -> Dict[str, float]:
    return {"warm_hits": args[0].warm_hits}


#: span name → the public entry points it times.  Span names are the
#: per-layer metric prefixes (see ``bench/metrics.py``).
TARGETS: Tuple[Target, ...] = (
    Target("dataset.csv_parse", "repro.dataset.csvio.iter_csv_chunks"),
    Target("dataset.csv_parse", "repro.dataset.csvio.read_csv"),
    Target("dataset.profile", "repro.dataset.profiling.profile_table"),
    Target("dataset.profile", "repro.dataset.profiling.profile_sharded"),
    Target("sharding.store.get", "repro.sharding.store.InMemoryShardStore.get"),
    Target("sharding.store.get", "repro.sharding.store.SpillToDiskShardStore.get"),
    Target("sharding.store.get", "repro.sharding.object_store.ObjectShardStore.get"),
    Target("sharding.store.append", "repro.sharding.store.InMemoryShardStore.append"),
    Target("sharding.store.append", "repro.sharding.store.SpillToDiskShardStore.append"),
    Target("sharding.store.append", "repro.sharding.object_store.ObjectShardStore.append"),
    Target("sharding.remote.get", "repro.sharding.remote.HttpObjectClient.get"),
    Target("sharding.remote.put", "repro.sharding.remote.HttpObjectClient.put", _put_bytes),
    Target("sharding.remote.fetch_wait", "repro.sharding.prefetch.PrefetchingFetcher.get"),
    Target("sharding.stats.extract", "repro.sharding.stats.extract_pair_groups"),
    Target("sharding.stats.merge", "repro.sharding.stats.merge_pair_groups"),
    Target("sharding.stats.merge", "repro.sharding.stats.tree_merge_pair_groups"),
    Target("sharding.stats.merge", "repro.sharding.stats.merge_tokenizations"),
    Target("sharding.stats.merge", "repro.sharding.stats.tree_merge_tokenizations"),
    Target("sharding.stats.delta", "repro.sharding.stats.unmerge_pair_groups"),
    # detection's shard-major warm-up folds shards in with merge_into too;
    # only rule maintenance uses it to apply an edit batch's delta
    Target(
        "sharding.stats.merge",
        "repro.sharding.stats.merge_into_pair_groups",
        inside=("discovery.maintain", "sharding.stats.delta"),
    ),
    Target("sharding.stats.delta", "repro.sharding.stats.splice_tokenization"),
    Target("sharding.overlay.set_cell", "repro.sharding.overlay.ShardOverlay.set_cell"),
    Target("sharding.overlay.patched_get", "repro.sharding.overlay.OverlayShardStore.get"),
    Target(
        "sharding.discovery",
        "repro.sharding.discovery.ShardedDiscoverer.discover_with_report",
    ),
    Target("sharding.detection", "repro.sharding.detection.ShardedDetector.detect_all"),
    Target(
        "sharding.detection.warm_pair_groups",
        "repro.sharding.detection.ShardedDetector.warm_pair_groups",
    ),
    Target("kernels.encode", "repro.kernels.encoder.encode_column"),
    Target("kernels.encode", "repro.kernels.encoder.encode_chunks"),
    Target("kernels.tokenize", "repro.kernels.tokenize.batch_tokenize"),
    Target("kernels.tokenize", "repro.kernels.tokenize.tokenization_from_encoding"),
    Target("kernels.match", "repro.kernels.match.batch_verdicts"),
    Target("kernels.match", "repro.kernels.match.batch_matching_values"),
    Target("kernels.mine", "repro.kernels.mine.mine_constant_kernel"),
    Target("kernels.mine", "repro.kernels.mine.mine_variable_kernel"),
    Target("kernels.mine", "repro.kernels.mine.coverage_kernel"),
    Target("kernels.groupby", "repro.kernels.groupby.pair_groups_kernel"),
    Target("discovery.mine", "repro.discovery.discoverer.PfdDiscoverer.discover_with_report"),
    Target("discovery.seed", "repro.discovery.maintenance.RuleMaintainer.seed"),
    Target(
        "discovery.maintain",
        "repro.discovery.maintenance.RuleMaintainer.maintain",
        _maintain_outcome,
    ),
    Target("discovery.remine", "repro.discovery.discoverer.PfdDiscoverer.remine_candidate"),
    Target(
        "discovery.remine",
        "repro.discovery.discoverer.PfdDiscoverer.remine_candidate_encoded",
        _remine_outcome,
    ),
    Target("detection.detect", "repro.detection.detector.ErrorDetector.detect_all"),
    Target("detection.attach", "repro.detection.incremental.IncrementalDetector.__init__"),
    Target("detection.set_cell", "repro.detection.incremental.IncrementalDetector.set_cell"),
    Target("detection.report", "repro.detection.incremental.IncrementalDetector.report"),
    Target("engine.executor", "repro.engine.executors.SerialExecutor.run_discovery"),
    Target("engine.executor", "repro.engine.executors.SerialExecutor.run_detection"),
    Target("engine.executor", "repro.engine.executors.ParallelExecutor.run_discovery"),
    Target("engine.executor", "repro.engine.executors.ParallelExecutor.run_detection"),
    Target("engine.executor", "repro.engine.executors.ShardedExecutor.run_discovery"),
    Target("engine.executor", "repro.engine.executors.ShardedExecutor.run_detection"),
    Target("engine.source.sharded_view", "repro.engine.executors.DataSource.sharded_view"),
    Target("engine.pool.map", "repro.engine.worker_pool.WorkerPool.map"),
    Target("engine.pool.close", "repro.engine.worker_pool.WorkerPool.close", _pool_warm_hits),
)


@dataclass
class Span:
    """One finished call: ``parent`` is the id of the enclosing span on
    the same thread (``None`` for a root), ``round`` the session round
    it started in."""

    id: int
    name: str
    tid: int
    start: float
    end: float
    parent: Optional[int]
    round: int
    args: Dict[str, float]

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's self time: its duration minus the time covered by its
    direct children (children of one span never overlap — they ran on
    its thread, one after another)."""
    covered: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
    return {span.id: span.duration - covered.get(span.id, 0.0) for span in spans}


def _resolve(dotted: str):
    """``(owner, attribute, original)`` for a dotted target: a module
    function (owner = module) or a method defined on a class."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        path = parts[split:]
        for name in path[:-1]:
            owner = getattr(owner, name)
        attribute = path[-1]
        if inspect.isclass(owner):
            # only a method the class itself defines; patching an
            # inherited one would shadow it on restore
            original = owner.__dict__[attribute]
        else:
            original = getattr(owner, attribute)
        return owner, attribute, original
    raise ImportError(f"no importable module in {dotted!r}")


class Tracer:
    """Records spans around :data:`TARGETS` while installed.

    ``module_prefix`` bounds which loaded modules get their references
    to a wrapped module function rebound.
    """

    def __init__(self, targets: Sequence[Target] = TARGETS, module_prefix: str = "repro"):
        self.targets = tuple(targets)
        self.module_prefix = module_prefix
        self.spans: List[Span] = []
        self.missing: List[str] = []
        #: the session round new spans belong to (set by the session process)
        self.round = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    # -- recording ---------------------------------------------------------------

    def _stack(self) -> List[Tuple[int, str]]:
        """This thread's open spans, innermost last."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _begin(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else None
        stack.append((span_id, name))
        return span_id, name, parent, self.round, time.perf_counter()

    def _end(self, token, args: Optional[Dict[str, float]] = None) -> None:
        end = time.perf_counter()
        span_id, name, parent, round_index, start = token
        self._stack().pop()
        self.spans.append(
            Span(span_id, name, threading.get_ident(), start, end, parent, round_index, args or {})
        )

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a span around a block (the benchmark's session ops)."""
        token = self._begin(name)
        try:
            yield
        finally:
            self._end(token)

    def _span_name(self, target: Target) -> str:
        if target.inside is not None:
            ancestor, other = target.inside
            if any(name == ancestor for _id, name in self._stack()):
                return other
        return target.span

    def wrap(self, target: Target, fn: Callable) -> Callable:
        """A timing wrapper for ``fn`` recording ``target``'s span."""
        describe = target.describe
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def step_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        token = self._begin(self._span_name(target))
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            self._end(token)
                        yield item
                finally:
                    inner.close()

            return step_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = self._begin(self._span_name(target))
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._end(token)
                raise
            self._end(token, describe(args, result) if describe else None)
            return result

        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every resolvable target; unresolvable ones go to
        :attr:`missing`."""
        for target in self.targets:
            try:
                owner, attribute, original = _resolve(target.dotted)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target.dotted)
                continue
            if inspect.isclass(owner):
                self._patch(owner, attribute, original, self.wrap(target, original))
            else:
                self._patch_everywhere(original, self.wrap(target, original))
        return self

    def _patch(self, owner, attribute: str, original, replacement) -> None:
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, original))

    def _patch_everywhere(self, original, replacement) -> None:
        prefix = self.module_prefix
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == prefix or module_name.startswith(prefix + ".")
            ):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attribute, original, replacement)

    def uninstall(self) -> None:
        """Restore every original (idempotent)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- export ------------------------------------------------------------------

    def layer_totals(self, round_index: int) -> Dict[str, Dict[str, float]]:
        """Per span name in one round: ``calls``, ``self_s``, ``total_s``
        and the sum of each ``describe`` number."""
        selves = self_times(self.spans)
        totals: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            if span.round != round_index:
                continue
            entry = totals.setdefault(span.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += selves[span.id]
            entry["total_s"] += span.duration
            for key, value in span.args.items():
                entry[key] = entry.get(key, 0) + value
        return totals

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (opens in Perfetto)."""
        pid = os.getpid()
        tids: Dict[int, int] = {}
        events = []
        for span in sorted(self.spans, key=lambda s: (s.start, -s.end)):
            tid = tids.setdefault(span.tid, len(tids))
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".")[0],
                    "ph": "X",
                    "ts": round((span.start - self._origin) * 1e6, 3),
                    "dur": round(span.duration * 1e6, 3),
                    "pid": pid,
                    "tid": tid,
                    "args": dict(span.args, round=span.round),
                }
            )
        for thread, tid in tids.items():
            label = "session" if tid == 0 else f"thread {thread}"
            events.append(
                {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid, "args": {"name": label}}
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: Path) -> None:
        Path(path).write_text(json.dumps(self.chrome_trace()))
