"""Per-layer tracing for the end-to-end benchmark, timed from outside.

:func:`install` wraps the public function each layer of ``repro``
exposes (the names its callers look up at call time) with a span timer,
so the program itself carries no benchmark code.  Spans and counts are
kept in memory by a :class:`Tracer`; pool workers ship theirs home
inside the result they already return, and the parent folds them in.

:func:`attribute` splits the traced wall clock between layers.  Inside
one process a span's self time is its duration minus its children.
When pool workers run at once, each instant is shared evenly between
the innermost spans active at that instant in any process.  What no
span covers (including a parent waiting on idle workers) is
``engine.unattributed_s``, so the layer times plus that row sum to the
traced wall exactly.
"""

from __future__ import annotations

import functools
import importlib
import os
import pickle
import time
from collections import defaultdict
from typing import Any, Callable

#: Every per-layer metric (units and directions are in BENCHMARK.json)
#: and the end-to-end metric and workload it should move.
MOVES: dict[str, str] = {
    "workloads.generate_s": "wall_s on every workload; the largest share on sweep8-replay",
    "workloads.count": "workloads.generate_s: sets generated more than once per pass",
    "benchmarks.execute_s": "wall_s, cells_per_s on table2-cold and table2-pool; none on sweep8-replay",
    "benchmarks.verify_s": "wall_s on table2-cold and table2-pool; none on sweep8-replay",
    "benchmarks.executions": "none: 195 on table2-*, 0 on sweep8-replay",
    "capture.snapshot_s": "wall_s, cells_per_s on table2-cold and table2-pool",
    "capture.events": "none: fixed by the workloads",
    "capture.events_per_exec_s": "wall_s on table2-cold and table2-pool",
    "artifacts.encode_s": "wall_s, store_mb on table2-cold; most on table2-pool",
    "artifacts.decode_s": "wall_s on sweep8-replay",
    "artifacts.capture_put_s": "wall_s on table2-cold; most on table2-pool",
    "artifacts.capture_get_s": "wall_s on sweep8-replay",
    "artifacts.encoded_mb": "store_mb on table2-cold and table2-pool",
    "artifacts.raw_mb": "none: base of compress_ratio",
    "artifacts.compress_ratio": "store_mb on table2-cold and table2-pool",
    "artifacts.capture_hits": "none: 195 on sweep8-replay, 0 on table2-*",
    "artifacts.capture_misses": "none: 195 on table2-*, 0 on sweep8-replay",
    "cache.key_s": "wall_s on sweep8-replay, one key per cell",
    "cache.profile_get_s": "wall_s on sweep8-replay",
    "cache.profile_put_s": "wall_s on sweep8-replay; store_mb on every workload",
    "cache.hits": "none: 0 on every workload (profile stores start empty)",
    "cache.misses": "none: one per cell",
    "cache.hit_ratio": "none: 0 on every workload",
    "engine.transport_mb": "wall_s, cpu_s, peak_rss_mb on table2-pool; 0 elsewhere",
    "engine.transport_s": "wall_s, cpu_s on table2-pool; 0 elsewhere",
    "engine.unattributed_s": "wall_s on every workload",
    "engine.unattributed_frac": "none: share of traced wall no layer claims",
    "replay.s": "wall_s on table2-cold and table2-pool; none on sweep8-replay",
    "replay.events": "none: fixed by the workloads",
    "replay.events_per_s": "wall_s on table2-cold",
    "batch.s": "wall_s on sweep8-replay, where it dominates",
    "batch.configs": "none: 1560 on sweep8-replay, 0 on table2-*",
    "batch.events_per_s": "wall_s on sweep8-replay",
    "summarize.s": "negligible everywhere; kept so a regression shows",
    "trace.wall_s": "none: the traced wall the layer times sum to",
    "trace.overhead_s": "none: traced wall minus untraced wall",
}

#: The layer times that, with ``engine.unattributed_s``, sum to the wall.
TIME_LAYERS = (
    "workloads.generate_s",
    "benchmarks.execute_s",
    "benchmarks.verify_s",
    "capture.snapshot_s",
    "artifacts.encode_s",
    "artifacts.decode_s",
    "artifacts.capture_put_s",
    "artifacts.capture_get_s",
    "cache.key_s",
    "cache.profile_get_s",
    "cache.profile_put_s",
    "engine.transport_s",
    "replay.s",
    "batch.s",
    "summarize.s",
)

UNATTRIBUTED = "engine.unattributed_s"
_SHIPPED = "perfbench.trace"


class Tracer:
    """In-memory spans ``(name, pid, start, end, parent)`` and counts."""

    def __init__(self) -> None:
        self.parent_pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        self.owner = os.getpid()
        self.spans: list[tuple[str, int, float, float, str]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.stack: list[str] = []

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value


#: The tracer of this process while installed, and the engine's own cell
#: entry point.  Module-level because the pool pickles the wrapping entry
#: point by reference and a forked worker must find both.
_ACTIVE: Tracer | None = None
_RUN_CELL: Callable | None = None
_PATCHES: list[tuple[Any, str, Any]] = []
_MISSING = object()


def _timed(tracer: Tracer, name: str, fn: Callable, count: Callable | None = None) -> Callable:
    @functools.wraps(fn)
    def timed(*args: Any, **kwargs: Any) -> Any:
        stack = tracer.stack
        parent = stack[-1] if stack else ""
        stack.append(name)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            tracer.spans.append((name, os.getpid(), start, end, parent))
        if count is not None:
            count(tracer, args, out)
        return out

    return timed


def _patch(owner: Any, attr: str, new: Any) -> None:
    # A method a benchmark class inherits is not in its own __dict__.
    _PATCHES.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
    setattr(owner, attr, new)


def _count_hits(hit: str, miss: str) -> Callable:
    def count(t: Tracer, args: tuple, out: Any) -> None:
        t.add(miss if out is None else hit, 1)

    return count


def _count_encode(t: Tracer, args: tuple, out: bytes) -> None:
    t.add("artifacts.encoded_bytes", len(out))
    t.add("artifacts.raw_bytes", 32 * args[0].n_events)  # four int64 columns


def _count_batch(t: Tracer, args: tuple, out: Any) -> None:
    t.add("batch.configs", len(args[1]))
    t.add("batch.events", args[0].n_events * len(args[1]))


def install(tracer: Tracer, benchmark_classes: "list[type]") -> None:
    """Wrap every layer's entry points so calls record into ``tracer``."""
    global _ACTIVE, _RUN_CELL
    # ``repro.core`` re-exports functions named like some of its modules.
    artifacts = importlib.import_module("repro.core.artifacts")
    characterize = importlib.import_module("repro.core.characterize")
    engine = importlib.import_module("repro.core.engine")
    from repro.core.artifacts import CaptureStore
    from repro.core.cache import ResultCache
    from repro.machine.capture import TelemetryCapture

    if _PATCHES:
        raise RuntimeError("layer tracing is already installed")
    _ACTIVE = tracer
    _RUN_CELL = engine._run_cell
    t = tracer
    _patch(engine, "alberta_workloads", _timed(
        t, "workloads.generate_s", engine.alberta_workloads,
        lambda t, a, out: t.add("workloads.count", len(out))))
    for cls in benchmark_classes:
        _patch(cls, "run", _timed(
            t, "benchmarks.execute_s", cls.run,
            lambda t, a, out: t.add("benchmarks.executions", 1)))
        _patch(cls, "verify", _timed(t, "benchmarks.verify_s", cls.verify))
    snapshot = TelemetryCapture.__dict__["from_probe"].__func__
    _patch(TelemetryCapture, "from_probe", classmethod(_timed(
        t, "capture.snapshot_s", snapshot,
        lambda t, a, out: t.add("capture.events", out.n_events))))
    _patch(artifacts, "encode_capture", _timed(
        t, "artifacts.encode_s", artifacts.encode_capture, _count_encode))
    _patch(artifacts, "decode_capture", _timed(t, "artifacts.decode_s", artifacts.decode_capture))
    _patch(CaptureStore, "put", _timed(t, "artifacts.capture_put_s", CaptureStore.put))
    _patch(CaptureStore, "get", _timed(
        t, "artifacts.capture_get_s", CaptureStore.get,
        _count_hits("artifacts.capture_hits", "artifacts.capture_misses")))
    _patch(engine, "cache_key", _timed(t, "cache.key_s", engine.cache_key))
    _patch(engine, "capture_key", _timed(t, "cache.key_s", engine.capture_key))
    _patch(ResultCache, "get", _timed(
        t, "cache.profile_get_s", ResultCache.get, _count_hits("cache.hits", "cache.misses")))
    _patch(ResultCache, "put", _timed(t, "cache.profile_put_s", ResultCache.put))
    _patch(engine, "replay_capture", _timed(
        t, "replay.s", engine.replay_capture,
        lambda t, a, out: t.add("replay.events", a[0].n_events)))
    _patch(engine, "replay_capture_batched", _timed(
        t, "batch.s", engine.replay_capture_batched, _count_batch))
    _patch(characterize, "assemble_characterization", _timed(
        t, "summarize.s", characterize.assemble_characterization))
    _patch(engine, "_run_cell", _pool_cell)
    _patch(engine.CharacterizationEngine, "_execute",
           _collecting(engine.CharacterizationEngine._execute))


def uninstall() -> None:
    """Restore every wrapped function (tests install and remove tracing)."""
    global _ACTIVE, _RUN_CELL
    while _PATCHES:
        owner, attr, original = _PATCHES.pop()
        if original is _MISSING:
            delattr(owner, attr)
        else:
            setattr(owner, attr, original)
    _ACTIVE = _RUN_CELL = None


def _pool_cell(*args: Any) -> Any:
    """The engine's cell entry point; in a pool worker it also ships spans.

    A worker times the pickle round trip of what it returns (the
    transport the pool pays) and attaches its spans and counts to the
    result's meta dict, where :func:`_collecting` picks them up.
    """
    tracer = _ACTIVE
    in_worker = tracer is not None and os.getpid() != tracer.parent_pid
    if in_worker and tracer.owner != os.getpid():
        tracer.reset()  # drop what the fork copied from the parent
    result = _RUN_CELL(*args)
    if not in_worker:
        return result
    start = time.perf_counter()
    blob = pickle.dumps(result)
    pickle.loads(blob)
    tracer.spans.append(("engine.transport_s", os.getpid(), start, time.perf_counter(), ""))
    tracer.add("engine.transport_bytes", len(blob))
    result[2][_SHIPPED] = {"spans": tracer.spans, "counts": dict(tracer.counts)}
    tracer.reset()
    return result


def _collecting(execute: Callable) -> Callable:
    @functools.wraps(execute)
    def collect(self: Any, cells: Any, pending: Any, outcomes: Any, *rest: Any) -> None:
        execute(self, cells, pending, outcomes, *rest)
        for i in pending:
            oc = outcomes[i]
            shipped = oc.profile[2].pop(_SHIPPED, None) if oc is not None and oc.ok else None
            if shipped:
                _ACTIVE.spans.extend(tuple(s) for s in shipped["spans"])
                for name, value in shipped["counts"].items():
                    _ACTIVE.add(name, value)

    return collect


# ------------------------------------------------------------- accounting


def _leaf_segments(spans: list[tuple]) -> list[tuple[float, float, str]]:
    """One process's timeline as ``(start, end, innermost span)`` pieces.

    Spans of one single-threaded process nest, so a stack sweep over
    them ordered by start (outer first on ties) yields the innermost
    span at every instant.
    """
    segs: list[tuple[float, float, str]] = []
    stack: list[tuple[float, str]] = []
    t = 0.0

    def emit(a: float, b: float, name: str) -> None:
        if b > a:
            segs.append((a, b, name))

    for name, _pid, start, end, *_ in sorted(spans, key=lambda s: (s[2], -s[3])):
        while stack and stack[-1][0] <= start:
            e, n = stack.pop()
            emit(t, e, n)
            t = e
        if stack:
            emit(t, start, stack[-1][1])
        t = start
        stack.append((end, name))
    while stack:
        e, n = stack.pop()
        emit(t, e, n)
        t = e
    return segs


def attribute(
    spans: list[tuple], start: float, end: float
) -> tuple[dict[str, float], dict[str, float]]:
    """Split ``[start, end]`` between span names.

    Returns ``(share, busy)``.  ``share`` sums to ``end - start``: each
    instant goes evenly to the innermost spans active in all processes
    at that instant, and to :data:`UNATTRIBUTED` when none is (a parent
    waiting on its pool is in no span).  ``busy`` is each name's self
    time in its own process, summed over processes: the base for
    per-layer rates.
    """
    by_pid: dict[int, list[tuple]] = defaultdict(list)
    for s in spans:
        by_pid[s[1]].append(s)
    timelines = {pid: _leaf_segments(group) for pid, group in by_pid.items()}
    busy: dict[str, float] = defaultdict(float)
    points = {start, end}
    for segs in timelines.values():
        for a, b, name in segs:
            busy[name] += b - a
            points.update(p for p in (a, b) if start < p < end)
    share: dict[str, float] = defaultdict(float)
    cursor = {pid: 0 for pid in timelines}
    ordered = sorted(points)
    for a, b in zip(ordered, ordered[1:]):
        active = []
        for pid, segs in timelines.items():
            i = cursor[pid]
            while i < len(segs) and segs[i][1] <= a:
                i += 1
            cursor[pid] = i
            if i < len(segs) and segs[i][0] <= a:
                active.append(segs[i][2])
        if not active:
            share[UNATTRIBUTED] += b - a
            continue
        for name in active:
            share[name] += (b - a) / len(active)
    return dict(share), dict(busy)


def layer_metrics(
    tracer: Tracer, start: float, end: float
) -> dict[str, float]:
    """Every per-layer metric of one traced pass, except ``trace.overhead_s``."""
    share, busy = attribute(tracer.spans, start, end)
    c = tracer.counts
    wall = end - start

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    out = {name: share.get(name, 0.0) for name in TIME_LAYERS}
    out[UNATTRIBUTED] = share.get(UNATTRIBUTED, 0.0)
    hits, misses = c["cache.hits"], c["cache.misses"]
    out.update({
        "workloads.count": c["workloads.count"],
        "benchmarks.executions": c["benchmarks.executions"],
        "capture.events": c["capture.events"],
        "capture.events_per_exec_s": rate(c["capture.events"], busy.get("benchmarks.execute_s", 0.0)),
        "artifacts.encoded_mb": c["artifacts.encoded_bytes"] / 1e6,
        "artifacts.raw_mb": c["artifacts.raw_bytes"] / 1e6,
        "artifacts.compress_ratio": rate(c["artifacts.raw_bytes"], c["artifacts.encoded_bytes"]),
        "artifacts.capture_hits": c["artifacts.capture_hits"],
        "artifacts.capture_misses": c["artifacts.capture_misses"],
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": rate(hits, hits + misses),
        "engine.transport_mb": c["engine.transport_bytes"] / 1e6,
        "engine.unattributed_frac": rate(out[UNATTRIBUTED], wall),
        "replay.events": c["replay.events"],
        "replay.events_per_s": rate(c["replay.events"], busy.get("replay.s", 0.0)),
        "batch.configs": c["batch.configs"],
        "batch.events_per_s": rate(c["batch.events"], busy.get("batch.s", 0.0)),
        "trace.wall_s": wall,
    })
    return out
