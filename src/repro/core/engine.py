"""Fault-tolerant, parallel, cached characterization execution engine.

:func:`repro.core.characterize.characterize_suite` is a benchmark ×
workload profiling matrix; every cell — run one benchmark on one
workload under a fixed machine config — is independent and
deterministic.  The engine exploits both properties:

* **Parallelism** — cells fan out over a ``ProcessPoolExecutor``
  (worker count configurable, default ``os.cpu_count()``).  Results
  are collected in submission order, so parallel runs feed
  ``summarize_topdown`` / ``summarize_coverage`` the exact same profile
  sequence as a serial run and the summaries are bit-identical.
* **Staged execution** — every cell is resolved through the
  ``generate → capture → replay → summarize`` pipeline.  The *capture*
  stage executes the benchmark and snapshots its telemetry
  (machine-independent; see :mod:`repro.machine.capture`); the
  *replay* stage evaluates a capture under each of the cell's machine
  configs.  The stages are separately cached in an
  :class:`~repro.core.artifacts.ArtifactStore`.
* **One pipeline** — :meth:`CharacterizationEngine.run_cells` is the
  only place a cell is looked up, captured, replayed and stored.  A
  Table II cell holds the engine's config, a sweep cell every config
  of its grid and a capture-only cell none; the characterizations and
  :meth:`~CharacterizationEngine.capture_run` only build cells and put
  the outcomes in order.  So a machine-config sweep
  (:meth:`CharacterizationEngine.characterize_sweep_run`) executes each
  benchmark once and replays its capture N times, in one batched pass.
  An executed cell replays where it ran; a stored capture is decoded
  and replayed in the parent one at a time.
* **Caching** — each cell is looked up in the profile store before
  being scheduled: one entry per capture (see
  :func:`repro.core.cache.cache_key`) holds the profile of every
  machine config that capture was replayed on, so warm re-runs of
  Table II, the figures, and the studies skip the profiling entirely
  and a sweep reads and writes each capture's entry once; a profile
  miss next consults the capture store (keyed machine-independently by
  :func:`repro.core.cache.capture_key`) to skip at least the
  benchmark execution.
* **Fault tolerance** — a cell that raises, exceeds the per-cell
  ``timeout``, or takes its worker process down with it is retried up
  to ``retries`` times with a deterministic exponential backoff; a
  broken or timed-out pool is torn down and the surviving cells are
  resubmitted to a fresh one (bounded by ``max_pool_restarts``).
  Under ``strict=True`` (default) an exhausted cell raises
  :class:`~repro.core.errors.CellFailure`; under ``strict=False`` the
  run completes and failed cells are reported in the result instead.
* **Tracing** — every completed cell emits a
  :class:`~repro.core.trace.CellSpan` through the engine's
  :class:`~repro.core.trace.TraceWriter` (benchmark, workload, cache
  hit/miss, attempts, duration, outcome), tallied into the run
  summary and optionally journaled as JSONL (see ``repro suite
  --trace`` / ``repro trace``); counts and timings go to the metrics
  registry (:mod:`repro.core.metrics`).

Keys are code-derived and name an Alberta workload by its recipe (see
:mod:`repro.core.cache`), so a cell needs no payload until it executes.
With a store attached, a benchmark's Alberta set is read by name from
the set store (:class:`~repro.core.artifacts.SetStore`) and its cells
carry :class:`~repro.core.workload.AlbertaRef` recipes; the set is
generated only when one of its cells has to execute, or when the set
store misses, which writes the entry.  So a pass whose cells all hit
generates nothing.  An executing cell carries its
:class:`~repro.core.workload.Workload`: inline cells run on that object
and pool workers receive it pickled (a whole Table II matrix of
workloads pickles to 1.6 MB).  A cell bound for a store encodes its
capture where it ran and ships home only its profiles and the
:func:`~repro.core.artifacts.encode_capture` bytes, which the parent
writes as they are — the parent neither regenerates workloads nor
encodes captures.  Profiles returned from workers and from the cache
carry ``output=None`` — the summaries never read the benchmark output.

Fault injection (for tests and chaos drills): set
``REPRO_FAULT_INJECT`` to ``;``-separated entries of the form
``mode[(arg)]:benchmark_glob:workload_glob[:max_attempt]`` with modes
``raise`` (worker raises), ``exit`` (worker process dies via
``os._exit(arg or 13)``, breaking the pool), and ``hang`` (worker
sleeps ``arg or 60`` seconds, tripping the timeout).  ``max_attempt``
limits the injection to the first N attempts, so retry-recovery paths
are testable deterministically.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError  # distinct type pre-3.11
from contextlib import contextmanager
from dataclasses import dataclass, replace
from fnmatch import fnmatch
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from ..machine.batch import replay_capture, replay_capture_batched
from ..machine.capture import TelemetryCapture, capture_execution
from ..machine.cost import MachineConfig
from ..machine.profiler import ExecutionProfile
from . import artifacts, metrics
from .artifacts import ArtifactStore
from .cache import ProfileEntry, ResultCache, cache_key, capture_key, set_key
from .errors import CellFailure, WorkloadError
from .registry import (
    CAP_CAPTURE_ONLY,
    CAP_SWEEPABLE,
    REGISTRY,
    alberta_workloads,
    benchmark_ids,
    get_benchmark,
)
from .resources import StageResourceTracker, merge_stacks, sampler_from_env
from .sweep import ENGINE_MACHINE, ReplayRequest
from .trace import CellSpan, StageSpan, TraceWriter
from .workload import AlbertaRef, Workload, WorkloadSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .characterize import BenchmarkCharacterization

__all__ = [
    "CharacterizationEngine",
    "CellOutcome",
    "default_workers",
    "FAULT_INJECT_ENV",
]

#: Environment variable holding the fault-injection spec.
FAULT_INJECT_ENV = "REPRO_FAULT_INJECT"


def default_workers() -> int:
    """The engine's default worker count: every available CPU."""
    return os.cpu_count() or 1


def _require_capability(benchmark_id: str, capability: str, *, stage: str) -> None:
    """Reject a registered benchmark whose descriptor forbids ``stage``.

    Unregistered benchmarks (ad-hoc substrates built in tests) pass
    through untouched — capability flags only constrain descriptors
    that actually declared them.
    """
    d = REGISTRY.find("benchmark", benchmark_id)
    if d is None:
        return
    if CAP_CAPTURE_ONLY in d.capabilities:
        raise WorkloadError(
            f"{stage}: benchmark {benchmark_id!r} is registered "
            f"{CAP_CAPTURE_ONLY!r} and cannot be replayed or swept"
        )
    if capability not in d.capabilities:
        raise WorkloadError(
            f"{stage}: benchmark {benchmark_id!r} lacks the "
            f"{capability!r} capability"
        )


@dataclass(frozen=True)
class _Cell:
    """One (benchmark, workload) unit of the profiling matrix.

    ``machines`` are the configs its capture is replayed on: a Table II
    cell holds the engine's config, a sweep cell the grid's configs
    (:meth:`CharacterizationEngine.run_cells` narrows them to those the
    capture's profile entry lacks), and a capture-only cell none.

    ``workload`` is the parent's own workload object: inline execution
    runs on it and a pool worker receives it pickled.  Until the cell
    has to execute it may be the workload's :class:`AlbertaRef`
    instead, which keys it just the same.  Only
    :meth:`CharacterizationEngine.replay_run` builds a cell without
    either, because a replay never executes the benchmark.
    """

    benchmark_id: str
    workload_name: str
    machines: "tuple[MachineConfig | None, ...]"
    workload: Workload | AlbertaRef | None


@dataclass(frozen=True)
class CellOutcome:
    """The terminal record of one cell's execution (or cache hit).

    One outcome per (cell, machine config).  ``capture``/``replay``
    record the stage-level story: which stage actually ran (``"run"``),
    was served from a store (``"hit"``), or never happened (``"-"``).
    ``profile`` holds the finished :class:`ExecutionProfile` — except
    for capture-only cells, whose one outcome holds the
    :class:`~repro.machine.capture.TelemetryCapture` instead.
    """

    cell: _Cell
    profile: Any  # ExecutionProfile | TelemetryCapture | None
    cache: str  # "hit" | "miss" | "off" | "-"
    attempts: int
    duration_s: float
    outcome: str  # "ok" | "failed" | "timeout" | "crashed"
    error: str | None = None
    capture: str = "-"  # "hit" | "run" | "-"
    replay: str = "-"  # "hit" | "run" | "-"
    build: str | None = None
    #: Run-timeline start (seconds since the trace writer started); -1
    #: means "unknown" and is backfilled at span-emission time.
    start_s: float = -1.0
    #: ``(stage_name, start offset within the cell, duration)`` triples,
    #: optionally extended with a fourth resource-attribution dict (see
    #: :mod:`repro.core.resources`).
    stages: tuple = ()
    #: ``replay="run"`` was served by a one-pass multi-config kernel.
    batched: bool = False

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"

    def span(
        self, *, span_id: str = "", parent_id: str = "", start_s: float = 0.0
    ) -> CellSpan:
        return CellSpan(
            benchmark=self.cell.benchmark_id,
            workload=self.cell.workload_name,
            cache=self.cache,
            attempts=self.attempts,
            duration_s=self.duration_s,
            outcome=self.outcome,
            error=self.error,
            capture=self.capture,
            replay=self.replay,
            build=self.build,
            span_id=span_id,
            parent_id=parent_id,
            start_s=start_s,
            batched=self.batched,
        )

    def failure(self) -> CellFailure:
        """The unraised :class:`CellFailure` describing this outcome."""
        return CellFailure(
            self.cell.benchmark_id,
            self.cell.workload_name,
            attempts=self.attempts,
            outcome=self.outcome,
            error=self.error or "",
        )


# ----------------------------------------------------------- worker side

_WORKER_BENCHMARKS: dict[str, Any] = {}


def _worker_benchmark(benchmark_id: str) -> Any:
    bench = _WORKER_BENCHMARKS.get(benchmark_id)
    if bench is None:
        bench = _WORKER_BENCHMARKS[benchmark_id] = get_benchmark(benchmark_id)
    return bench


class _InjectedFault(RuntimeError):
    """Raised by ``REPRO_FAULT_INJECT`` ``raise`` entries."""


def _parse_fault_spec(spec: str) -> list[tuple[str, float | None, str, str, int]]:
    """``mode[(arg)]:bench_glob:wl_glob[:max_attempt]`` entries."""
    entries = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) < 3:
            continue
        mode, arg = parts[0], None
        if "(" in mode and mode.endswith(")"):
            mode, raw = mode[:-1].split("(", 1)
            arg = float(raw)
        max_attempt = int(parts[3]) if len(parts) > 3 else 1 << 30
        entries.append((mode, arg, parts[1], parts[2], max_attempt))
    return entries


def _maybe_inject_fault(cell: _Cell, attempt: int) -> None:
    spec = os.environ.get(FAULT_INJECT_ENV)
    if not spec:
        return
    for mode, arg, bench_glob, wl_glob, max_attempt in _parse_fault_spec(spec):
        if attempt > max_attempt:
            continue
        if not fnmatch(cell.benchmark_id, bench_glob):
            continue
        if not fnmatch(cell.workload_name, wl_glob):
            continue
        if mode == "raise":
            raise _InjectedFault(
                f"injected fault: {cell.benchmark_id}/{cell.workload_name} "
                f"attempt {attempt}"
            )
        if mode == "exit":
            os._exit(int(arg) if arg is not None else 13)
        if mode == "hang":
            time.sleep(arg if arg is not None else 60.0)


def _replay_resources(
    tracker: StageResourceTracker, reg: metrics.MetricsRegistry, benchmark: str
) -> dict[str, Any]:
    """A replay stage's resource lap plus its event and kernel-time totals."""
    res = tracker.lap()
    for key, family in (
        ("replay_events", metrics.REPLAY_EVENTS_TOTAL),
        ("replay_ns", metrics.REPLAY_NS_TOTAL),
    ):
        res[key] = int(reg.value(family, benchmark=benchmark) or 0)
    return res


def _replay(
    capture: TelemetryCapture, machines: "tuple[MachineConfig | None, ...]", build: Any = None
) -> list[ExecutionProfile]:
    """Replay ``capture`` on every config of ``machines``, in order.

    One config goes through :func:`replay_capture` (under ``build``'s
    cost model when one is given), two or more through one
    :func:`replay_capture_batched` pass; both are looked up at call
    time, so perfbench/layers.py can time them by wrapping this
    module's attributes.
    """
    if len(machines) > 1:
        return replay_capture_batched(capture, list(machines))
    (machine,) = machines
    cost_model = build.cost_model(machine) if build is not None else None
    return [replay_capture(capture, machine=machine, cost_model=cost_model)]


def _run_cell(
    cell: _Cell, attempt: int = 1, encode: bool = False
) -> tuple[list[ExecutionProfile] | TelemetryCapture, bytes | None, dict[str, Any]]:
    """Execute one matrix cell on ``cell.workload`` (in a worker or inline).

    Captures, then replays the capture on every config of
    ``cell.machines`` (:func:`_replay`): the first element of the
    result is their profiles, in order, so the capture's columns never
    cross the process boundary.  A capture-only cell (no machines)
    returns the capture itself instead.  A replay that raises fails
    the whole cell, like a capture that does.

    The second element is ``encode_capture(capture)`` when ``encode``
    is set (the engine has a store to write it to), else ``None``.
    Encoding here runs in parallel across pool workers; the parent
    writes the bytes as they are and never holds the columns of a
    capture it replayed here.

    The third element is the cell's observability meta: ``"stages"`` is
    ``(name, start offset, duration, resources)`` entries for the
    generate/capture/replay stages — ``resources`` carries the stage's
    ``getrusage`` deltas (and sample counts / replay event totals where
    they apply, see :mod:`repro.core.resources`) — and ``"metrics"`` is
    the worker's
    :class:`~repro.core.metrics.MetricsRegistry` snapshot — the events
    emitted, replay throughput, and per-worker tallies recorded while
    the cell ran, serialized JSON-safe so they survive the pool
    boundary and merge exactly into the parent's registries.

    The benchmark output never crosses the boundary: captures and
    replayed profiles carry ``output=None`` by construction, keeping
    worker results byte-compatible with cache hits.
    """
    _maybe_inject_fault(cell, attempt)
    reg = metrics.MetricsRegistry()
    stages: list[list[Any]] = []
    tracker = StageResourceTracker()
    sampler = sampler_from_env()
    if sampler is not None:
        sampler.start()
    t0 = time.perf_counter()
    try:
        with metrics.collector(reg):
            metrics.inc(metrics.WORKER_CELLS_TOTAL, worker=str(os.getpid()))
            t1 = time.perf_counter()  # the parent generated the workload
            stages.append(["generate", 0.0, t1 - t0, tracker.lap()])
            capture = capture_execution(_worker_benchmark(cell.benchmark_id), cell.workload)
            t2 = time.perf_counter()
            stages.append(["capture", t1 - t0, t2 - t1, tracker.lap()])
            if cell.machines:
                product = _replay(capture, cell.machines)
                t3 = time.perf_counter()
                res = _replay_resources(tracker, reg, cell.benchmark_id)
                stages.append(["replay", t2 - t0, t3 - t2, res])
            else:
                product = capture
        # Looked up through the module at call time: perfbench/layers.py
        # times encoding by wrapping this module attribute.
        blob = artifacts.encode_capture(capture) if encode else None
    finally:
        if sampler is not None:
            sampler.stop()
    meta = {"stages": stages, "metrics": reg.to_dict()}
    if sampler is not None:
        for st in stages:
            n = sampler.samples_between(t0 + st[1], t0 + st[1] + st[2])
            if n:
                st[3]["samples"] = n
        meta["stacks"] = sampler.stacks
    return product, blob, meta


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Shut a pool down without waiting, cancel its queued cells and
    terminate its workers (hung, broken, or interrupted)."""
    pool.shutdown(wait=False, cancel_futures=True)
    procs = getattr(pool, "_processes", None) or {}
    for proc in list(procs.values()):
        try:
            proc.terminate()
        except Exception:  # pragma: no cover - process already gone
            pass


# ----------------------------------------------------------- parent side


def _fan_out(oc: CellOutcome, capture: str) -> list[CellOutcome]:
    """One resolution of ``oc.cell`` as one outcome per config it replayed.

    ``oc`` is what :meth:`CharacterizationEngine._execute` or
    :meth:`~CharacterizationEngine._replay_here` settled, its profile
    slot holding one profile per config (or a capture-only cell's
    capture), and ``capture`` is how its capture was served (``"run"``
    or ``"hit"``).  The capture's cost and the replay's resources are
    charged to the first config, and each config gets an even share of
    the replay's time; later configs read ``capture="hit"``.  A failed
    execution fails every config, and later ones read ``capture="-"``;
    a failed replay here fails every config, each after one attempt.
    """
    n = len(oc.cell.machines)
    oc = replace(oc, capture=capture)
    if not oc.ok:
        if capture == "hit":
            return [replace(oc, replay="run", batched=n > 1)] * n
        return [oc] + [replace(oc, attempts=1, duration_s=0.0, capture="-")] * (n - 1)
    if not n:
        return [oc]
    *before, (_, offset, duration, res) = oc.stages
    share = duration / n
    first = replace(
        oc, profile=oc.profile[0], replay="run", batched=n > 1,
        duration_s=oc.duration_s - (duration - share),
        stages=(*before, ("replay", offset, share, res)),
    )
    return [first] + [
        replace(
            first, profile=profile, attempts=0, duration_s=share, capture="hit",
            start_s=oc.start_s + offset, stages=(("replay", 0.0, share),),
        )
        for profile in oc.profile[1:]
    ]


class CharacterizationEngine:
    """Runs profiling matrices in parallel with cache, retries, tracing.

    Args:
        workers: process count; ``None`` means ``os.cpu_count()``.
            ``workers=1`` executes inline (no pool, no pickling) unless
            a ``timeout`` is set, which requires a pool to enforce.
        cache: an :class:`~repro.core.artifacts.ArtifactStore`, a
            :class:`ResultCache`, a directory path to open one at, or
            ``None`` to disable caching.  A bare ``ResultCache`` (or
            path) is wrapped in an ``ArtifactStore`` so the capture
            stage is cached too; the wrapped cache object is exposed
            unchanged as :attr:`cache`.
        machine: machine configuration shared by every cell.
        timeout: per-cell wall-clock budget in seconds (pool mode
            only); a cell that exceeds it is retried on a fresh pool.
        retries: extra attempts per failed cell (total = 1 + retries).
        backoff: base of the deterministic exponential backoff; the
            sleep before retry *k* is ``backoff * 2**(k-1)`` seconds.
        strict: when True, an exhausted cell raises
            :class:`CellFailure`; when False, runs complete and report
            failed cells in their results.
        trace: a :class:`TraceWriter`, a journal path, or ``None`` for
            a tally-only writer (the run summary is kept either way).
        max_pool_restarts: how many broken/timed-out pools to replace
            before declaring every still-pending cell crashed.
    """

    def __init__(
        self,
        *,
        workers: int | None = None,
        cache: ArtifactStore | ResultCache | str | Path | None = None,
        machine: MachineConfig | None = None,
        timeout: float | None = None,
        retries: int = 1,
        backoff: float = 0.05,
        strict: bool = True,
        trace: TraceWriter | str | Path | None = None,
        max_pool_restarts: int = 3,
    ):
        self.workers = default_workers() if workers is None else int(workers)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        if cache is None:
            self.store: ArtifactStore | None = None
        elif isinstance(cache, ArtifactStore):
            self.store = cache
        else:
            if not isinstance(cache, ResultCache):
                cache = ResultCache(cache)
            self.store = ArtifactStore(profiles=cache)
        # Back-compat: the profile store under its historical name, the
        # exact object the caller handed in.
        self.cache = self.store.profiles if self.store is not None else None
        #: Captures a store-less engine executed for capture-only cells
        #: (capture_run), so a repeat never re-executes a benchmark; every
        #: cell reads it.  With a store attached the store is the memo and
        #: this stays empty: a repeat costs one decode, and no decoded
        #: capture outlives its cell.  A cell that replays where it runs
        #: brings home no capture to memoize.
        self._capture_memo: dict[str, TelemetryCapture] = {}
        #: FDO build digests replayed through this engine (name → digest);
        #: the run ledger records them so a build sweep is diffable.
        self.builds_used: dict[str, str] = {}
        #: Collapsed-stack sample counts folded across every sampled cell
        #: (opt-in via ``REPRO_STACK_SAMPLE``), feeding ``repro flame``.
        self.stack_counts: dict[str, int] = {}
        self.machine = machine
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout!r}")
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = max(0.0, float(backoff))
        self.strict = strict
        if not isinstance(trace, TraceWriter):
            trace = TraceWriter(trace)
        self.trace = trace
        self.max_pool_restarts = max(0, int(max_pool_restarts))

    # ------------------------------------------------------------ matrix

    def run_cells(self, cells: list[_Cell]) -> list[list[CellOutcome]]:
        """Resolve every cell, in ``cells`` order: the one pipeline.

        Returns one outcome per config of each cell, in its
        ``machines`` order, or a capture-only cell's one outcome.  For
        each cell:

        1. Its capture's profile entry is read once, for all of its
           configs; the cell keeps the configs the entry lacks.
        2. If configs are still missing, or the cell is capture-only,
           its capture is resolved.  A stored capture (without a
           store, a memoized one) is decoded just before it is
           replayed here (:meth:`_replay_here`) and then dropped.  The
           cells whose capture misses execute as one batch
           (:meth:`_execute`): each captures, replays every missing
           config and encodes where it runs, so only profiles and
           bytes come home.
        3. What comes home is written to the store as each executed
           cell settles, so an interrupted pass keeps every cell that
           settled before it; without a store, a capture-only cell's
           capture is memoized.  Profiles never enter the memo.
        4. Each profile entry is written once, holding the members it
           was read with and the new ones.  Cells that share an entry
           share one :class:`ProfileEntry`, so a later write keeps an
           earlier one's member.

        Never raises for per-cell failures — inspect ``outcome.ok``.
        Cache lookups and stores happen in the parent process only;
        workers never touch the cache directory.  Spans are emitted
        once all cells settle, config-major: the first config of every
        cell in ``cells`` order, then the second, so a sweep journals
        in the order its result is laid out.
        """
        cells = list(cells)
        served: list[list[CellOutcome | None]] = []
        keys: list[str | None] = [None] * len(cells)
        entries: dict[str, ProfileEntry] = {}
        with self._counting_quarantines():
            for i, cell in enumerate(cells):
                row: list[CellOutcome | None] = [None] * max(1, len(cell.machines))
                served.append(row)
                if self.store is None or not cell.machines:
                    continue
                looked_up = self.trace.now()
                keys[i] = key = cache_key(cell.benchmark_id, cell.workload)
                found = self.cache.get(key, cell.machines)
                entry = entries.setdefault(key, found or ProfileEntry())
                for k, machine in enumerate(cell.machines):
                    cached = entry.profile(machine)
                    if cached is not None:
                        row[k] = CellOutcome(
                            cell, cached, "hit", 0, 0.0, "ok", replay="hit", start_s=looked_up
                        )
                missing = tuple(m for m, oc in zip(cell.machines, row) if oc is None)
                if missing:
                    cells[i] = replace(cell, machines=missing)

        def settle(i: int, oc: CellOutcome, capture: str) -> None:
            cell = cells[i]
            state = "-" if not cell.machines else "off" if self.store is None else "miss"
            outcomes = iter(_fan_out(replace(oc, cache=state), capture))
            served[i] = [slot or next(outcomes) for slot in served[i]]

        def put_profiles(i: int, profiles: "list[ExecutionProfile]") -> None:
            if keys[i] is not None:
                self._put_profiles(keys[i], entries[keys[i]], zip(cells[i].machines, profiles))

        def store_executed(i: int, oc: CellOutcome) -> None:
            if not oc.ok:
                return
            product, blob, _meta = oc.profile
            if self.store is not None:
                self.store.captures.put(cap_keys[i], blob)
            elif not cells[i].machines:
                self._capture_memo[cap_keys[i]] = product
            put_profiles(i, product)

        cap_keys: dict[int, str] = {}
        to_run: list[int] = []
        for i in [i for i, row in enumerate(served) if None in row]:
            cell = cells[i]
            cap_keys[i] = capture_key(cell.benchmark_id, cell.workload)
            if self.store is None:
                capture = self._capture_memo.get(cap_keys[i])
            else:
                with self._counting_quarantines():
                    capture = self.store.captures.get(cap_keys[i])
            if capture is None:
                to_run.append(i)
            elif cell.machines:
                oc = self._replay_here(cell, capture)
                if oc.ok:
                    put_profiles(i, oc.profile)
                settle(i, oc, "hit")
            else:
                settle(i, CellOutcome(cell, capture, "-", 0, 0.0, "ok"), "hit")
            del capture

        if to_run:
            self._materialize(cells, to_run)
            ran: list[CellOutcome | None] = [None] * len(cells)
            self._execute(cells, to_run, ran, store_executed)
            for i in to_run:
                oc, ran[i] = ran[i], None
                if oc.ok:
                    product, _blob, meta = oc.profile
                    if meta.get("stacks"):
                        merge_stacks(self.stack_counts, meta["stacks"])
                    oc = replace(oc, profile=product, stages=tuple(map(tuple, meta["stages"])))
                settle(i, oc, "run")

        width = max(map(len, served), default=0)
        self._emit_spans([row[k] for k in range(width) for row in served if k < len(row)])
        return served

    def _replay_here(self, cell: _Cell, capture: TelemetryCapture, build: Any = None) -> CellOutcome:
        """Replay ``capture`` on every config of ``cell.machines`` in this process.

        The one parent-side replay (:func:`_replay`), for stored
        captures and for :meth:`replay_run`.  A success holds one
        profile per config and one ``replay`` stage with the replay's
        resources; a failure holds the error, after one attempt.  The
        cache state is left for the caller to set.
        """
        tracker = StageResourceTracker()
        reg = metrics.MetricsRegistry()
        started = time.perf_counter()
        try:
            with metrics.collector(reg):
                profiles = _replay(capture, cell.machines, build)
        except Exception as exc:
            return CellOutcome(
                cell, None, "-", 1, time.perf_counter() - started, "failed",
                f"{type(exc).__name__}: {exc}", start_s=self.trace.rel(started),
            )
        duration = time.perf_counter() - started
        res = _replay_resources(tracker, reg, cell.benchmark_id)
        return CellOutcome(
            cell, profiles, "-", 0, duration, "ok", start_s=self.trace.rel(started),
            stages=(("replay", 0.0, duration, res),),
        )

    def _put_profiles(
        self,
        key: str,
        entry: ProfileEntry,
        profiles: "Iterable[tuple[MachineConfig | None, ExecutionProfile]]",
    ) -> None:
        """Add ``profiles`` to one capture's entry and write it once."""
        for machine, profile in profiles:
            entry.add(machine, profile)
        self.cache.put(key, entry)

    def alberta_members(self, benchmark_id: str, base_seed: int) -> "list[Workload | AlbertaRef]":
        """The members of a benchmark's Alberta set, in set order.

        With a store attached, a set-store hit gives their recipes and
        generates nothing; a miss generates the set and writes its entry.
        Without a store the set is generated.
        """
        if self.store is None:
            return list(alberta_workloads(benchmark_id, base_seed))
        key = set_key(benchmark_id, base_seed)
        with self._counting_quarantines():
            names = self.store.sets.get(key, benchmark_id, base_seed)
        if names is not None:
            return [AlbertaRef(benchmark_id, base_seed, name) for name in names]
        workloads = list(alberta_workloads(benchmark_id, base_seed))
        self.store.sets.put(key, benchmark_id, base_seed, [w.name for w in workloads])
        return workloads

    @staticmethod
    def _materialize(cells: list[_Cell], indices: list[int]) -> None:
        """Give each of ``cells[indices]`` that holds a recipe its workload.

        Generates each Alberta set involved once.  A recipe its set does
        not contain raises :class:`~repro.core.errors.UnknownScenarioError`.
        """
        sets: dict[tuple[str, int], WorkloadSet] = {}
        for i in indices:
            ref = cells[i].workload
            if isinstance(ref, AlbertaRef):
                at = (ref.benchmark, ref.base_seed)
                if at not in sets:
                    sets[at] = alberta_workloads(*at)
                cells[i] = replace(cells[i], workload=sets[at][ref.name])

    @contextmanager
    def _counting_quarantines(self) -> Iterator[None]:
        """Tally into the run summary every store entry quarantined here.

        Read from the store events a block-local collector records, not
        from process-wide totals, so two runs in one process never see
        each other's quarantines.
        """
        lookups = metrics.MetricsRegistry()
        with metrics.collector(lookups):
            yield
        events = lookups.series(metrics.CACHE_EVENTS_TOTAL, event="quarantined")
        self.trace.quarantine(sum(inst.value for inst in events))

    # ----------------------------------------------------- span emission

    def _emit_spans(self, outcomes: "list[CellOutcome]") -> None:
        """Journal cell spans + their stage children; record cell metrics.

        Each cell gets a fresh span id parented to the run root, and
        its worker-observed stage triples become child ``stage``
        records placed on the run timeline (cell start + in-cell
        offset).  Stage latency histograms are observed here — the one
        place both pooled and inline results funnel through — so stage
        timings are counted exactly once per cell.
        """
        for oc in outcomes:
            start = oc.start_s
            if start < 0:
                start = max(0.0, self.trace.now() - oc.duration_s)
            span_id = self.trace.next_span_id()
            self.trace.span(
                oc.span(
                    span_id=span_id,
                    parent_id=self.trace.run_span_id,
                    start_s=start,
                )
            )
            bench = oc.cell.benchmark_id
            for st in oc.stages:
                name, offset, duration = st[0], st[1], st[2]
                self._emit_stage(
                    name, bench, oc.cell.workload_name,
                    start + offset, duration, parent_id=span_id,
                    resources=st[3] if len(st) > 3 else None,
                )
            metrics.inc(
                metrics.CELLS_TOTAL, benchmark=bench,
                outcome=oc.outcome, cache=oc.cache,
            )
            metrics.observe(
                metrics.CELL_SECONDS, oc.duration_s,
                benchmark=bench, outcome=oc.outcome,
            )
            retries = max(0, oc.attempts - 1)
            if retries:
                metrics.inc(metrics.RETRIES_TOTAL, retries, benchmark=bench)

    def _emit_stage(
        self,
        name: str,
        benchmark: str,
        workload: str,
        start_s: float,
        duration_s: float,
        *,
        parent_id: str | None = None,
        resources: "dict[str, Any] | None" = None,
    ) -> None:
        """Journal one stage span; observe latency + resource metrics."""
        self.trace.stage(
            StageSpan(
                name=name,
                benchmark=benchmark,
                workload=workload,
                start_s=max(0.0, start_s),
                duration_s=duration_s,
                span_id=self.trace.next_span_id(),
                parent_id=self.trace.run_span_id if parent_id is None else parent_id,
                resources=resources,
            )
        )
        metrics.observe(
            metrics.STAGE_SECONDS, duration_s, benchmark=benchmark, stage=name
        )
        if resources:
            metrics.observe(
                metrics.STAGE_CPU_SECONDS, resources.get("cpu_user_s", 0.0),
                benchmark=benchmark, stage=name, cpu="user",
            )
            metrics.observe(
                metrics.STAGE_CPU_SECONDS, resources.get("cpu_sys_s", 0.0),
                benchmark=benchmark, stage=name, cpu="sys",
            )
            rss = resources.get("max_rss_kb")
            if rss:
                metrics.gauge_set(metrics.PEAK_RSS_KB, rss, benchmark=benchmark)
            samples = resources.get("samples")
            if samples:
                metrics.inc(
                    metrics.STACK_SAMPLES_TOTAL, samples,
                    benchmark=benchmark, stage=name,
                )

    def _execute(
        self,
        cells: list[_Cell],
        pending: list[int],
        outcomes: list[CellOutcome | None],
        settled: "Callable[[int, CellOutcome], None]",
    ) -> None:
        """Run the cache-missed cells, inline or pooled.

        Each runs :func:`_run_cell`, which also encodes its capture
        whenever this engine has a store to write it to; successful
        outcomes carry its raw result triple in their ``profile`` slot
        — callers unpack and re-tag with the cache and stage states
        they observed.  ``settled(i, outcome)`` is called as soon as
        cell ``i``'s outcome is final (after each inline cell, and at
        harvest in the pool and in isolation), so the caller can store
        it before the next cell settles; ``outcomes`` keeps it as is.
        Every cell runs on its own workload object, inline or pickled
        to a worker.  Benchmarks never mutate their payload, so the
        keys the caller computed from those objects before the run
        still match.
        """
        inline = self.timeout is None and (self.workers == 1 or len(pending) == 1)
        if inline:
            self._execute_inline(cells, pending, outcomes, settled)
        else:
            self._execute_pool(cells, pending, outcomes, settled)

    def _execute_inline(
        self,
        cells: list[_Cell],
        pending: list[int],
        outcomes: list[CellOutcome | None],
        settled: "Callable[[int, CellOutcome], None]",
    ) -> None:
        encode = self.store is not None
        for i in pending:
            cell = cells[i]
            attempts = 0
            started = time.perf_counter()
            while True:
                attempts += 1
                try:
                    result = _run_cell(cell, attempts, encode)
                except Exception as exc:
                    if attempts <= self.retries:
                        self._backoff_sleep(attempts)
                        continue
                    outcomes[i] = CellOutcome(
                        cell, None, "-", attempts,
                        time.perf_counter() - started, "failed",
                        f"{type(exc).__name__}: {exc}",
                        start_s=self.trace.rel(started),
                    )
                else:
                    # Inline cells recorded through this process's own
                    # collector stack already; no snapshot merge needed.
                    outcomes[i] = CellOutcome(
                        cell, result, "-", attempts,
                        time.perf_counter() - started, "ok",
                        start_s=self.trace.rel(started),
                    )
                settled(i, outcomes[i])
                break

    def _execute_pool(
        self,
        cells: list[_Cell],
        pending: list[int],
        outcomes: list[CellOutcome | None],
        settled: "Callable[[int, CellOutcome], None]",
    ) -> None:
        """Pool execution with per-cell timeout, retry, and pool recovery.

        Two phases.  **Batch rounds**: every unresolved cell is
        submitted to a (fresh) shared pool and harvested in matrix
        order.  A per-cell failure (worker raised) is charged to that
        cell and retried.  A timeout charges the cell that tripped it
        and *abandons* the round; a broken pool charges nobody —
        when a worker dies every pending future raises
        ``BrokenProcessPool``, so the culprit is not attributable —
        and also abandons.  On abandon, finished futures are still
        harvested, unfinished cells get their attempt refunded, the
        pool's processes are terminated, and a fresh round begins.
        After ``max_pool_restarts`` abandoned rounds, **isolation**:
        each surviving cell runs alone in a single-worker pool, where a
        crash implicates exactly that cell, so innocents always
        complete and only genuinely crashing cells fail.
        """
        encode = self.store is not None
        remaining: dict[int, int] = {i: 0 for i in pending}  # index -> attempts
        first_seen: dict[int, float] = {}
        restarts = 0
        round_no = 0

        def finalize(i: int, result: Any, outcome: str, error: str | None) -> None:
            if result is not None:
                # Pooled cell: its observations lived in the worker
                # process — merge the shipped snapshot here.
                metrics.merge_snapshot(result[2]["metrics"])
            outcomes[i] = CellOutcome(
                cells[i], result, "-", max(remaining[i], 1),
                time.perf_counter() - first_seen[i], outcome, error,
                start_s=self.trace.rel(first_seen[i]),
            )
            del remaining[i]
            settled(i, outcomes[i])

        def fail_or_requeue(i: int, outcome: str, error: str) -> None:
            if remaining[i] > self.retries:
                finalize(i, None, outcome, error)

        while remaining and restarts <= self.max_pool_restarts:
            round_no += 1
            order = sorted(remaining)
            now = time.perf_counter()
            for i in order:
                first_seen.setdefault(i, now)
            pool = ProcessPoolExecutor(max_workers=min(self.workers, len(order)))
            try:
                futures: dict[int, Future] = {}
                abandon = False
                try:
                    for i in order:
                        remaining[i] += 1
                        futures[i] = pool.submit(_run_cell, cells[i], remaining[i], encode)
                except BrokenExecutor:  # pragma: no cover - instant bootstrap death
                    for i in order:
                        if i in remaining and i not in futures:
                            remaining[i] -= 1
                    abandon = True

                for i in order:
                    if i not in remaining or i not in futures:
                        continue
                    fut = futures[i]
                    if abandon and not fut.done():
                        remaining[i] -= 1  # refund: goes back on the queue
                        continue
                    try:
                        result = fut.result(timeout=None if abandon else self.timeout)
                    except (FuturesTimeoutError, TimeoutError) as exc:
                        if fut.done():  # the *worker* raised TimeoutError
                            fail_or_requeue(i, "failed", f"TimeoutError: {exc}")
                            continue
                        abandon = True
                        fail_or_requeue(
                            i, "timeout",
                            f"cell exceeded per-cell timeout of {self.timeout}s",
                        )
                    except BrokenExecutor:
                        # Unattributable: the dead worker poisons every
                        # pending future.  Refund and let the next round —
                        # or isolation, once the restart budget runs out —
                        # sort the culprit from the innocents.
                        abandon = True
                        remaining[i] -= 1
                    except Exception as exc:
                        fail_or_requeue(i, "failed", f"{type(exc).__name__}: {exc}")
                    else:
                        finalize(i, result, "ok", None)
            except BaseException:
                # An interrupt (or any error) escaping the harvest must
                # not leave this round's workers running.
                _kill_pool(pool)
                raise

            if abandon:
                _kill_pool(pool)
                restarts += 1
            else:
                pool.shutdown(wait=True)

            if remaining:
                # Deterministic exponential backoff between retry rounds.
                self._backoff_sleep(round_no)

        if remaining:
            self._execute_isolated(cells, remaining, outcomes, first_seen, settled)

    def _execute_isolated(
        self,
        cells: list[_Cell],
        remaining: dict[int, int],
        outcomes: list[CellOutcome | None],
        first_seen: dict[int, float],
        settled: "Callable[[int, CellOutcome], None]",
    ) -> None:
        """Run each surviving cell alone in a one-worker pool.

        The fallback when shared pools keep breaking: a single-cell
        pool makes crashes exactly attributable, so each cell gets its
        honest retry budget and only genuinely failing cells fail.
        """
        encode = self.store is not None
        for i in sorted(remaining):
            cell = cells[i]
            first_seen.setdefault(i, time.perf_counter())
            while i in remaining:
                remaining[i] += 1
                attempt = remaining[i]
                pool = ProcessPoolExecutor(max_workers=1)
                abandon = False
                outcome, error = "", ""
                result: Any = None
                try:
                    fut = pool.submit(_run_cell, cell, attempt, encode)
                    result = fut.result(timeout=self.timeout)
                except (FuturesTimeoutError, TimeoutError) as exc:
                    abandon = True
                    if fut.done():
                        outcome, error = "failed", f"TimeoutError: {exc}"
                    else:
                        outcome, error = (
                            "timeout",
                            f"cell exceeded per-cell timeout of {self.timeout}s",
                        )
                except BrokenExecutor as exc:
                    abandon = True
                    outcome = "crashed"
                    error = f"worker process died: {exc}" if str(exc) else "worker process died"
                except Exception as exc:
                    outcome, error = "failed", f"{type(exc).__name__}: {exc}"
                except BaseException:
                    _kill_pool(pool)
                    raise
                if abandon:
                    _kill_pool(pool)
                else:
                    pool.shutdown(wait=True)
                if result is not None:
                    metrics.merge_snapshot(result[2]["metrics"])
                    outcomes[i] = CellOutcome(
                        cell, result, "-", attempt,
                        time.perf_counter() - first_seen[i], "ok",
                        start_s=self.trace.rel(first_seen[i]),
                    )
                    del remaining[i]
                    settled(i, outcomes[i])
                elif attempt > self.retries:
                    outcomes[i] = CellOutcome(
                        cell, None, "-", attempt,
                        time.perf_counter() - first_seen[i], outcome, error,
                        start_s=self.trace.rel(first_seen[i]),
                    )
                    del remaining[i]
                    settled(i, outcomes[i])
                else:
                    self._backoff_sleep(attempt)

    def _backoff_sleep(self, attempt: int) -> None:
        if self.backoff > 0.0:
            time.sleep(self.backoff * (2 ** (attempt - 1)))

    # ------------------------------------------------- strict / degraded

    def _raise_first_failure(self, outcomes: "Iterable[CellOutcome]") -> None:
        """Under ``strict``, raise the first failed cell's :class:`CellFailure`.

        Callers journal every span first, so a strict abort still
        leaves the whole run on record.
        """
        if self.strict:
            for oc in outcomes:
                if not oc.ok:
                    raise oc.failure()

    def _assemble(
        self,
        benchmarks: "list[tuple[str, list[Workload | AlbertaRef], list[list[CellOutcome]]]]",
        *,
        keep_profiles: bool = False,
    ) -> "list[list[BenchmarkCharacterization | None]]":
        """The shared tail of every characterization: raise, assemble, summarize.

        ``benchmarks`` holds ``(benchmark_id, workloads, rows)``; each row
        has one outcome per workload (one row per machine config).  Under
        ``strict`` the first failed cell, in that order, raises before
        anything is assembled.  Otherwise each row becomes a
        characterization of its surviving cells (``None`` when none
        survived), and each benchmark gets one ``summarize`` stage.
        """
        # Looked up at call time, not bound at import: perfbench/layers.py
        # times summarization by wrapping this module attribute.
        from .characterize import assemble_characterization

        self._raise_first_failure(
            oc for _, _, rows in benchmarks for row in rows for oc in row
        )
        out = []
        for bid, workloads, rows in benchmarks:
            start = self.trace.now()
            chars: "list[BenchmarkCharacterization | None]" = []
            for row in rows:
                pairs = [(w, oc.profile) for w, oc in zip(workloads, row) if oc.ok]
                chars.append(
                    assemble_characterization(
                        bid,
                        [w for w, _ in pairs],
                        [p for _, p in pairs],
                        keep_profiles=keep_profiles,
                    )
                    if pairs
                    else None
                )
            self._emit_stage("summarize", bid, "-", start, self.trace.now() - start)
            out.append(chars)
        return out

    # --------------------------------------------------- stage-level APIs

    def capture_run(self, cells: list[_Cell]) -> list[CellOutcome]:
        """Run only the capture stage of capture-only ``cells`` (no machines).

        Spans carry ``replay="-"``, and successful outcomes hold the
        :class:`~repro.machine.capture.TelemetryCapture` in their
        ``profile`` slot.  Captures are persisted to the capture store
        when one is attached and memoized in-process when none is, so
        repeated stage-level consumers (the studies) never re-execute
        a benchmark.  Under ``strict=True`` the first failed cell
        raises its :class:`CellFailure` after all spans are journaled.
        """
        outcomes = [oc for (oc,) in self.run_cells(cells)]
        self._raise_first_failure(outcomes)
        return outcomes

    def replay_run(self, capture: TelemetryCapture, request: ReplayRequest) -> CellOutcome:
        """Replay one captured stream under a machine config and build.

        ``request.machine`` defaults to the engine's config; an explicit
        config (or ``None`` for the default machine) overrides it.
        ``request.build`` is any object exposing ``name``, ``digest()``
        and ``cost_model(machine)`` — see
        :class:`repro.fdo.optimizer.FdoBuild` — and changes the replay
        without touching the capture.  When the originating
        ``request.workload`` is provided and a store is attached, the
        finished profile joins the entry of that capture and build, as
        the member of its machine config (the full workload content
        cannot be reconstructed from a capture, so profile-level
        caching requires it).  Under ``strict=True`` a
        failed replay raises its :class:`CellFailure` after the span
        is journaled.
        """
        m = self.machine if request.machine is ENGINE_MACHINE else request.machine
        build = request.build
        build_name = getattr(build, "name", None)
        if build is not None and build_name is not None:
            self.builds_used[str(build_name)] = str(build.digest())
        cell = _Cell(capture.benchmark, capture.workload, (m,), request.workload)
        key, entry = None, ProfileEntry()
        if self.store is not None and request.workload is not None:
            key = cache_key(capture.benchmark, request.workload, build=build)
            with self._counting_quarantines():
                entry = self.cache.get(key, [m]) or entry
            cached = entry.profile(m)
            if cached is not None:
                oc = CellOutcome(
                    cell, cached, "hit", 0, 0.0, "ok",
                    replay="hit", build=build_name,
                    start_s=self.trace.now(),
                )
                self._emit_spans([oc])
                return oc
        oc = self._replay_here(cell, capture, build)
        oc = replace(
            oc, profile=oc.profile[0] if oc.ok else None, attempts=1, replay="run",
            cache="off" if self.store is None else ("miss" if key else "-"), build=build_name,
        )
        if oc.ok and key is not None:
            self._put_profiles(key, entry, [(m, oc.profile)])
        self._emit_spans([oc])
        self._raise_first_failure([oc])
        return oc

    def characterize_sweep_run(
        self,
        benchmark_id: str,
        machines: "list[MachineConfig | None]",
        workloads: WorkloadSet | None = None,
        *,
        base_seed: int = 0,
        keep_profiles: bool = False,
    ) -> "tuple[list[BenchmarkCharacterization | None], list[CellOutcome]]":
        """Characterize one benchmark under N machine configs, capturing once.

        One cell per workload carries every config (:meth:`run_cells`),
        so the sweep-reuse guarantee holds by construction: each
        workload's benchmark executes at most once, however many
        configs are swept, and every config replays the same capture —
        two or more in one :func:`~repro.machine.batch.
        replay_capture_batched` pass, bit-identical to per-config
        replay (spans carry ``batched=True``).  The capture's cost is
        charged to the first config that replays it (``capture="run"``)
        and later ones report ``capture="hit"``, so ``summary.captures``
        equals the number of real benchmark executions.  With a store,
        each workload's profile entry is read once for all configs and
        written once, and the Alberta set's members come from the set
        store (:meth:`alberta_members`), so a warm sweep generates
        nothing.

        Returns one characterization per machine config, in ``machines``
        order (``None`` where no cell survived), plus the flat outcome
        list in machine-major order.  Under ``strict=True`` the first
        failed cell raises its :class:`CellFailure` after spans are
        journaled.
        """
        machines = tuple(machines)
        if not machines:
            raise WorkloadError("characterize_sweep: need at least one machine config")
        _require_capability(benchmark_id, CAP_SWEEPABLE, stage="characterize_sweep")
        wl = (
            self.alberta_members(benchmark_id, base_seed)
            if workloads is None
            else list(workloads)
        )
        if not wl:
            raise WorkloadError(f"characterize_sweep: empty workload set for {benchmark_id}")
        by_workload = self.run_cells([_Cell(benchmark_id, w.name, machines, w) for w in wl])
        grid = [list(row) for row in zip(*by_workload)]
        (chars,) = self._assemble([(benchmark_id, wl, grid)], keep_profiles=keep_profiles)
        return chars, [oc for row in grid for oc in row]

    # --------------------------------------------------- characterization

    def characterize_suite_run(
        self,
        *,
        suite: str | None = None,
        table2_only: bool = True,
        base_seed: int = 0,
        ids: "list[str] | None" = None,
        workloads: WorkloadSet | None = None,
        keep_profiles: bool = False,
    ) -> "tuple[list[BenchmarkCharacterization], list[CellOutcome]]":
        """Characterize one benchmark or many as one flat cell matrix.

        The whole matrix is scheduled as a single flat cell list so the
        pool stays saturated across benchmark boundaries (a per-benchmark
        fan-out would drain to one straggler at each join).
        ``ids`` restricts the run to an explicit benchmark subset
        (overriding ``suite`` / ``table2_only``).  ``workloads`` replaces
        the Alberta set with a custom one and needs exactly one id.
        Alberta sets come from :meth:`alberta_members`, so a benchmark
        whose cells all hit the store is never generated.

        Returns the characterizations (assembled per benchmark from the
        surviving cells; benchmarks with zero survivors are omitted)
        and every cell outcome.  Under ``strict=True`` the first failed
        cell raises its :class:`CellFailure` after spans are journaled.
        """
        ids = sorted(ids if ids is not None else benchmark_ids(suite, table2_only=table2_only))
        if workloads is not None and len(ids) != 1:
            raise WorkloadError("characterize: a custom workload set needs exactly one benchmark")
        sets = {
            bid: self.alberta_members(bid, base_seed) if workloads is None else list(workloads)
            for bid in ids
        }
        cells: list[_Cell] = []
        for bid in ids:
            if not sets[bid]:
                raise WorkloadError(f"characterize: empty workload set for {bid}")
            cells += [_Cell(bid, w.name, (self.machine,), w) for w in sets[bid]]
        outcomes = [oc for (oc,) in self.run_cells(cells)]
        per_bench = []
        cursor = 0
        for bid in ids:
            n = len(sets[bid])
            per_bench.append((bid, sets[bid], [outcomes[cursor : cursor + n]]))
            cursor += n
        chars = self._assemble(per_bench, keep_profiles=keep_profiles)
        return [char for (char,) in chars if char is not None], outcomes
