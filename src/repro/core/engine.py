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
  *replay* stage evaluates a capture under the cell's machine config.
  The stages are separately cached in an
  :class:`~repro.core.artifacts.ArtifactStore`, so a machine-config or
  FDO-build sweep (:meth:`CharacterizationEngine.characterize_sweep_run`)
  executes each benchmark once and replays the stored stream N times.
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
capture where it ran and ships home only the
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
from typing import TYPE_CHECKING, Any, Iterable, Iterator

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

    ``workload`` is the parent's own workload object: inline execution
    runs on it and a pool worker receives it pickled.  Until the cell
    has to execute it may be the workload's :class:`AlbertaRef`
    instead, which keys it just the same.  Only
    :meth:`CharacterizationEngine.replay_run` builds a cell without
    either, because a replay never executes the benchmark.
    """

    benchmark_id: str
    workload_name: str
    machine: MachineConfig | None
    workload: Workload | AlbertaRef | None


@dataclass(frozen=True)
class CellOutcome:
    """The terminal record of one cell's execution (or cache hit).

    ``capture``/``replay`` record the stage-level story: which stage
    actually ran (``"run"``), was served from a store (``"hit"``), or
    never happened (``"-"``).  ``profile`` holds the finished
    :class:`ExecutionProfile` — except for capture-stage-only outcomes
    (:meth:`CharacterizationEngine.capture_run`), where it holds the
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


def _run_cell(
    cell: _Cell, attempt: int = 1, mode: str = "replay", encode: bool = False
) -> tuple[ExecutionProfile | TelemetryCapture, bytes | None, dict[str, Any]]:
    """Execute one matrix cell on ``cell.workload`` (in a worker or inline).

    Always runs the capture stage; ``mode`` picks the first element of
    the result:

    * ``"replay"`` — replay here and return the profile; the capture's
      columns never cross the process boundary (Table II cells);
    * ``"capture"`` — skip replay and return the capture itself
      (stage-level capture runs).

    The second element is ``encode_capture(capture)`` when ``encode``
    is set (the engine has a store to write it to), else ``None``.
    Encoding here runs in parallel across pool workers; the parent
    writes the bytes as they are and, for ``"replay"``, never holds
    the columns.

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
            if mode == "capture":
                product = capture
            else:
                product = replay_capture(capture, machine=cell.machine)
                t3 = time.perf_counter()
                res = _replay_resources(tracker, reg, cell.benchmark_id)
                stages.append(["replay", t2 - t0, t3 - t2, res])
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
    """Best-effort terminate a pool's worker processes (hung/broken)."""
    procs = getattr(pool, "_processes", None) or {}
    for proc in list(procs.values()):
        try:
            proc.terminate()
        except Exception:  # pragma: no cover - process already gone
            pass


# ----------------------------------------------------------- parent side


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
        #: Captures a store-less engine executed for the stage-level APIs
        #: (capture_run, characterize_sweep_run), so a repeat never
        #: re-executes a benchmark.  With a store attached the store is
        #: the memo and this stays empty: a repeat costs one decode, and
        #: no decoded capture outlives its consumer.  run_cells never
        #: memoizes.
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

    def run_cells(self, cells: list[_Cell]) -> list[CellOutcome]:
        """Resolve every cell to a :class:`CellOutcome`, in ``cells`` order.

        The staged pipeline: a profile-cache miss next consults the
        capture store — a stored telemetry stream is replayed in the
        parent (``capture="hit"``, no benchmark execution) — and only
        cells missing both artifacts execute the benchmark.  Executed
        cells capture *and* replay where they run (one process
        round-trip, replay stays parallel); with a store attached they
        also encode the capture there and ship home only its bytes.

        Never raises for per-cell failures — inspect ``outcome.ok``.
        Cache lookups and stores happen in the parent process only;
        workers never touch the cache directory.  Each cell reads its
        capture's profile entry once and writes it back with its own
        profile added; cells that share an entry share one
        :class:`ProfileEntry`, so a later write keeps an earlier one's
        member.  Spans are emitted to the trace writer in matrix order
        once all cells settle.
        """
        outcomes: list[CellOutcome | None] = [None] * len(cells)
        keys: list[str | None] = [None] * len(cells)
        cap_keys: list[str | None] = [None] * len(cells)
        entries: dict[str, ProfileEntry] = {}
        to_run: list[int] = []
        replays: list[tuple[int, TelemetryCapture]] = []
        cache_state = "off" if self.store is None else "miss"

        with self._counting_quarantines():
            for i, cell in enumerate(cells):
                if self.store is not None:
                    looked_up = self.trace.now()
                    keys[i] = key = cache_key(cell.benchmark_id, cell.workload)
                    found = self.cache.get(key, [cell.machine])
                    cached = entries.setdefault(key, found or ProfileEntry()).profile(cell.machine)
                    if cached is not None:
                        outcomes[i] = CellOutcome(
                            cell, cached, "hit", 0, 0.0, "ok", replay="hit",
                            start_s=looked_up,
                        )
                        continue
                    cap_keys[i] = capture_key(cell.benchmark_id, cell.workload)
                    capture = self.store.captures.get(cap_keys[i])
                    if capture is not None:
                        replays.append((i, capture))
                        continue
                to_run.append(i)

        if to_run:
            self._materialize(cells, to_run)
            self._execute(cells, to_run, outcomes, cache_state, "replay")
            for i in to_run:
                oc = outcomes[i]
                if oc is None:
                    continue
                if not oc.ok:
                    outcomes[i] = replace(oc, capture="run")
                    continue
                profile, blob, meta = oc.profile
                if meta.get("stacks"):
                    merge_stacks(self.stack_counts, meta["stacks"])
                outcomes[i] = replace(
                    oc, profile=profile, capture="run", replay="run",
                    stages=tuple(tuple(s) for s in meta["stages"]),
                )
                if keys[i] is not None:
                    self.store.captures.put(cap_keys[i], blob)
                    self._put_profiles(keys[i], entries[keys[i]], [(cells[i].machine, profile)])

        for i, capture in replays:
            cell = cells[i]
            tracker = StageResourceTracker()
            reg = metrics.MetricsRegistry()
            started = time.perf_counter()
            try:
                with metrics.collector(reg):
                    profile = replay_capture(capture, machine=cell.machine)
            except Exception as exc:
                outcomes[i] = CellOutcome(
                    cell, None, cache_state, 1,
                    time.perf_counter() - started, "failed",
                    f"{type(exc).__name__}: {exc}",
                    capture="hit", replay="run",
                    start_s=self.trace.rel(started),
                )
                continue
            duration = time.perf_counter() - started
            res = _replay_resources(tracker, reg, cell.benchmark_id)
            outcomes[i] = CellOutcome(
                cell, profile, cache_state, 0, duration, "ok",
                capture="hit", replay="run",
                start_s=self.trace.rel(started),
                stages=(("replay", 0.0, duration, res),),
            )
            self._put_profiles(keys[i], entries[keys[i]], [(cell.machine, profile)])

        done = [oc for oc in outcomes if oc is not None]
        self._emit_spans(done)
        return done

    def _put_profiles(
        self,
        key: str,
        entry: ProfileEntry,
        profiles: "list[tuple[MachineConfig | None, ExecutionProfile]]",
        replay_mode: str | None = None,
    ) -> None:
        """Add ``profiles`` to one capture's entry and write it once."""
        for machine, profile in profiles:
            entry.add(machine, profile, replay_mode)
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
        cache_state: str,
        mode: str,
    ) -> None:
        """Run the cache-missed cells, inline or pooled.

        ``mode`` is forwarded to :func:`_run_cell`, which also encodes
        each capture whenever this engine has a store to write it to;
        successful outcomes carry its raw result triple in their
        ``profile`` slot — callers unpack and re-tag with the stage
        states they observed.  Every cell runs on its own workload
        object, inline or pickled to a worker.  Benchmarks never mutate
        their payload, so the keys the caller computed from those
        objects before the run still match.
        """
        inline = self.timeout is None and (self.workers == 1 or len(pending) == 1)
        if inline:
            self._execute_inline(cells, pending, outcomes, cache_state, mode)
        else:
            self._execute_pool(cells, pending, outcomes, cache_state, mode)

    def _execute_inline(
        self,
        cells: list[_Cell],
        pending: list[int],
        outcomes: list[CellOutcome | None],
        cache_state: str,
        mode: str,
    ) -> None:
        encode = self.store is not None
        for i in pending:
            cell = cells[i]
            attempts = 0
            started = time.perf_counter()
            while True:
                attempts += 1
                try:
                    result = _run_cell(cell, attempts, mode, encode)
                except Exception as exc:
                    if attempts <= self.retries:
                        self._backoff_sleep(attempts)
                        continue
                    outcomes[i] = CellOutcome(
                        cell, None, cache_state, attempts,
                        time.perf_counter() - started, "failed",
                        f"{type(exc).__name__}: {exc}",
                        start_s=self.trace.rel(started),
                    )
                else:
                    # Inline cells recorded through this process's own
                    # collector stack already; no snapshot merge needed.
                    outcomes[i] = CellOutcome(
                        cell, result, cache_state, attempts,
                        time.perf_counter() - started, "ok",
                        start_s=self.trace.rel(started),
                    )
                break

    def _execute_pool(
        self,
        cells: list[_Cell],
        pending: list[int],
        outcomes: list[CellOutcome | None],
        cache_state: str,
        mode: str,
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
                cells[i], result, cache_state, max(remaining[i], 1),
                time.perf_counter() - first_seen[i], outcome, error,
                start_s=self.trace.rel(first_seen[i]),
            )
            del remaining[i]

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
            futures: dict[int, Future] = {}
            abandon = False
            try:
                for i in order:
                    remaining[i] += 1
                    futures[i] = pool.submit(_run_cell, cells[i], remaining[i], mode, encode)
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

            if abandon:
                pool.shutdown(wait=False, cancel_futures=True)
                _kill_pool(pool)
                restarts += 1
            else:
                pool.shutdown(wait=True)

            if remaining:
                # Deterministic exponential backoff between retry rounds.
                self._backoff_sleep(round_no)

        if remaining:
            self._execute_isolated(cells, remaining, outcomes, cache_state, first_seen, mode)

    def _execute_isolated(
        self,
        cells: list[_Cell],
        remaining: dict[int, int],
        outcomes: list[CellOutcome | None],
        cache_state: str,
        first_seen: dict[int, float],
        mode: str,
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
                    fut = pool.submit(_run_cell, cell, attempt, mode, encode)
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
                if abandon:
                    pool.shutdown(wait=False, cancel_futures=True)
                    _kill_pool(pool)
                else:
                    pool.shutdown(wait=True)
                if result is not None:
                    metrics.merge_snapshot(result[2]["metrics"])
                    outcomes[i] = CellOutcome(
                        cell, result, cache_state, attempt,
                        time.perf_counter() - first_seen[i], "ok",
                        start_s=self.trace.rel(first_seen[i]),
                    )
                    del remaining[i]
                elif attempt > self.retries:
                    outcomes[i] = CellOutcome(
                        cell, None, cache_state, attempt,
                        time.perf_counter() - first_seen[i], outcome, error,
                        start_s=self.trace.rel(first_seen[i]),
                    )
                    del remaining[i]
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

    def _captures(
        self, cells: list[_Cell]
    ) -> Iterator[tuple[int, TelemetryCapture | None, str, CellOutcome | None]]:
        """Resolve the capture stage of ``cells``, one capture at a time.

        Yields one ``(i, capture, state, run_outcome)`` tuple per cell
        index ``i``: first every hit, each looked up just before it is
        yielded, then the misses, executed as one batch (inline or
        pooled) and yielded in ``cells`` order.  ``state`` is ``"hit"``
        or ``"run"`` (the benchmark executed — successfully or not,
        ``capture`` is ``None`` on failure); ``run_outcome`` carries
        attempts/duration/error for ``"run"`` entries and is ``None``
        for hits.  Emits no spans — callers decide how capture cost is
        attributed (a sweep charges it to the first consuming cell).

        With a store attached the store is the memo: a hit is decoded
        from it, and an executed cell ships home its encoded bytes,
        which are stored as they are.  So a consumer that drops each
        capture before asking for the next holds one decoded capture at
        a time.  Only a store-less engine keeps captures in
        :attr:`_capture_memo`, because a repeat there would re-execute
        the benchmark.
        """
        cap_keys = [capture_key(cell.benchmark_id, cell.workload) for cell in cells]
        to_run: list[int] = []
        for i, key in enumerate(cap_keys):
            if self.store is None:
                capture = self._capture_memo.get(key)
            else:
                # Closed before the yield, so the consumer's replay
                # metrics stay out of the lookup's collector.
                with self._counting_quarantines():
                    capture = self.store.captures.get(key)
            if capture is None:
                to_run.append(i)
            else:
                yield i, capture, "hit", None
        if not to_run:
            return
        self._materialize(cells, to_run)
        scratch: list[CellOutcome | None] = [None] * len(cells)
        self._execute(cells, to_run, scratch, "-", "capture")
        for i in to_run:
            oc, scratch[i] = scratch[i], None
            if not oc.ok:
                yield i, None, "run", oc
                continue
            capture, blob, meta = oc.profile
            if meta.get("stacks"):
                merge_stacks(self.stack_counts, meta["stacks"])
            if self.store is None:
                self._capture_memo[cap_keys[i]] = capture
            else:
                self.store.captures.put(cap_keys[i], blob)
            stages = tuple(tuple(s) for s in meta["stages"])
            yield i, capture, "run", replace(oc, profile=None, stages=stages)

    def capture_run(self, cells: list[_Cell]) -> list[CellOutcome]:
        """Run only the capture stage; spans carry ``replay="-"``.

        Successful outcomes hold the
        :class:`~repro.machine.capture.TelemetryCapture` in their
        ``profile`` slot.  Captures are persisted to the capture store
        when one is attached and memoized in-process when none is, so
        repeated stage-level consumers (the studies) never re-execute
        a benchmark.  Under ``strict=True`` the first failed cell
        raises its :class:`CellFailure` after all spans are journaled.
        """
        outcomes: list[Any] = [None] * len(cells)
        for i, capture, _, run_oc in self._captures(cells):
            if run_oc is None:
                outcomes[i] = CellOutcome(cells[i], capture, "-", 0, 0.0, "ok", capture="hit")
            else:
                outcomes[i] = replace(run_oc, profile=capture, capture="run")
        self._emit_spans(outcomes)
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
        build_digest = build.digest() if build is not None else None
        if build_name is not None and build_digest is not None:
            self.builds_used[str(build_name)] = str(build_digest)
        cell = _Cell(capture.benchmark, capture.workload, m, request.workload)
        key, entry = None, ProfileEntry()
        if self.store is not None and request.workload is not None:
            key = cache_key(capture.benchmark, request.workload, build=build_digest)
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
        cache_state = "off" if self.store is None else ("miss" if key else "-")
        tracker = StageResourceTracker()
        reg = metrics.MetricsRegistry()
        started = time.perf_counter()
        try:
            with metrics.collector(reg):
                profile = replay_capture(
                    capture,
                    machine=m,
                    cost_model=build.cost_model(m) if build is not None else None,
                )
        except Exception as exc:
            oc = CellOutcome(
                cell, None, cache_state, 1,
                time.perf_counter() - started, "failed",
                f"{type(exc).__name__}: {exc}",
                replay="run", build=build_name,
                start_s=self.trace.rel(started),
            )
        else:
            duration = time.perf_counter() - started
            res = _replay_resources(tracker, reg, capture.benchmark)
            oc = CellOutcome(
                cell, profile, cache_state, 1, duration, "ok",
                replay="run", build=build_name,
                start_s=self.trace.rel(started),
                stages=(("replay", 0.0, duration, res),),
            )
            if key is not None:
                self._put_profiles(key, entry, [(m, profile)], "per-config")
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

        The sweep-reuse guarantee: each workload's benchmark executes
        at most once, however many machine configs are swept — every
        config replays the same captured telemetry stream.  Capture
        cost (attempts, duration) is charged to the first consuming
        cell (``capture="run"``); later consumers report
        ``capture="hit"``, so ``summary.captures`` equals the number
        of real benchmark executions.  Stored captures are decoded and
        replayed one workload at a time, before the misses execute as
        one batch, so a warm sweep holds one decoded capture at a time.
        With a store, the Alberta set's members come from the set store
        (:meth:`alberta_members`), so a warm sweep generates nothing.

        Replays additionally share *one pass* over the capture columns:
        a workload with two or more pending configs replays them all
        through :func:`~repro.machine.batch.replay_capture_batched`,
        which is bit-identical to per-config replay; a workload with
        one goes through :func:`~repro.machine.batch.replay_capture`.
        Batched spans carry ``batched=True`` and cached profiles record
        ``replay_mode="batched"`` provenance.

        With a store, each workload's profile entry is read once for all
        configs; the configs it lacks are replayed and the entry is
        written once, holding its old members and the new ones.

        Returns one characterization per machine config, in ``machines``
        order (``None`` where no cell survived), plus the flat outcome
        list in machine-major order.  Under ``strict=True`` the first
        failed cell raises its :class:`CellFailure` after spans are
        journaled.
        """
        machines = list(machines)
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
        cache_state = "off" if self.store is None else "miss"

        grid: list[list[CellOutcome | None]] = [[None] * len(wl) for _ in machines]
        keys: list[str | None] = [None] * len(wl)
        entries = [ProfileEntry() for _ in wl]
        # Pending cells grouped by workload: within one workload every
        # config replays the same capture, so they share a single
        # batched pass.  Members are in machine order, so the first
        # member of each group is the cell the capture cost is charged to.
        by_w: dict[int, list[tuple[int, _Cell]]] = {}
        with self._counting_quarantines():
            for wi, w in enumerate(wl):
                if self.store is not None:
                    looked_up = self.trace.now()
                    keys[wi] = cache_key(benchmark_id, w)
                    entries[wi] = self.cache.get(keys[wi], machines) or entries[wi]
                for mi, m in enumerate(machines):
                    cell = _Cell(benchmark_id, w.name, m, w)
                    cached = entries[wi].profile(m)
                    if cached is not None:
                        grid[mi][wi] = CellOutcome(
                            cell, cached, "hit", 0, 0.0, "ok", replay="hit",
                            start_s=looked_up,
                        )
                        continue
                    by_w.setdefault(wi, []).append((mi, cell))
        need_w = sorted(by_w)

        for k, capture, state, run_oc in self._captures(
            [_Cell(benchmark_id, wl[wi].name, None, wl[wi]) for wi in need_w]
        ):
            wi = need_w[k]
            members = by_w[wi]

            def _charge(j: int) -> tuple[bool, int, float, tuple]:
                fresh = state == "run" and j == 0
                if fresh and run_oc is not None:
                    return fresh, run_oc.attempts, run_oc.duration_s, run_oc.stages
                return fresh, 0, 0.0, ()

            if capture is None:
                # Capture failed: every consumer of this workload fails
                # with the capture's error; only the first is charged.
                for j, (mi, cell) in enumerate(members):
                    fresh, cap_attempts, cap_duration, _ = _charge(j)
                    grid[mi][wi] = CellOutcome(
                        cell, None, cache_state,
                        max(1, cap_attempts), cap_duration,
                        run_oc.outcome if run_oc is not None else "failed",
                        run_oc.error if run_oc is not None else "capture failed",
                        capture="run" if fresh else "-",
                        start_s=run_oc.start_s if run_oc is not None else -1.0,
                    )
                continue

            if len(members) > 1:
                started = time.perf_counter()
                try:
                    profiles = replay_capture_batched(
                        capture, [cell.machine for _, cell in members]
                    )
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    batch_dur = time.perf_counter() - started
                    for j, (mi, cell) in enumerate(members):
                        fresh, cap_attempts, cap_duration, cap_stages = _charge(j)
                        cell_start = (
                            run_oc.start_s
                            if fresh and run_oc is not None and run_oc.start_s >= 0
                            else self.trace.rel(started)
                        )
                        grid[mi][wi] = CellOutcome(
                            cell, None, cache_state, max(1, cap_attempts),
                            cap_duration + batch_dur, "failed", error,
                            capture="run" if fresh else "hit", replay="run",
                            start_s=cell_start, stages=cap_stages,
                            batched=True,
                        )
                    continue
                batch_dur = time.perf_counter() - started
                per_dur = batch_dur / len(members)
                for j, (mi, cell) in enumerate(members):
                    fresh, cap_attempts, cap_duration, cap_stages = _charge(j)
                    cell_start = (
                        run_oc.start_s
                        if fresh and run_oc is not None and run_oc.start_s >= 0
                        else self.trace.rel(started)
                    )
                    grid[mi][wi] = CellOutcome(
                        cell, profiles[j], cache_state, cap_attempts,
                        cap_duration + per_dur, "ok",
                        capture="run" if fresh else "hit", replay="run",
                        start_s=cell_start,
                        stages=cap_stages
                        + (("replay", self.trace.rel(started) - cell_start, per_dur),),
                        batched=True,
                    )
                if keys[wi] is not None:
                    self._put_profiles(
                        keys[wi], entries[wi],
                        [(cell.machine, p) for (_, cell), p in zip(members, profiles)],
                        "batched",
                    )
                continue

            ((mi, cell),) = members
            fresh, cap_attempts, cap_duration, cap_stages = _charge(0)
            tracker = StageResourceTracker()
            reg = metrics.MetricsRegistry()
            started = time.perf_counter()
            if fresh and run_oc is not None and run_oc.start_s >= 0:
                cell_start = run_oc.start_s
            else:
                cell_start = self.trace.rel(started)
            try:
                with metrics.collector(reg):
                    profile = replay_capture(capture, machine=cell.machine)
            except Exception as exc:
                grid[mi][wi] = CellOutcome(
                    cell, None, cache_state, max(1, cap_attempts),
                    cap_duration + (time.perf_counter() - started), "failed",
                    f"{type(exc).__name__}: {exc}",
                    capture="run" if fresh else "hit", replay="run",
                    start_s=cell_start, stages=cap_stages,
                )
                continue
            replay_dur = time.perf_counter() - started
            res = _replay_resources(tracker, reg, benchmark_id)
            grid[mi][wi] = CellOutcome(
                cell, profile, cache_state, cap_attempts,
                cap_duration + replay_dur, "ok",
                capture="run" if fresh else "hit", replay="run",
                start_s=cell_start,
                stages=cap_stages
                + (("replay", self.trace.rel(started) - cell_start, replay_dur, res),),
            )
            if keys[wi] is not None:
                self._put_profiles(keys[wi], entries[wi], [(cell.machine, profile)], "per-config")

        flat = [oc for row in grid for oc in row]
        self._emit_spans(flat)
        (chars,) = self._assemble([(benchmark_id, wl, grid)], keep_profiles=keep_profiles)
        return chars, flat

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
            cells += [_Cell(bid, w.name, self.machine, w) for w in sets[bid]]
        outcomes = self.run_cells(cells)
        per_bench = []
        cursor = 0
        for bid in ids:
            n = len(sets[bid])
            per_bench.append((bid, sets[bid], [outcomes[cursor : cursor + n]]))
            cursor += n
        chars = self._assemble(per_bench, keep_profiles=keep_profiles)
        return [char for (char,) in chars if char is not None], outcomes
