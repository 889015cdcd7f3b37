"""The single entry point for characterization runs: ``Run`` / ``Session``.

Before this module existed, ``characterize()`` / ``characterize_suite()``
each carried a duplicated ``workers != 1 or cache is not None`` dispatch
between a private serial loop and the engine.  Now the
:class:`~repro.core.engine.CharacterizationEngine` is the *only*
execution path — ``workers=1, cache=None`` is simply its serial special
case (verified bit-identical to the old loop in
``tests/test_run.py``) — and this module is the API over it:

* :class:`Session` — a context manager owning one engine and one trace
  journal across any number of characterization calls.  Use it when
  several runs should share a cache, a worker pool configuration, and
  a single JSONL journal::

      with Session(workers=4, cache="~/.cache/repro", trace="run.jsonl") as s:
          mcf = s.characterize("505.mcf_r")
          table2 = s.characterize_suite()
      summary = s.summary  # RunSummary for everything the session ran

* :class:`Run` — the one-shot facade: configure once, call once, the
  journal is finalized when the call returns::

      result = Run(workers=4, strict=False).characterize_suite()
      result.characterizations   # every benchmark that completed
      result.failures            # CellFailure records for the rest

Every call returns a :class:`RunResult`.  Under ``strict=True`` (the
default) a failed cell raises :class:`~repro.core.errors.CellFailure`
after the journal is written; under ``strict=False`` the run completes,
unaffected benchmarks are bit-identical to a clean run, and the failed
cells are reported in ``result.failures`` and the journal.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from ..machine.capture import TelemetryCapture
from ..machine.cost import MachineConfig
from ..machine.profiler import ExecutionProfile
from . import metrics as metrics_mod
from .artifacts import ArtifactStore
from .cache import ResultCache, payload_digest
from .engine import CharacterizationEngine, CellOutcome, _Cell
from .errors import CellFailure, UnknownScenarioError
from .ledger import LEDGER_ENV, RunLedger, build_record
from .metrics import MetricsRegistry
from .registry import REGISTRY
from .resources import render_collapsed
from .sweep import MachineGrid, ReplayRequest, SweepRequest
from .trace import RunSummary, TraceWriter, export_chrome_trace
from .workload import AlbertaRef, Workload, WorkloadSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .characterize import BenchmarkCharacterization

__all__ = [
    "Run",
    "RunResult",
    "Session",
    "SweepResult",
    # Re-exported request types (defined in repro.core.sweep).
    "MachineGrid",
    "ReplayRequest",
    "SweepRequest",
]


@dataclass
class RunResult:
    """What one characterization call produced.

    ``summary`` is filled in by :class:`Run` one-shots (whose journal
    closes with the call) and by :meth:`Session.close` for the last
    result of a session; mid-session results carry ``summary=None``
    because the journal is still open.
    """

    characterizations: "list[BenchmarkCharacterization]"
    failures: list[CellFailure] = field(default_factory=list)
    summary: RunSummary | None = None
    trace_path: Path | None = None
    #: This call's own metric observations (a write-through child of the
    #: session registry), including worker-side merges.
    metrics: MetricsRegistry | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def characterization(self) -> "BenchmarkCharacterization | None":
        """The single characterization of a one-benchmark run (or None)."""
        return self.characterizations[0] if self.characterizations else None

    @property
    def failed_cells(self) -> list[tuple[str, str]]:
        """(benchmark, workload) pairs that exhausted their attempts."""
        return [(f.benchmark, f.workload) for f in self.failures]

    @property
    def partial_benchmarks(self) -> set[str]:
        """Benchmarks that completed but are missing failed cells."""
        completed = {c.benchmark_id for c in self.characterizations}
        return completed & {f.benchmark for f in self.failures}


@dataclass
class SweepResult:
    """What one machine-config sweep produced.

    ``characterizations[i]`` belongs to ``machines[i]`` — the grid's
    stable config ordering, with ``config_names[i]`` naming each slot —
    and is ``None`` where no cell survived under ``strict=False``.  The
    sweep-reuse guarantee shows up in ``summary``: ``captures`` stays at
    one per workload no matter how many configs were swept, and
    ``replays_batched`` counts the cells served by the one-pass
    multi-config kernel.
    """

    machines: "list[MachineConfig | None]"
    characterizations: "list[BenchmarkCharacterization | None]"
    failures: list[CellFailure] = field(default_factory=list)
    summary: RunSummary | None = None
    trace_path: Path | None = None
    metrics: MetricsRegistry | None = None
    config_names: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def profile_for(self, config_name: str) -> "BenchmarkCharacterization | None":
        """The characterization for one named grid config.

        Raises :class:`KeyError` for a name outside the grid; returns
        ``None`` for a config whose cells all failed (``strict=False``).
        """
        try:
            i = self.config_names.index(config_name)
        except ValueError:
            raise KeyError(
                f"sweep has no config named {config_name!r}; "
                f"have {self.config_names}"
            ) from None
        return self.characterizations[i]


class Session:
    """One engine + one trace journal across many characterization calls.

    Accepts the full engine configuration (see
    :class:`~repro.core.engine.CharacterizationEngine`); the default
    ``workers=1, cache=None`` is the engine's serial special case, so a
    bare ``Session()`` behaves exactly like the historical serial loop.
    """

    def __init__(
        self,
        *,
        workers: int | None = 1,
        cache: ArtifactStore | ResultCache | str | Path | None = None,
        machine: MachineConfig | None = None,
        timeout: float | None = None,
        retries: int = 1,
        backoff: float = 0.05,
        strict: bool = True,
        trace: TraceWriter | str | Path | None = None,
        max_pool_restarts: int = 3,
        ledger: "RunLedger | str | Path | None" = None,
    ):
        # Opened first: an unusable ledger dir raises LedgerError before
        # anything else is set up.
        if ledger is None:
            env_dir = os.environ.get(LEDGER_ENV, "").strip()
            ledger = env_dir or None
        if ledger is not None and not isinstance(ledger, RunLedger):
            ledger = RunLedger(ledger)
        #: Run-history store this session appends to on close (opt-in via
        #: the ``ledger`` argument or ``REPRO_LEDGER_DIR``).
        self.ledger = ledger
        if not isinstance(trace, TraceWriter):
            trace = TraceWriter(trace)
        self._writer = trace
        self.engine = CharacterizationEngine(
            workers=workers,
            cache=cache,
            machine=machine,
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            strict=strict,
            trace=trace,
            max_pool_restarts=max_pool_restarts,
        )
        from .. import __version__

        self._writer.start(
            {
                "version": __version__,
                "workers": self.engine.workers,
                "cache": self.engine.cache is not None,
                "strict": strict,
                "timeout": timeout,
                "retries": retries,
            }
        )
        #: The session-wide metrics aggregate; every call records into a
        #: write-through child of this registry.
        self.metrics = MetricsRegistry()
        self._grids: set[str] = set()
        self._closed = False

    @contextmanager
    def _collect(self) -> "Iterator[MetricsRegistry]":
        """A per-call child registry, active as a module-level collector.

        Engine instrumentation (and worker-snapshot merges) recorded
        while the context is open land in the child and, via its
        write-through link, in :attr:`metrics`.
        """
        reg = self.metrics.child()
        with metrics_mod.collector(reg):
            yield reg

    # ------------------------------------------------------------- runs

    def characterize(
        self,
        benchmark_id: str,
        workloads: WorkloadSet | None = None,
        *,
        base_seed: int = 0,
        keep_profiles: bool = False,
    ) -> RunResult:
        """Characterize one benchmark; failures per the session's ``strict``."""
        with self._collect() as reg:
            chars, outcomes = self.engine.characterize_suite_run(
                ids=[benchmark_id],
                workloads=workloads,
                base_seed=base_seed,
                keep_profiles=keep_profiles,
            )
        return self._result(chars, outcomes, reg)

    def characterize_suite(
        self,
        *,
        suite: str | None = None,
        table2_only: bool = True,
        base_seed: int = 0,
        ids: list[str] | None = None,
    ) -> RunResult:
        """Characterize the whole suite (or an ``ids`` subset) as one flat matrix."""
        with self._collect() as reg:
            chars, outcomes = self.engine.characterize_suite_run(
                suite=suite, table2_only=table2_only, base_seed=base_seed, ids=ids
            )
        return self._result(chars, outcomes, reg)

    def characterize_sweep(
        self, request: SweepRequest, workloads: WorkloadSet | None = None
    ) -> SweepResult:
        """Characterize one benchmark under every config in a grid::

            grid = MachineGrid.from_presets("default", "i7-6700k")
            result = session.characterize_sweep(SweepRequest("505.mcf_r", grid))
            result.profile_for("i7-6700k")

        Each workload's benchmark executes at most once; every machine
        config replays the captured telemetry stream, and the replays
        share one batched kernel pass per workload (see
        :meth:`~repro.core.engine.CharacterizationEngine.characterize_sweep_run`).
        ``workloads`` replaces the benchmark's Alberta set.
        """
        if not isinstance(request, SweepRequest):
            raise TypeError(
                f"characterize_sweep: expected a SweepRequest, got {type(request).__name__}"
            )
        self._grids.update(request.grid.names)
        with self._collect() as reg:
            chars, outcomes = self.engine.characterize_sweep_run(
                request.benchmark,
                list(request.grid.machines),
                workloads,
                base_seed=request.base_seed,
                keep_profiles=request.keep_profiles,
            )
        return SweepResult(
            machines=list(request.grid.machines),
            characterizations=chars,
            failures=[oc.failure() for oc in outcomes if not oc.ok],
            trace_path=self._writer.path,
            metrics=reg,
            config_names=list(request.grid.names),
        )

    # ------------------------------------------------------ stage access

    def capture(
        self,
        benchmark_id: str,
        workload: "Workload | str",
        *,
        base_seed: int = 0,
    ) -> TelemetryCapture | None:
        """Run (or reuse) the capture stage for one workload.

        ``workload`` may be a :class:`Workload` or the name of one of
        the benchmark's default Alberta workloads.  Returns the
        machine-independent telemetry capture — feed it to
        :meth:`replay` any number of times.  ``None`` only under
        ``strict=False`` when the capture failed.
        """
        caps = self.capture_set(
            benchmark_id, [self._resolve(benchmark_id, workload, base_seed)],
            base_seed=base_seed,
        )
        return caps[0]

    def capture_set(
        self,
        benchmark_id: str,
        workloads: "WorkloadSet | list[Workload] | None" = None,
        *,
        base_seed: int = 0,
    ) -> "list[TelemetryCapture | None]":
        """Capture every workload (default: the benchmark's Alberta set).

        One engine pass — parallel across cache-missed workloads — and
        one execution per workload however many times it is
        re-requested: a repeat is decoded from the capture store, or,
        in a session without one, served from the engine's in-process
        memo.  With a store, a repeat of the Alberta set reads its
        member names from the set store and generates nothing.
        """
        if workloads is None:
            workloads = self.engine.alberta_members(benchmark_id, base_seed)
        cells = [_Cell(benchmark_id, w.name, None, w) for w in workloads]
        with self._collect():
            outcomes = self.engine.capture_run(cells)
        return [oc.profile if oc.ok else None for oc in outcomes]

    def replay(
        self, capture: TelemetryCapture, request: ReplayRequest | None = None, **kwargs: Any
    ) -> ExecutionProfile | None:
        """Replay a capture under a machine config / FDO build::

            session.replay(capture, ReplayRequest(machine=cfg, workload=w))

        ``request`` defaults to ``ReplayRequest()``: the session's
        machine, the baseline build, no profile caching.  Pass the
        originating ``workload`` to enable profile-level caching of the
        replay result.  ``None`` only under ``strict=False`` when the
        replay failed.
        """
        if kwargs or not isinstance(request, (ReplayRequest, type(None))):
            got = ", ".join(f"{k}=" for k in kwargs) or type(request).__name__
            raise TypeError(f"replay: expected a ReplayRequest, got {got}")
        with self._collect():
            oc = self.engine.replay_run(capture, request or ReplayRequest())
        return oc.profile if oc.ok else None

    def _resolve(
        self, benchmark_id: str, workload: "Workload | str", base_seed: int
    ) -> "Workload | AlbertaRef":
        """A workload named by its Alberta set member name, else itself.

        Names resolve through the engine's set members, so with a store
        attached a warm lookup generates nothing.
        """
        if not isinstance(workload, str):
            return workload
        members = self.engine.alberta_members(benchmark_id, base_seed)
        for member in members:
            if member.name == workload:
                return member
        raise UnknownScenarioError(
            f"{benchmark_id} workload", workload, [m.name for m in members]
        )

    def _result(
        self,
        chars: "list[BenchmarkCharacterization]",
        outcomes: list[CellOutcome],
        reg: MetricsRegistry | None = None,
    ) -> RunResult:
        return RunResult(
            characterizations=chars,
            failures=[oc.failure() for oc in outcomes if not oc.ok],
            trace_path=self._writer.path,
            metrics=reg,
        )

    # ---------------------------------------------------------- exports

    def prometheus(self) -> str:
        """The session registry in Prometheus text exposition format."""
        return metrics_mod.render_prometheus(self.metrics)

    def metrics_table(self) -> str:
        """The session registry as the ``repro metrics show`` table."""
        return metrics_mod.render_metrics_table(self.metrics)

    def chrome_trace(self) -> dict[str, Any]:
        """The session's span tree as Chrome ``trace_event`` JSON.

        Built from the writer's in-memory record buffer, so it works
        whether or not a journal path was configured.
        """
        return export_chrome_trace(self._writer.records)

    @property
    def stack_counts(self) -> dict[str, int]:
        """Collapsed-stack sample counts folded across every sampled cell.

        Empty unless profiling was opted into via ``REPRO_STACK_SAMPLE``
        (see :mod:`repro.core.resources`).
        """
        return dict(self.engine.stack_counts)

    def write_flamegraph(self, path: str | Path) -> Path:
        """Write the session's collapsed stacks (flamegraph.pl format)."""
        path = Path(path)
        if path.parent != Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            render_collapsed(self.engine.stack_counts), encoding="utf-8"
        )
        return path

    # -------------------------------------------------------- lifecycle

    @property
    def summary(self) -> RunSummary | None:
        """The session summary (available once closed)."""
        return self._writer.summary

    def close(self) -> RunSummary:
        """Finalize the journal (idempotent) and return the summary.

        When a ledger is attached, the run's record is appended here —
        once, on the first close.
        """
        record_ledger = self.ledger is not None and not self._closed
        with self._collect():
            summary = self._writer.finish()
        self._writer.close()
        self._closed = True
        if record_ledger:
            self.ledger.append(self._ledger_record(summary))
        return summary

    def _ledger_record(self, summary: RunSummary) -> dict[str, Any]:
        """One schema-1 ledger record for everything this session ran."""
        benchmarks = sorted({s.benchmark for s in self._writer.spans})
        scenarios: dict[str, str] = {}
        for bid in benchmarks:
            desc = REGISTRY.find("benchmark", bid)
            if desc is not None:
                scenarios[bid] = desc.fingerprint()
        for name in sorted(self._grids):
            desc = REGISTRY.find("machine", name)
            if desc is not None:
                scenarios[f"machine:{name}"] = desc.fingerprint()
        machine = self.engine.machine
        return build_record(
            run_id=self._writer.run_id or "unknown",
            started_at=self._writer.started_at or time.time(),
            finished_at=time.time(),
            summary=summary.to_dict(),
            metrics_snapshot=self.metrics.to_dict(),
            benchmarks=benchmarks,
            machine=None if machine is None else payload_digest(asdict(machine)),
            grids=self._grids,
            scenarios=scenarios,
            builds=self.engine.builds_used,
            trace_path=str(self._writer.path) if self._writer.path else None,
        )

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class Run:
    """One-shot facade over :class:`Session`.

    Holds the configuration; each call opens a session, runs, closes
    the journal, and returns a :class:`RunResult` with its ``summary``
    populated.
    """

    def __init__(self, **config: object):
        self._config = config

    def characterize(
        self,
        benchmark_id: str,
        workloads: WorkloadSet | None = None,
        *,
        base_seed: int = 0,
        keep_profiles: bool = False,
    ) -> RunResult:
        with Session(**self._config) as session:  # type: ignore[arg-type]
            result = session.characterize(
                benchmark_id, workloads, base_seed=base_seed, keep_profiles=keep_profiles
            )
        result.summary = session.summary
        return result

    def characterize_suite(
        self,
        *,
        suite: str | None = None,
        table2_only: bool = True,
        base_seed: int = 0,
        ids: list[str] | None = None,
    ) -> RunResult:
        with Session(**self._config) as session:  # type: ignore[arg-type]
            result = session.characterize_suite(
                suite=suite, table2_only=table2_only, base_seed=base_seed, ids=ids
            )
        result.summary = session.summary
        return result

    def characterize_sweep(
        self, request: SweepRequest, workloads: WorkloadSet | None = None
    ) -> SweepResult:
        with Session(**self._config) as session:  # type: ignore[arg-type]
            result = session.characterize_sweep(request, workloads)
        result.summary = session.summary
        return result
