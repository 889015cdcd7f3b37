"""Perf-regression watchdog: gate fresh replay numbers on a baseline.

``BENCH_machine.json`` (written by ``benchmarks/bench_machine.py``)
records per-benchmark replay throughput and replay seconds for one
machine.  The watchdog re-measures a subset of those benchmarks with
the same best-of-N discipline, compares against the stored numbers
with a configurable relative tolerance, and renders a human-readable
diff.  A run-ledger directory works as a baseline too: the rolling
median of its last five runs (:func:`~repro.core.ledger.ledger_baseline`).
When the baseline file carries a ``sweep_batched`` entry, the
batched-sweep speedup is re-checked as well, warn-only.  ``repro
watchdog --baseline PATH`` exposes it on the command line; CI runs it
warn-only right after the bench smoke writes a fresh baseline.

Exit semantics (mirrored by the CLI):

* ``EXIT_OK`` (0)         — every checked benchmark is within tolerance;
* ``EXIT_REGRESSION`` (1) — at least one benchmark regressed;
* ``EXIT_USAGE`` (2)      — missing/invalid baseline or bad arguments.

Throughput is measured through the metrics registry itself — each
replay round runs under a fresh :func:`~repro.core.metrics.collector`
and reads back ``repro_replay_ns_total`` / ``repro_replay_events_total``
— so the gate exercises exactly the numbers the exporters publish.

``REPRO_WATCHDOG_INJECT_SLOWDOWN=<factor>`` divides every measured
throughput by ``<factor>`` before comparison.  It exists so tests and
CI can validate the *gate* (a deterministic 2x regression must exit
nonzero) without needing a genuinely slow machine.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from . import metrics
from .errors import ReproError

__all__ = [
    "EXIT_OK",
    "EXIT_REGRESSION",
    "EXIT_USAGE",
    "WatchdogError",
    "BenchmarkCheck",
    "SweepCheck",
    "WatchdogReport",
    "load_baseline",
    "measure_replay",
    "measure_sweep",
    "run_watchdog",
]

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_USAGE = 2

#: Test/CI hook: divide measured throughput by this factor (>1 slows).
_INJECT_ENV = "REPRO_WATCHDOG_INJECT_SLOWDOWN"


class WatchdogError(ReproError):
    """Unusable baseline or arguments (maps to ``EXIT_USAGE``)."""


@dataclass(frozen=True)
class BenchmarkCheck:
    """One benchmark's fresh-vs-baseline comparison."""

    benchmark: str
    workload: str
    baseline_eps: float
    measured_eps: float
    baseline_replay_s: float
    measured_replay_s: float

    @property
    def eps_ratio(self) -> float:
        """measured / baseline throughput; <1 means slower than baseline."""
        return self.measured_eps / self.baseline_eps if self.baseline_eps else 0.0

    def regressed(self, tolerance: float) -> bool:
        return self.eps_ratio < 1.0 - tolerance


@dataclass(frozen=True)
class SweepCheck:
    """Batched-sweep speedup vs the ``sweep_batched`` baseline entry.

    Warn-only: the batched and per-config paths are bit-identical, so
    this only watches whether
    the one-pass kernel keeps paying for itself — a slowdown is worth a
    look, never worth failing a throughput gate over.
    """

    benchmark: str
    workload: str
    configs: int
    baseline_speedup: float
    measured_speedup: float

    #: Acceptance bound: an N-config sweep must beat per-config replay
    #: by at least this factor on the standard 8-config grid.
    MIN_SPEEDUP = 3.0

    @property
    def warnings(self) -> list[str]:
        out = []
        if self.measured_speedup < self.MIN_SPEEDUP:
            out.append(
                f"speedup {self.measured_speedup:.2f}x < bound "
                f"{self.MIN_SPEEDUP:.0f}x"
            )
        elif self.measured_speedup < self.baseline_speedup * 0.8:
            out.append(
                f"speedup drifted {self.baseline_speedup:.2f}x -> "
                f"{self.measured_speedup:.2f}x"
            )
        return out


@dataclass
class WatchdogReport:
    """Everything one watchdog invocation decided, renderable as a diff."""

    baseline_path: Path
    tolerance: float
    rounds: int
    checks: list[BenchmarkCheck] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    injected_slowdown: float = 1.0
    sweep_checks: list[SweepCheck] = field(default_factory=list)

    @property
    def regressions(self) -> list[BenchmarkCheck]:
        return [c for c in self.checks if c.regressed(self.tolerance)]

    @property
    def ok(self) -> bool:
        return not self.regressions

    @property
    def exit_code(self) -> int:
        return EXIT_OK if self.ok else EXIT_REGRESSION

    def to_dict(self) -> dict[str, Any]:
        """The machine-readable report for ``repro watchdog --json``."""
        from dataclasses import asdict

        return {
            "baseline": str(self.baseline_path),
            "tolerance": self.tolerance,
            "rounds": self.rounds,
            "injected_slowdown": self.injected_slowdown,
            "ok": self.ok,
            "exit_code": self.exit_code,
            "checks": [
                {
                    **asdict(c),
                    "eps_ratio": c.eps_ratio,
                    "regressed": c.regressed(self.tolerance),
                }
                for c in self.checks
            ],
            "skipped": list(self.skipped),
            "sweep_checks": [
                {**asdict(c), "warnings": c.warnings} for c in self.sweep_checks
            ],
        }

    def render(self) -> str:
        """The human-readable diff the CLI prints."""
        lines = [
            f"watchdog: baseline {self.baseline_path} "
            f"(tolerance {self.tolerance:.0%}, best of {self.rounds})"
        ]
        if self.injected_slowdown != 1.0:
            lines.append(
                f"watchdog: injected slowdown x{self.injected_slowdown:g} "
                f"({_INJECT_ENV})"
            )
        header = (
            f"  {'benchmark':<16} {'baseline ev/s':>14} {'measured ev/s':>14} "
            f"{'ratio':>7} {'replay s (base/now)':>21}  verdict"
        )
        lines.append(header)
        for c in self.checks:
            verdict = "REGRESSED" if c.regressed(self.tolerance) else "ok"
            lines.append(
                f"  {c.benchmark:<16} {c.baseline_eps:>14,.0f} "
                f"{c.measured_eps:>14,.0f} {c.eps_ratio:>6.2f}x "
                f"{c.baseline_replay_s:>10.4f}/{c.measured_replay_s:<10.4f} {verdict}"
            )
        for name in self.skipped:
            lines.append(f"  {name:<16} (not in baseline; skipped)")
        n_reg = len(self.regressions)
        if n_reg:
            worst = min(self.checks, key=lambda c: c.eps_ratio)
            lines.append(
                f"watchdog: {n_reg}/{len(self.checks)} benchmark(s) below "
                f"{1.0 - self.tolerance:.2f}x of baseline "
                f"(worst: {worst.benchmark} at {worst.eps_ratio:.2f}x)"
            )
        else:
            lines.append(
                f"watchdog: all {len(self.checks)} benchmark(s) within tolerance"
            )
        if self.sweep_checks:
            lines.append(f"sweep: baseline {self.baseline_path} (warn-only)")
            lines.append(
                f"  {'benchmark':<16} {'configs':>7} "
                f"{'speedup (base/now)':>19}  verdict"
            )
            warned = 0
            for wc in self.sweep_checks:
                warns = wc.warnings
                warned += bool(warns)
                verdict = "; ".join(warns) if warns else "ok"
                speeds = f"{wc.baseline_speedup:.2f}x/{wc.measured_speedup:.2f}x"
                lines.append(
                    f"  {wc.benchmark:<16} {wc.configs:>7} {speeds:>19}  {verdict}"
                )
            lines.append(
                f"sweep: {warned}/{len(self.sweep_checks)} sweep(s) "
                f"drifted (warn-only, does not gate)"
                if warned
                else f"sweep: all {len(self.sweep_checks)} sweep(s) stable"
            )
        return "\n".join(lines)


def load_baseline(path: str | Path) -> dict[str, Any]:
    """Parse a watchdog baseline; raises :class:`WatchdogError`.

    ``path`` is a ``BENCH_machine.json`` file, or a run-ledger directory
    whose last five non-failed runs give a rolling-median baseline of
    the same shape.  Any way it can be unusable — missing, unreadable,
    not JSON, wrong schema, empty of per-benchmark rows, a malformed
    ``sweep_batched`` entry, a ledger without replay throughput — maps
    to the same exception so the CLI can report one line and exit
    ``EXIT_USAGE``.
    """
    path = Path(path)
    if path.is_dir():
        from .ledger import LedgerError, RunLedger, ledger_baseline

        try:
            return ledger_baseline(RunLedger(path))
        except LedgerError as exc:
            raise WatchdogError(str(exc)) from exc
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise WatchdogError(f"baseline {path}: {exc.strerror or exc}") from exc
    try:
        data = json.loads(raw)
    except ValueError as exc:
        raise WatchdogError(f"baseline {path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict) or data.get("schema") != 1:
        raise WatchdogError(
            f"baseline {path}: unsupported schema {data.get('schema')!r}"
            if isinstance(data, dict)
            else f"baseline {path}: expected a JSON object"
        )
    benches = data.get("benchmarks")
    if not isinstance(benches, dict) or not benches:
        raise WatchdogError(f"baseline {path}: no per-benchmark rows")
    for bid, row in benches.items():
        if "events_per_sec" not in row:
            raise WatchdogError(f"baseline {path}: {bid} has no events_per_sec")
    sweep = data.get("sweep_batched")
    if sweep is not None:
        for key in ("benchmark", "configs", "speedup"):
            if not isinstance(sweep, dict) or key not in sweep:
                raise WatchdogError(f"baseline {path}: sweep_batched has no {key}")
    return data


def measure_sweep(
    benchmark_id: str,
    workload_name: str | None = None,
    *,
    grid: "Any | None" = None,
    rounds: int = 3,
) -> tuple[str, int, float]:
    """Capture once, time batched vs per-config replay over a grid.

    Returns ``(workload_name, n_configs, speedup)`` where ``speedup``
    is best-of-``rounds`` per-config wall time divided by
    best-of-``rounds`` batched wall time for the same config set
    (:func:`~repro.core.sweep.default_sweep_grid` unless ``grid`` is
    given).  Both paths produce bit-identical profiles; only the clock
    differs.
    """
    import time

    from ..machine.batch import replay_capture_batched
    from ..machine.capture import capture_execution, replay_capture
    from .registry import get_benchmark, refrate_workload
    from .sweep import default_sweep_grid

    workload = refrate_workload(benchmark_id, workload_name)
    machines = list((grid or default_sweep_grid()).machines)
    capture = capture_execution(get_benchmark(benchmark_id), workload)
    best_single = best_batched = None
    for _ in range(max(1, rounds)):
        t0 = time.perf_counter()
        for m in machines:
            replay_capture(capture, machine=m)
        single_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        replay_capture_batched(capture, machines)
        batched_s = time.perf_counter() - t0
        best_single = single_s if best_single is None else min(best_single, single_s)
        best_batched = batched_s if best_batched is None else min(best_batched, batched_s)
    assert best_single is not None and best_batched is not None
    return workload.name, len(machines), best_single / best_batched


def measure_replay(
    benchmark_id: str,
    workload_name: str | None = None,
    *,
    rounds: int = 3,
) -> tuple[str, int, int, float]:
    """Capture once, replay best-of-``rounds``.

    Returns ``(workload_name, events, best_replay_ns, events_per_sec)``.
    Each round replays under a fresh registry collector and reads the
    ``repro_replay_*`` counters back out of it, so the watchdog measures
    the same numbers the Prometheus exporter publishes.
    """
    from ..machine.capture import capture_execution, replay_capture
    from .registry import get_benchmark, refrate_workload

    workload = refrate_workload(benchmark_id, workload_name)
    capture = capture_execution(get_benchmark(benchmark_id), workload)
    best_ns: int | None = None
    for _ in range(max(1, rounds)):
        reg = metrics.MetricsRegistry()
        with metrics.collector(reg):
            replay_capture(capture)
        ns = reg.value(metrics.REPLAY_NS_TOTAL, benchmark=benchmark_id)
        assert isinstance(ns, int)
        best_ns = ns if best_ns is None else min(best_ns, ns)
    assert best_ns is not None
    eps = capture.n_events / (best_ns / 1e9)
    return workload.name, capture.n_events, best_ns, eps


def _injected_slowdown() -> float:
    raw = os.environ.get(_INJECT_ENV, "").strip()
    if not raw:
        return 1.0
    try:
        factor = float(raw)
    except ValueError as exc:
        raise WatchdogError(f"{_INJECT_ENV}={raw!r}: not a number") from exc
    if factor <= 0:
        raise WatchdogError(f"{_INJECT_ENV}={raw!r}: must be > 0")
    return factor


def run_watchdog(
    baseline_path: str | Path,
    benchmarks: "list[str] | None" = None,
    *,
    tolerance: float = 0.25,
    rounds: int = 3,
) -> WatchdogReport:
    """Measure and compare; raises :class:`WatchdogError` on usage problems.

    ``baseline_path`` is anything :func:`load_baseline` reads.
    ``benchmarks=None`` checks every benchmark in the baseline.  Named
    benchmarks missing from the baseline are listed as skipped rather
    than failing the gate — a new benchmark has no number to regress
    against.  The gate is one-sided: a run faster than its baseline
    never counts as a regression.  A ``sweep_batched`` entry in the
    baseline adds a warn-only batched-sweep speedup check whose drift
    never flips the exit code.
    """
    if not 0.0 <= tolerance < 1.0:
        raise WatchdogError(f"tolerance {tolerance} must be in [0, 1)")
    if rounds < 1:
        raise WatchdogError(f"rounds {rounds} must be >= 1")
    baseline = load_baseline(baseline_path)
    rows: Mapping[str, Any] = baseline["benchmarks"]
    ids = list(rows) if benchmarks is None else list(benchmarks)
    slowdown = _injected_slowdown()
    report = WatchdogReport(
        baseline_path=Path(baseline_path),
        tolerance=tolerance,
        rounds=rounds,
        injected_slowdown=slowdown,
    )
    for bid in ids:
        row = rows.get(bid)
        if row is None:
            report.skipped.append(bid)
            continue
        workload, _events, best_ns, eps = measure_replay(
            bid, row.get("workload"), rounds=rounds
        )
        report.checks.append(
            BenchmarkCheck(
                benchmark=bid,
                workload=workload,
                baseline_eps=float(row["events_per_sec"]),
                measured_eps=eps / slowdown,
                baseline_replay_s=float(row.get("replay_seconds", 0.0)),
                measured_replay_s=best_ns / 1e9 * slowdown,
            )
        )
    if not report.checks:
        raise WatchdogError(
            f"baseline {baseline_path}: none of {ids} present in baseline"
        )
    sweep = baseline.get("sweep_batched")
    if sweep is not None:
        workload, n_configs, speedup = measure_sweep(
            sweep["benchmark"], sweep.get("workload"), rounds=rounds
        )
        report.sweep_checks.append(
            SweepCheck(
                benchmark=sweep["benchmark"],
                workload=workload,
                configs=n_configs,
                baseline_speedup=float(sweep["speedup"]),
                measured_speedup=speedup,
            )
        )
    return report
