"""Replaying a capture, under one machine config or N in one pass.

Both entry points run the machine model's one replay,
:func:`~repro.machine.cost.replay_columns`, straight on the capture's
columns and counters — the capture is frozen and the replay only reads
it, so no probe is built and no column is copied:

* :func:`replay_capture` — one config, or one build's cost model.  A
  build's model (e.g. the FDO build's
  :class:`~repro.fdo.optimizer.FdoCostModel`) gets a freshly
  materialized probe instead, because it mutates the probe it
  evaluates (layout decisions rewrite per-method counters, branch
  hints rewrite the event stream).
* :func:`replay_capture_batched` — a sweep's N configs in one pass
  over the columns.  Configs that share a predictor signature or a
  cache level share that work (see :mod:`repro.machine.cost`), and
  each profile is bit-identical to ``replay_capture(capture,
  machine=cfg)``; ``tests/test_sweep_api.py`` asserts this.

Both record replay volume and wall time in the metrics registry.
They live here, not in :mod:`repro.machine.capture`: that module's
source is part of every capture's key, and a replay edit must re-key
profiles only.  The engine's use of the two is documented in
DESIGN.md §13.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from ..core import metrics
from .cost import CostModel, MachineConfig, MachineReport, replay_columns
from .profiler import ExecutionProfile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .capture import TelemetryCapture

__all__ = ["replay_capture", "replay_capture_batched"]


def _profile(capture: "TelemetryCapture", report: MachineReport) -> ExecutionProfile:
    return ExecutionProfile(
        benchmark=capture.benchmark,
        workload=capture.workload,
        report=report,
        output=None,
        verified=capture.verified,
    )


def _record(capture: "TelemetryCapture", replayed: int, t0: int) -> None:
    """Record ``replayed`` events of ``capture`` replayed since ``t0``."""
    elapsed_ns = max(1, time.perf_counter_ns() - t0)
    metrics.inc(metrics.REPLAY_EVENTS_TOTAL, replayed, benchmark=capture.benchmark)
    metrics.inc(metrics.REPLAY_NS_TOTAL, elapsed_ns, benchmark=capture.benchmark)
    metrics.observe(
        metrics.REPLAY_EPS, replayed / (elapsed_ns / 1e9), benchmark=capture.benchmark
    )


def replay_capture(
    capture: "TelemetryCapture",
    *,
    machine: MachineConfig | None = None,
    cost_model: CostModel | None = None,
) -> ExecutionProfile:
    """Replay a capture under a machine model, without re-executing.

    Pass ``machine`` for a baseline replay, or ``cost_model`` for a
    build-specific model (e.g. the FDO build's
    :class:`~repro.fdo.optimizer.FdoCostModel`).  The profile carries
    ``output=None`` — same as pool workers and cache hits, the replay
    stage never sees the benchmark output.
    """
    t0 = time.perf_counter_ns()
    if cost_model is None:
        (report,) = replay_columns(
            [machine if machine is not None else MachineConfig()],
            capture.methods,
            capture.columns,
            capture.sampling_stride,
        )
    else:
        report = cost_model.evaluate(capture.materialize())
    _record(capture, capture.n_events, t0)
    return _profile(capture, report)


def replay_capture_batched(
    capture: "TelemetryCapture",
    machines: "list[MachineConfig | None]",
) -> list[ExecutionProfile]:
    """Replay one capture under N machine configs in a single pass.

    Returns one :class:`ExecutionProfile` per entry of ``machines``
    (``None`` entries mean the default config), each bit-identical to
    ``replay_capture(capture, machine=cfg)``.  FDO-build replays go
    through :func:`replay_capture` one build at a time.
    """
    cfgs = [m if m is not None else MachineConfig() for m in machines]
    t0 = time.perf_counter_ns()
    reports = replay_columns(
        cfgs, capture.methods, capture.columns, capture.sampling_stride
    )
    _record(capture, capture.n_events * len(cfgs), t0)
    return [_profile(capture, report) for report in reports]
