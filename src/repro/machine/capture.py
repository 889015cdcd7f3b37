"""Execution and the capture stage of the characterization pipeline.

:func:`run_probed` is the one place a benchmark executes: it runs the
benchmark on a workload under a fresh
:class:`~repro.machine.telemetry.Probe` and verifies the output.  Its
two callers differ in what they keep:

* :func:`capture_execution` (the pipeline's *capture* stage) snapshots
  everything the cost model will ever read into a
  :class:`TelemetryCapture`.  The capture is *machine-independent*: it
  depends only on (benchmark, workload, capture code), never on a
  :class:`~repro.machine.cost.MachineConfig`.
* :meth:`~repro.machine.profiler.Profiler.run` evaluates the probe
  under its own cost model and keeps the benchmark output, which a
  capture drops.

The *replay* stage (:func:`~repro.machine.batch.replay_capture` and
:func:`~repro.machine.batch.replay_capture_batched`) runs the cost
model on a capture's columns under any machine config.  Replays of the
same capture are bit-identical to evaluating the original probe,
because the capture copies the exact columns, per-method counters, and
decimation state the probe held at the end of the run.

A machine-config or FDO-build sweep therefore executes each benchmark
once and replays the captured stream N times — the separation
SimPoint-style workflows rest on.  A build's cost model gets its *own*
probe per replay (:meth:`TelemetryCapture.materialize`): the FDO cost
model mutates the probe it evaluates (layout decisions rewrite
per-method counters, branch hints rewrite the event stream), so
replays must never share one.

This module is one of the capture modules whose source keys every
stored capture (``CAPTURE_MODULES`` in :mod:`repro.core.cache`), so no
replay code lives here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

import numpy as np

from ..core import metrics
from ..core.errors import VerificationError, WorkloadError
from .telemetry import MethodCounters, Probe

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.workload import Workload

__all__ = ["TelemetryCapture", "capture_execution", "run_probed"]


def _copy_counters(mc: MethodCounters) -> MethodCounters:
    """A deep-enough copy: all scalar fields plus a fresh ``extra`` dict."""
    return replace(mc, extra=dict(mc.extra))


@dataclass(frozen=True)
class TelemetryCapture:
    """Everything the cost model reads from one benchmark execution.

    The machine-independent artifact of the capture stage: exact
    per-method counters, the four sampled event columns, and the
    decimation state (``sampling_stride``, ``event_cap``, ``tick``).
    Captures are immutable and reusable: a baseline replay only reads
    the columns and counters, and :meth:`materialize` builds a fresh
    probe for each replay through a mutating cost model (FDO), so
    nothing can corrupt the capture.
    """

    benchmark: str
    workload: str
    methods: tuple[MethodCounters, ...]
    columns: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    sampling_stride: int
    event_cap: int
    tick: int
    verified: bool = True

    @property
    def n_events(self) -> int:
        return len(self.columns[0])

    @classmethod
    def from_probe(
        cls,
        benchmark: str,
        workload: str,
        probe: Probe,
        *,
        verified: bool = True,
    ) -> "TelemetryCapture":
        """Snapshot a probe after its benchmark run finished.

        ``EventStream.columns()`` already returns copies, and the
        method counters are copied here, so the capture stays frozen
        even if the probe keeps recording.
        """
        return cls(
            benchmark=benchmark,
            workload=workload,
            methods=tuple(_copy_counters(mc) for mc in probe.methods()),
            columns=probe.events.columns(),
            sampling_stride=probe.sampling_stride,
            event_cap=probe._event_cap,
            tick=probe._tick,
            verified=verified,
        )

    def materialize(self) -> Probe:
        """A fresh probe holding exactly this capture's end-of-run state.

        Evaluating the returned probe is bit-identical to evaluating
        the probe the benchmark originally ran under: same method
        counters (including registration order and ``extra``), same
        event columns, same sampling stride and cap.
        """
        probe = Probe(event_cap=self.event_cap)
        for mc in self.methods:
            clone = _copy_counters(mc)
            probe._methods[clone.name] = clone
            probe._by_index.append(clone)
        probe.replace_events_columns(*self.columns)
        probe._keep_every = self.sampling_stride
        probe._tick = self.tick
        return probe


def run_probed(
    benchmark: Any,
    workload: "Workload",
    *,
    verify: bool = True,
) -> tuple[Probe, Any, bool]:
    """Run one benchmark on one workload under a fresh probe.

    Returns the probe, the benchmark's output and whether the output
    was verified.  When ``verify`` is true a miscompare raises
    :class:`~repro.core.errors.VerificationError`, mirroring SPEC's
    validation step; a workload of another benchmark raises
    :class:`~repro.core.errors.WorkloadError` before anything runs.
    """
    if workload.benchmark != benchmark.name:
        raise WorkloadError(
            f"workload {workload.name!r} is for {workload.benchmark!r}, "
            f"not {benchmark.name!r}"
        )
    probe = Probe()
    output = benchmark.run(workload, probe)
    verified = True
    if verify:
        verified = bool(benchmark.verify(workload, output))
        if not verified:
            raise VerificationError(
                f"{benchmark.name}: output verification failed for "
                f"workload {workload.name!r}"
            )
    return probe, output, verified


def capture_execution(
    benchmark: Any,
    workload: "Workload",
    *,
    verify: bool = True,
) -> TelemetryCapture:
    """Run one benchmark on one workload and capture its telemetry.

    Executes and verifies through :func:`run_probed`, then snapshots
    the probe.  No cost model is consulted — that is the replay stage's
    job.
    """
    probe, _, verified = run_probed(benchmark, workload, verify=verify)
    capture = TelemetryCapture.from_probe(
        benchmark.name, workload.name, probe, verified=verified
    )
    metrics.inc(
        metrics.EVENTS_EMITTED_TOTAL, capture.n_events, benchmark=capture.benchmark
    )
    metrics.gauge_set(
        metrics.SAMPLING_STRIDE_MAX,
        capture.sampling_stride,
        benchmark=capture.benchmark,
    )
    return capture
