"""Execution profiler: runs a benchmark on a workload under the machine model.

This is the harness's equivalent of running a SPEC binary under perf:
it executes and verifies the mini-benchmark (real algorithmic work in
Python) through :func:`~repro.machine.capture.run_probed`, the same
body the pipeline's capture stage runs, and evaluates the cost model
on the probe's telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.coverage import CoverageProfile
from ..core.topdown import TopDownVector
from ..core.workload import Workload
from .capture import run_probed
from .cost import CostModel, MachineConfig, MachineReport

__all__ = ["ExecutionProfile", "run_benchmark", "Profiler"]


@dataclass(frozen=True)
class ExecutionProfile:
    """The full observation of one (benchmark, workload) execution."""

    benchmark: str
    workload: str
    report: MachineReport
    output: Any
    verified: bool

    @property
    def topdown(self) -> TopDownVector:
        return self.report.topdown

    @property
    def coverage(self) -> CoverageProfile:
        return self.report.coverage

    @property
    def seconds(self) -> float:
        return self.report.seconds

    @property
    def cycles(self) -> float:
        return self.report.cycles


class Profiler:
    """Runs benchmarks under a fixed machine configuration."""

    def __init__(self, config: MachineConfig | None = None):
        self.config = config or MachineConfig()
        self._cost_model = CostModel(self.config)

    def run(self, benchmark: Any, workload: Workload, *, verify: bool = True) -> ExecutionProfile:
        """Execute ``benchmark`` on ``workload`` and profile it.

        ``benchmark`` must implement the
        :class:`~repro.benchmarks.base.Benchmark` protocol.  When
        ``verify`` is true the benchmark's own output check runs and a
        failure raises :class:`~repro.core.errors.VerificationError` —
        mirroring SPEC's output validation step, which treats a
        miscompare as a failed run.
        """
        probe, output, verified = run_probed(benchmark, workload, verify=verify)
        return ExecutionProfile(
            benchmark=benchmark.name,
            workload=workload.name,
            report=self._cost_model.evaluate(probe),
            output=output,
            verified=verified,
        )


def run_benchmark(
    benchmark: Any,
    workload: Workload,
    config: MachineConfig | None = None,
) -> ExecutionProfile:
    """One-shot convenience wrapper around :class:`Profiler`."""
    return Profiler(config).run(benchmark, workload)
