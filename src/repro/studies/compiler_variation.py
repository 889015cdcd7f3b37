"""Compiler-variation study (Section V of the paper).

    "The Alberta Workloads are distributed with ... a study of the
    variation in branch prediction, cache/TLB performance, and
    execution time when different compilers, with different levels of
    optimization, are used."

Our substrate's "compilers" are build configurations of the machine
model: the **baseline** build, and an **FDO** build recompiled with a
profile from the SPEC train workload (the realistic deployment).  For
``502.gcc_r`` the benchmark itself also exposes a true optimization
level (O0 vs O2 workload variants).  This module measures, per
workload and per build: branch-misprediction rate, L1D/L2 miss rates,
DTLB miss rate, and simulated execution time — the same counters the
paper's distributed study covers.

The study is a pure consumer of the staged pipeline: each workload is
captured once through :class:`~repro.core.run.Session` and both builds
are *replays* of that capture — the benchmark never executes twice for
the same workload, and a warm artifact store skips execution entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.run import ReplayRequest, Session
from ..core.workload import WorkloadSet
from ..fdo.evaluation import train_profile
from ..fdo.optimizer import FdoBuild
from ..machine.cost import MachineConfig, MachineReport

__all__ = ["BuildObservation", "compiler_variation", "variation_table"]


@dataclass(frozen=True)
class BuildObservation:
    """One (workload, build) measurement of the paper's counters."""

    workload: str
    build: str
    branch_misprediction_rate: float
    l1d_miss_rate: float
    l2_miss_rate: float
    dtlb_miss_rate: float
    seconds: float


def _observe(workload_name: str, build: str, report: MachineReport) -> BuildObservation:
    stats = report.cache_stats
    l1d = stats.l1d_misses / stats.l1d_accesses if stats.l1d_accesses else 0.0
    l2 = stats.l2_misses / stats.l2_accesses if stats.l2_accesses else 0.0
    dtlb = stats.dtlb_misses / max(1, stats.l1d_accesses)
    return BuildObservation(
        workload=workload_name,
        build=build,
        branch_misprediction_rate=report.branch_misprediction_rate,
        l1d_miss_rate=l1d,
        l2_miss_rate=l2,
        dtlb_miss_rate=dtlb,
        seconds=report.seconds,
    )


def compiler_variation(
    benchmark_id: str,
    *,
    workloads: WorkloadSet | None = None,
    machine: MachineConfig | None = None,
    max_workloads: int | None = 6,
    session: Session | None = None,
) -> list[BuildObservation]:
    """Measure every workload under the baseline and FDO builds.

    Stage economics: ``len(wl)`` captures (the train workload's capture
    is shared with :func:`~repro.fdo.evaluation.train_profile`), then
    two replays per workload — one per build.
    """
    own = session is None
    if own:
        session = Session(machine=machine)
    try:
        if workloads is None:
            workloads = session.engine.alberta_members(benchmark_id, 0)
        wl = list(workloads)
        if max_workloads is not None:
            wl = wl[:max_workloads]

        m = machine if machine is not None else session.engine.machine
        train = next((w for w in wl if w.name.endswith(".train")), wl[0])
        profile = train_profile(benchmark_id, train, m, session=session)
        build = FdoBuild(profile, name="fdo-train")

        captures = session.capture_set(benchmark_id, wl)
        observations: list[BuildObservation] = []
        for workload, capture in zip(wl, captures):
            base = session.replay(capture, ReplayRequest(workload=workload, machine=m))
            fdo = session.replay(
                capture, ReplayRequest(workload=workload, build=build, machine=m)
            )
            observations.append(_observe(workload.name, "baseline", base.report))
            observations.append(_observe(workload.name, "fdo-train", fdo.report))
        return observations
    finally:
        if own:
            session.close()


def variation_table(observations: list[BuildObservation]) -> str:
    """Fixed-width rendering of the study, grouped by workload."""
    header = (
        f"{'workload':<34} {'build':<10} {'br-miss':>8} {'L1D-miss':>9} "
        f"{'L2-miss':>8} {'DTLB':>7} {'time(s)':>10}"
    )
    lines = [header, "-" * len(header)]
    for obs in observations:
        lines.append(
            f"{obs.workload:<34} {obs.build:<10} "
            f"{obs.branch_misprediction_rate * 100:>7.2f}% "
            f"{obs.l1d_miss_rate * 100:>8.2f}% "
            f"{obs.l2_miss_rate * 100:>7.2f}% "
            f"{obs.dtlb_miss_rate * 100:>6.2f}% "
            f"{obs.seconds:>10.6f}"
        )
    return "\n".join(lines)
