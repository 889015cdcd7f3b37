"""FDO evaluation methodologies (Sections II and VII of the paper).

Two evaluation protocols are implemented side by side:

* :func:`single_workload_methodology` — the criticized literature
  standard: profile once on the SPEC *train* workload, recompile,
  measure once on *refrate*, report that single speedup;
* :func:`cross_validate` — the Berube-style protocol the Alberta
  Workloads enable: for every training workload, evaluate the
  FDO-optimized binary on every *other* workload; report the full
  speedup distribution.  Optionally a *combined profile* merges all
  training runs first.

Speedup is baseline simulated seconds / FDO simulated seconds, both
under the same machine configuration — enforced:
:func:`evaluate_pair` raises
:class:`~repro.core.errors.MachineMismatch` when the training profile
was collected under a different :class:`MachineConfig` than the
evaluation replays.

Everything here runs through the staged
:class:`~repro.core.run.Session` pipeline: each workload's benchmark
executes **once** (the capture stage) and every baseline/FDO
measurement is a replay of that capture.  The historical
cross-validation cost of ``W + 2·W·(W-1)`` executions collapses to
``W`` executions plus cheap replays; pass a shared ``session`` to
reuse captures (and any attached artifact store) across calls.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from ..core.errors import MachineMismatch, RegistrationError, StudyError
from ..core.run import ReplayRequest, Session
from ..core.registry import REGISTRY
from ..core.workload import Workload, WorkloadSet
from ..machine.cost import MachineConfig
from .optimizer import FdoBuild
from .profile_data import FdoProfile, collect_profile, merge_profiles

__all__ = [
    "FdoResult",
    "CrossValidationResult",
    "train_profile",
    "evaluate_pair",
    "single_workload_methodology",
    "cross_validate",
]


@dataclass(frozen=True)
class FdoResult:
    """One (train workload, eval workload) FDO measurement."""

    benchmark: str
    train_workload: str
    eval_workload: str
    baseline_seconds: float
    fdo_seconds: float

    @property
    def speedup(self) -> float:
        return self.baseline_seconds / self.fdo_seconds


@dataclass
class CrossValidationResult:
    """The speedup distribution from cross-validated FDO evaluation."""

    benchmark: str
    results: list[FdoResult] = field(default_factory=list)

    @property
    def speedups(self) -> list[float]:
        return [r.speedup for r in self.results]

    def summary(self) -> dict[str, float]:
        sp = self.speedups
        return {
            "n": len(sp),
            "mean": statistics.fmean(sp),
            "min": min(sp),
            "max": max(sp),
            "stdev": statistics.stdev(sp) if len(sp) > 1 else 0.0,
            "n_regressions": sum(1 for s in sp if s < 1.0),
        }


def _resolve_build(build: "str | object", profile: FdoProfile) -> object:
    """A replay build from a registered ``fdo_build`` name or live object.

    A string goes through the registry — plugin-registered builds
    (:func:`~repro.core.registry.register_fdo_build`) resolve exactly
    like the built-in ``"fdo"``; an unknown name raises
    :class:`~repro.core.errors.UnknownScenarioError` with near-miss
    suggestions.  Anything else is assumed to already satisfy the build
    protocol (``name``, ``digest()``, ``cost_model(machine)``) and is
    returned untouched.
    """
    if not isinstance(build, str):
        return build
    descriptor = REGISTRY.get("fdo_build", build)
    if descriptor.factory is None:
        raise RegistrationError(
            f"fdo_build {build!r} was registered without a factory"
        )
    return descriptor.factory(profile)


def _effective_machine(
    machine: MachineConfig | None, session: Session
) -> MachineConfig | None:
    """The config replays run under: explicit arg, else the session's."""
    return machine if machine is not None else session.engine.machine


def train_profile(
    benchmark_id: str,
    workload: Workload,
    machine: MachineConfig | None = None,
    *,
    session: Session | None = None,
) -> FdoProfile:
    """Instrumented training run -> FDO profile.

    One capture (reused if the session already holds it) plus one
    baseline replay for the coverage weights.  The profile is stamped
    with the (normalized) machine config it was trained under.
    """
    own = session is None
    if own:
        session = Session(machine=machine)
    try:
        m = _effective_machine(machine, session)
        capture = session.capture(benchmark_id, workload)
        execution = session.replay(capture, ReplayRequest(workload=workload, machine=m))
        return collect_profile(
            execution, capture.methods, machine=m or MachineConfig()
        )
    finally:
        if own:
            session.close()


def evaluate_pair(
    benchmark_id: str,
    train_workload: Workload,
    eval_workload: Workload,
    *,
    machine: MachineConfig | None = None,
    profile: FdoProfile | None = None,
    build: "str | object" = "fdo",
    session: Session | None = None,
) -> FdoResult:
    """Train on one workload (or use ``profile``), evaluate on another.

    Both measurements replay the same captured execution of
    ``eval_workload`` — the baseline through the plain cost model, the
    FDO run through the ``build``: a registered ``fdo_build`` name (the
    default ``"fdo"`` resolves to
    :class:`~repro.fdo.optimizer.FdoBuild`; plugins register their own
    via :func:`~repro.core.registry.register_fdo_build`) or a live
    build object.  The build's ``digest()`` and its module's source join
    the replay cache key, and the digest the session ledger's ``builds``
    map, so differently-built profiles never collide.  A ``profile``
    trained under a different machine configuration than the evaluation
    raises :class:`~repro.core.errors.MachineMismatch`
    (``None``-vs-default configs are normalized, not rejected).
    """
    own = session is None
    if own:
        session = Session(machine=machine)
    try:
        m = _effective_machine(machine, session)
        if profile is not None and profile.machine is not None:
            if profile.machine != (m or MachineConfig()):
                raise MachineMismatch(
                    f"evaluate_pair: profile for {profile.benchmark} was "
                    f"trained under a different machine configuration than "
                    f"the evaluation"
                )
        if profile is None:
            profile = train_profile(
                benchmark_id, train_workload, m, session=session
            )
        capture = session.capture(benchmark_id, eval_workload)
        baseline = session.replay(
            capture, ReplayRequest(workload=eval_workload, machine=m)
        )
        fdo = session.replay(
            capture,
            ReplayRequest(
                workload=eval_workload,
                build=_resolve_build(build, profile),
                machine=m,
            ),
        )
        return FdoResult(
            benchmark=benchmark_id,
            train_workload=",".join(profile.training_workloads),
            eval_workload=eval_workload.name,
            baseline_seconds=baseline.report.seconds,
            fdo_seconds=fdo.report.seconds,
        )
    finally:
        if own:
            session.close()


def single_workload_methodology(
    benchmark_id: str,
    workloads: WorkloadSet | None = None,
    *,
    machine: MachineConfig | None = None,
    session: Session | None = None,
) -> FdoResult:
    """The criticized protocol: train on .train, evaluate on .refrate.

    The Alberta set's members come from the session's engine, so with a
    store attached a warm call generates nothing.
    """
    own = session is None
    if own:
        session = Session(machine=machine)
    try:
        if workloads is None:
            workloads = session.engine.alberta_members(benchmark_id, 0)
        train = next(w for w in workloads if w.name.endswith(".train"))
        ref = next(w for w in workloads if w.name.endswith(".refrate"))
        return evaluate_pair(benchmark_id, train, ref, machine=machine, session=session)
    finally:
        if own:
            session.close()


def cross_validate(
    benchmark_id: str,
    workloads: WorkloadSet | None = None,
    *,
    machine: MachineConfig | None = None,
    combined: bool = False,
    max_workloads: int | None = None,
    session: Session | None = None,
) -> CrossValidationResult:
    """Leave-one-out FDO evaluation over a workload set.

    With ``combined=True`` a single merged profile from all training
    workloads is evaluated on every workload instead (Berube's
    combined-profiling methodology).

    Staged execution: the ``W`` workloads are captured once (one
    engine pass, parallel under a multi-worker session), training
    profiles and baselines come from one replay per workload, and
    every FDO measurement replays the target's capture under the
    train-profile build — ``W`` executions total where the old private
    loop ran the benchmark ``W + 2·W·(W-1)`` times.
    """
    own = session is None
    if own:
        session = Session(machine=machine)
    try:
        if max_workloads is not None and max_workloads < 2:
            raise StudyError(
                f"cross_validate: max_workloads must be at least 2, got {max_workloads}"
            )
        if workloads is None:
            workloads = session.engine.alberta_members(benchmark_id, 0)
        wl = list(workloads)
        if max_workloads is not None:
            wl = wl[:max_workloads]
        if len(wl) < 2:
            raise StudyError("cross_validate: need at least two workloads")

        m = _effective_machine(machine, session)
        captures = session.capture_set(benchmark_id, wl)
        baselines = [
            session.replay(cap, ReplayRequest(workload=w, machine=m))
            for cap, w in zip(captures, wl)
        ]
        profiles = [
            collect_profile(ex, cap.methods, machine=m or MachineConfig())
            for ex, cap in zip(baselines, captures)
        ]

        result = CrossValidationResult(benchmark=benchmark_id)
        if combined:
            build = FdoBuild(merge_profiles(profiles))
            for cap, base, target in zip(captures, baselines, wl):
                fdo = session.replay(
                    cap, ReplayRequest(workload=target, build=build, machine=m)
                )
                result.results.append(
                    FdoResult(
                        benchmark=benchmark_id,
                        train_workload=",".join(build.profile.training_workloads),
                        eval_workload=target.name,
                        baseline_seconds=base.report.seconds,
                        fdo_seconds=fdo.report.seconds,
                    )
                )
            return result

        for ti, train in enumerate(wl):
            build = FdoBuild(profiles[ti])
            for ei, target in enumerate(wl):
                if ei == ti:
                    continue
                fdo = session.replay(
                    captures[ei],
                    ReplayRequest(workload=target, build=build, machine=m),
                )
                result.results.append(
                    FdoResult(
                        benchmark=benchmark_id,
                        train_workload=",".join(profiles[ti].training_workloads),
                        eval_workload=target.name,
                        baseline_seconds=baselines[ei].report.seconds,
                        fdo_seconds=fdo.report.seconds,
                    )
                )
        return result
    finally:
        if own:
            session.close()
