"""Frozen pre-port study implementations, for golden-equivalence tests.

These are verbatim copies of the private execution loops that
``studies/compiler_variation.py``, ``studies/similarity.py`` and
``fdo/evaluation.py`` used before they were ported onto the staged
``Session`` pipeline.  They run benchmarks directly through ``Probe``
and ``CostModel`` — exactly what the ported code must reproduce
byte-for-byte (serial, cache off).  Do not "improve" this module: its
whole value is that it does not change.
"""

from __future__ import annotations

import numpy as np

from repro.core.registry import alberta_workloads, get_benchmark
from repro.fdo.optimizer import FdoCostModel
from repro.fdo.profile_data import collect_profile, merge_profiles
from repro.machine.cost import CostModel
from repro.machine.profiler import ExecutionProfile
from repro.machine.telemetry import Probe
from repro.fdo.evaluation import CrossValidationResult, FdoResult
from repro.studies.compiler_variation import BuildObservation
from repro.studies.similarity import ProgramFeatures

# ----------------------------------------------------------- fdo/evaluation


def _legacy_run(benchmark, workload, cost_model):
    probe = Probe()
    output = benchmark.run(workload, probe)
    if not benchmark.verify(workload, output):
        raise ValueError(f"FDO evaluation: {workload.name} failed verification")
    report = cost_model.evaluate(probe)
    return report.seconds, probe


def legacy_train_profile(benchmark_id, workload, machine=None):
    benchmark = get_benchmark(benchmark_id)
    probe = Probe()
    output = benchmark.run(workload, probe)
    if not benchmark.verify(workload, output):
        raise ValueError(f"training run failed verification on {workload.name}")
    report = CostModel(machine).evaluate(probe)
    execution = ExecutionProfile(
        benchmark=benchmark_id,
        workload=workload.name,
        report=report,
        output=output,
        verified=True,
    )
    return collect_profile(execution, probe.methods())


def legacy_evaluate_pair(
    benchmark_id, train_workload, eval_workload, *, machine=None, profile=None
):
    benchmark = get_benchmark(benchmark_id)
    if profile is None:
        profile = legacy_train_profile(benchmark_id, train_workload, machine)
    baseline_seconds, _ = _legacy_run(benchmark, eval_workload, CostModel(machine))
    fdo_seconds, _ = _legacy_run(
        benchmark, eval_workload, FdoCostModel(profile, machine)
    )
    return FdoResult(
        benchmark=benchmark_id,
        train_workload=",".join(profile.training_workloads),
        eval_workload=eval_workload.name,
        baseline_seconds=baseline_seconds,
        fdo_seconds=fdo_seconds,
    )


def legacy_cross_validate(
    benchmark_id, workloads=None, *, machine=None, combined=False, max_workloads=None
):
    if workloads is None:
        workloads = alberta_workloads(benchmark_id)
    wl = list(workloads)
    if max_workloads is not None:
        wl = wl[:max_workloads]
    if len(wl) < 2:
        raise ValueError("cross_validate: need at least two workloads")

    result = CrossValidationResult(benchmark=benchmark_id)
    if combined:
        profiles = [legacy_train_profile(benchmark_id, w, machine) for w in wl]
        profile = merge_profiles(profiles)
        for target in wl:
            result.results.append(
                legacy_evaluate_pair(
                    benchmark_id, target, target, machine=machine, profile=profile
                )
            )
        return result

    for train in wl:
        profile = legacy_train_profile(benchmark_id, train, machine)
        for target in wl:
            if target.name == train.name:
                continue
            result.results.append(
                legacy_evaluate_pair(
                    benchmark_id, train, target, machine=machine, profile=profile
                )
            )
    return result


# ------------------------------------------------------ studies/similarity


def legacy_collect_features(benchmark_id, workload=None):
    benchmark = get_benchmark(benchmark_id)
    if workload is None:
        workloads = alberta_workloads(benchmark_id)
        workload = next(w for w in workloads if w.name.endswith(".refrate"))
    probe = Probe()
    benchmark.run(workload, probe)

    methods = probe.methods()
    int_ops = sum(m.int_ops for m in methods)
    fp_ops = sum(m.fp_ops for m in methods)
    fpdiv = sum(m.fpdiv_ops for m in methods)
    total_ops = max(1, int_ops + fp_ops + fpdiv)
    branches = sum(m.branches for m in methods)
    taken = sum(m.branches_taken for m in methods)
    loads = sum(m.loads for m in methods)
    stores = sum(m.stores for m in methods)
    accesses = max(1, loads + stores)
    calls = sum(m.calls for m in methods)

    _, ev_kind, ev_a, _ = probe.events.columns()
    n_lines = len(np.unique(ev_a[ev_kind == 1] >> 6))
    footprint = max(64, n_lines * 64)

    vector = np.array(
        [
            int_ops / total_ops,
            fp_ops / total_ops,
            fpdiv / total_ops,
            branches / max(1, total_ops + branches),
            taken / max(1, branches),
            loads / accesses,
            stores / accesses,
            float(np.log10(footprint)),
            accesses / total_ops,
            float(np.log10(max(2, len(methods)))),
            calls / max(1, total_ops) * 1000.0,
        ]
    )
    return ProgramFeatures(
        benchmark=benchmark_id, workload=workload.name, vector=vector
    )


# ---------------------------------------------- studies/compiler_variation


def _legacy_observe(benchmark, workload, cost_model, build):
    probe = Probe()
    output = benchmark.run(workload, probe)
    if not benchmark.verify(workload, output):
        raise ValueError(f"{workload.name} failed verification under build {build!r}")
    report = cost_model.evaluate(probe)
    stats = report.cache_stats
    l1d = stats.l1d_misses / stats.l1d_accesses if stats.l1d_accesses else 0.0
    l2 = stats.l2_misses / stats.l2_accesses if stats.l2_accesses else 0.0
    dtlb = stats.dtlb_misses / max(1, stats.l1d_accesses)
    return BuildObservation(
        workload=workload.name,
        build=build,
        branch_misprediction_rate=report.branch_misprediction_rate,
        l1d_miss_rate=l1d,
        l2_miss_rate=l2,
        dtlb_miss_rate=dtlb,
        seconds=report.seconds,
    )


def legacy_compiler_variation(
    benchmark_id, *, workloads=None, machine=None, max_workloads=6
):
    benchmark = get_benchmark(benchmark_id)
    if workloads is None:
        workloads = alberta_workloads(benchmark_id)
    wl = list(workloads)
    if max_workloads is not None:
        wl = wl[:max_workloads]

    train = next((w for w in wl if w.name.endswith(".train")), wl[0])
    profile = legacy_train_profile(benchmark_id, train, machine)

    observations = []
    for workload in wl:
        observations.append(
            _legacy_observe(benchmark, workload, CostModel(machine), "baseline")
        )
        observations.append(
            _legacy_observe(
                benchmark, workload, FdoCostModel(profile, machine), "fdo-train"
            )
        )
    return observations
