"""Golden equivalence: vectorized replay == frozen scalar reference.

The columnar telemetry / vectorized replay rewrite is gated on bit
identity: for every benchmark, one fixed workload replayed through the
new pipeline must produce *exactly* the report the frozen pre-rewrite
implementation (``tests/_legacy_machine.py``) produces — same sampled
stream, same predictions, same hit/miss sequences, same floating-point
accumulation order.  Checked at the default event cap and at a forced
small cap (which exercises decimation and the scalar dispatch paths),
for predictors wider than 16 table bits, and for the default sweep
grid's non-default cache and TLB geometries and two smaller LLCs, which
the reference builds its hierarchy from.
"""

from __future__ import annotations

import functools

import pytest

try:
    from tests import _legacy_machine as legacy
except ImportError:  # running with tests/ itself on sys.path
    import _legacy_machine as legacy
from repro.core.registry import alberta_workloads, benchmark_ids, get_benchmark
from repro.core.sweep import default_sweep_grid
from repro.machine.cache import CacheGeometry
from repro.machine.cost import CostModel, MachineConfig, replay_columns
from repro.machine.telemetry import Probe

CACHE_FIELDS = (
    "l1d_accesses",
    "l1d_misses",
    "l1i_accesses",
    "l1i_misses",
    "l2_accesses",
    "l2_misses",
    "llc_accesses",
    "llc_misses",
    "dtlb_misses",
)
METHOD_FIELDS = (
    "uops",
    "retiring_cycles",
    "bad_spec_cycles",
    "frontend_cycles",
    "backend_cycles",
    "est_mispredicts",
    "est_data_misses",
)


def assert_reports_identical(a, b, tag):
    assert a.cycles == b.cycles, f"{tag}: cycles {a.cycles} != {b.cycles}"
    assert a.seconds == b.seconds, f"{tag}: seconds"
    assert (
        a.branch_misprediction_rate == b.branch_misprediction_rate
    ), f"{tag}: misprediction rate"
    for f in ("front_end", "back_end", "bad_speculation", "retiring"):
        assert getattr(a.topdown, f) == getattr(b.topdown, f), f"{tag}: topdown.{f}"
    for f in CACHE_FIELDS:
        assert getattr(a.cache_stats, f) == getattr(
            b.cache_stats, f
        ), f"{tag}: cache_stats.{f}"
    assert set(a.per_method) == set(b.per_method), f"{tag}: method set"
    for name in a.per_method:
        for f in METHOD_FIELDS:
            assert getattr(a.per_method[name], f) == getattr(
                b.per_method[name], f
            ), f"{tag}: {name}.{f}"
    assert dict(a.coverage.fractions) == dict(b.coverage.fractions), f"{tag}: coverage"


def fixed_workload(benchmark_id):
    workloads = alberta_workloads(benchmark_id)
    return next((w for w in workloads if w.name.endswith(".test")), workloads[0])


def run_pair(benchmark_id, cap, predictor):
    workload = fixed_workload(benchmark_id)
    benchmark = get_benchmark(benchmark_id)
    probe = Probe(event_cap=cap)
    benchmark.run(workload, probe)
    legacy_probe = legacy.LegacyProbe(event_cap=cap)
    benchmark.run(workload, legacy_probe)
    config = MachineConfig(predictor=predictor)
    return (
        CostModel(config).evaluate(probe),
        legacy.legacy_evaluate(legacy_probe, MachineConfig(predictor=predictor)),
    )


@pytest.mark.parametrize("benchmark_id", sorted(benchmark_ids()))
def test_default_cap_bit_identical(benchmark_id):
    got, want = run_pair(benchmark_id, 262144, "gshare")
    assert_reports_identical(got, want, f"{benchmark_id}/gshare/default-cap")


@pytest.mark.parametrize("benchmark_id", sorted(benchmark_ids()))
def test_small_cap_bit_identical(benchmark_id):
    """A forced-small cap decimates aggressively and drives short
    streams through the scalar dispatch paths."""
    got, want = run_pair(benchmark_id, 1024, "gshare")
    assert_reports_identical(got, want, f"{benchmark_id}/gshare/cap=1024")


@pytest.mark.parametrize("benchmark_id", ["531.deepsjeng_r", "557.xz_r", "519.lbm_r"])
def test_bimodal_bit_identical(benchmark_id):
    got, want = run_pair(benchmark_id, 1024, "bimodal")
    assert_reports_identical(got, want, f"{benchmark_id}/bimodal/cap=1024")


#: Predictors wider than 16 table bits, where a table slot no longer
#: fits 16 bits; 24 is the widest table ``MachineConfig`` allows.
WIDE_PREDICTORS = (
    MachineConfig(predictor_table_bits=20, predictor_history_bits=18),
    MachineConfig(predictor_table_bits=24, predictor_history_bits=24),
    MachineConfig(predictor="bimodal", predictor_table_bits=17),
)


@pytest.mark.parametrize("cap", [262144, 1024])
@pytest.mark.parametrize(
    "benchmark_id", ["502.gcc_r", "531.deepsjeng_r", "541.leela_r", "557.xz_r"]
)
def test_wide_predictors_bit_identical(benchmark_id, cap):
    """Each wide predictor replayed alone, and all of them in one batch
    with the default config, against the frozen reference."""
    workload = fixed_workload(benchmark_id)
    benchmark = get_benchmark(benchmark_id)
    probe = Probe(event_cap=cap)
    benchmark.run(workload, probe)
    legacy_probe = legacy.LegacyProbe(event_cap=cap)
    benchmark.run(workload, legacy_probe)
    configs = [MachineConfig(), *WIDE_PREDICTORS]
    batched = replay_columns(
        configs, probe.methods(), probe.events.columns(), probe.sampling_stride
    )
    for config, got in zip(configs, batched):
        want = legacy.legacy_evaluate(legacy_probe, config)
        tag = (
            f"{benchmark_id}/{config.predictor}-{config.predictor_table_bits}"
            f"-{config.predictor_history_bits}/cap={cap}"
        )
        assert_reports_identical(got, want, f"{tag}/batched")
        assert_reports_identical(CostModel(config).evaluate(probe), want, tag)


#: The default sweep grid's sizings of the L1D, the dTLB and the LLC, and
#: two smaller LLCs: the grid's own LLC sizings move no ``llc_misses`` on
#: any seed-0 capture, so only these show an LLC sizing change a count.
SWEEP_GEOMETRIES = tuple(
    (name, default_sweep_grid()[name]) for name in ("small-l1", "small-tlb", "small-llc")
) + (
    ("llc-512k", MachineConfig(geometry=CacheGeometry(llc_kib=512))),
    ("llc-256k-8way", MachineConfig(geometry=CacheGeometry(llc_kib=256, llc_assoc=8))),
)
GEOMETRY_BENCHMARKS = ("505.mcf_r", "519.lbm_r", "557.xz_r", "520.omnetpp_r")
DEFAULT_CAP = 262144


@functools.cache
def sweep_geometry_reports(benchmark_id, cap):
    """``(name, replayed, reference)`` for the default config, then each of
    :data:`SWEEP_GEOMETRIES`, replayed in one batch with it.  The refrate
    workload, because the test inputs are too small for most of these
    sizings to change a count."""
    workloads = alberta_workloads(benchmark_id)
    workload = next(w for w in workloads if w.name.endswith(".refrate"))
    benchmark = get_benchmark(benchmark_id)
    probe = Probe(event_cap=cap)
    benchmark.run(workload, probe)
    legacy_probe = legacy.LegacyProbe(event_cap=cap)
    benchmark.run(workload, legacy_probe)
    named = (("default", MachineConfig()),) + SWEEP_GEOMETRIES
    reports = replay_columns(
        [config for _, config in named], probe.methods(), probe.events.columns(),
        probe.sampling_stride,
    )
    return [
        (name, got, legacy.legacy_evaluate(legacy_probe, config))
        for (name, config), got in zip(named, reports)
    ]


@pytest.mark.parametrize("cap", [DEFAULT_CAP, 1024])
@pytest.mark.parametrize("benchmark_id", GEOMETRY_BENCHMARKS)
def test_sweep_geometries_bit_identical(benchmark_id, cap):
    """Non-default geometries, replayed in one batch with the default
    config (the L1D and dTLB sizings share its passes), against the
    frozen reference built from the same geometry."""
    for name, got, want in sweep_geometry_reports(benchmark_id, cap):
        assert_reports_identical(got, want, f"{benchmark_id}/{name}/cap={cap}")


def test_an_llc_sizing_moves_llc_misses():
    """The gate above sees an LLC sizing change a count: at the default
    cap, 512 KiB moves omnetpp's ``llc_misses`` and 256 KiB 8-way xz's."""
    moved = []
    for benchmark_id in GEOMETRY_BENCHMARKS:
        (_, default, _), *sized = sweep_geometry_reports(benchmark_id, DEFAULT_CAP)
        moved += [
            (benchmark_id, name)
            for name, got, _ in sized
            if "llc" in name and got.cache_stats.llc_misses != default.cache_stats.llc_misses
        ]
    assert moved
