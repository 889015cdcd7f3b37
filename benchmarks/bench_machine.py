"""Machine-model ablation and replay-throughput benchmarks.

DESIGN.md calls out two modelling choices worth ablating:

* **branch predictor** — gshare vs bimodal: the bad-speculation
  fraction must respond to predictor quality;
* **memory latency / MLP** — the back-end-bound fraction must respond
  to the memory system, which is what separates omnetpp/lbm from
  exchange2 in Table II.

``test_replay_throughput`` additionally measures the vectorized replay
kernel against the frozen scalar reference on refrate event streams and
writes ``BENCH_machine.json`` (uploaded as a CI artifact).
"""

import json
import os
import time

import pytest

from repro.core.characterize import characterize
from repro.machine import MachineConfig


def test_predictor_ablation(benchmark):
    """A weaker predictor raises bad speculation on a branchy benchmark."""

    def run():
        gshare = characterize("557.xz_r", machine=MachineConfig(predictor="gshare"))
        bimodal = characterize("557.xz_r", machine=MachineConfig(predictor="bimodal"))
        return gshare, bimodal

    gshare, bimodal = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    s_g = gshare.topdown.mu_g("bad_speculation")
    s_b = bimodal.topdown.mu_g("bad_speculation")
    print(f"\nxz bad-speculation: gshare={s_g:.4f} bimodal={s_b:.4f}")
    assert s_b > s_g * 0.9  # bimodal is never meaningfully better


def test_memory_latency_ablation(benchmark):
    """Slower memory makes the pointer-chasing benchmark more back-end
    bound and the compute kernel barely budges."""

    def run():
        slow = MachineConfig(mem_latency=400.0)
        fast = MachineConfig(mem_latency=60.0)
        return (
            characterize("520.omnetpp_r", machine=slow),
            characterize("520.omnetpp_r", machine=fast),
            characterize("548.exchange2_r", machine=slow),
            characterize("548.exchange2_r", machine=fast),
        )

    om_slow, om_fast, ex_slow, ex_fast = benchmark.pedantic(
        run, rounds=1, iterations=1, warmup_rounds=0
    )
    om_delta = om_slow.topdown.mu_g("back_end") - om_fast.topdown.mu_g("back_end")
    ex_delta = ex_slow.topdown.mu_g("back_end") - ex_fast.topdown.mu_g("back_end")
    print(f"\nback-end delta (slow-fast mem): omnetpp={om_delta:.4f} exchange2={ex_delta:.4f}")
    assert om_delta > 0.02
    assert om_delta > 1.5 * abs(ex_delta)


@pytest.mark.parametrize("width", [2, 4, 8])
def test_pipeline_width_scaling(benchmark, width):
    """Wider issue lowers simulated time on a retiring-bound benchmark."""
    char = benchmark.pedantic(
        lambda: characterize("548.exchange2_r", machine=MachineConfig(width=width)),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    print(f"\nwidth={width} refrate={char.refrate_seconds:.6f}s")
    assert char.refrate_seconds > 0


def test_machine_preset_sweep(benchmark):
    """Characterize one benchmark across the named machine presets.

    Section I cites Breughe et al.'s question of how sensitive
    processor customization is to input data; sweeping presets shows
    the per-machine top-down mix while workload sensitivity (mu_g(V))
    stays a property of the benchmark."""
    from repro.machine import PRESETS

    def run():
        return {
            name: characterize("557.xz_r", machine=config)
            for name, config in PRESETS.items()
        }

    by_preset = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    print()
    for name, char in by_preset.items():
        td = char.topdown
        print(
            f"  {name:<10} f={td.mu_g('front_end') * 100:5.1f} "
            f"b={td.mu_g('back_end') * 100:5.1f} "
            f"s={td.mu_g('bad_speculation') * 100:5.1f} "
            f"r={td.mu_g('retiring') * 100:5.1f} "
            f"mu_gV={char.mu_g_v:5.1f} refrate={char.refrate_seconds:.6f}s"
        )
    atom = by_preset["atom-like"]
    sandy = by_preset["i7-2600"]
    sky = by_preset["i7-6700k"]
    # the weaker predictor mispredicts more often (the bad-speculation
    # *fraction* can still be lower on the narrow core: its wrong-path
    # squash is cheaper and slow memory dominates the denominator)
    from repro.core import alberta_workloads, get_benchmark
    from repro.machine import ATOM_LIKE, I7_2600, Profiler

    # use deepsjeng: its branch streams are history-correlated, so the
    # history-less bimodal predictor clearly loses (on xz's near-random
    # literal bits the two predictors are statistically tied)
    ref = alberta_workloads("531.deepsjeng_r")["deepsjeng.refrate"]
    bench = get_benchmark("531.deepsjeng_r")
    rate_atom = Profiler(ATOM_LIKE).run(bench, ref).report.branch_misprediction_rate
    rate_sandy = Profiler(I7_2600).run(bench, ref).report.branch_misprediction_rate
    print(f"  deepsjeng mispredict rate: atom {rate_atom:.3f} vs i7 {rate_sandy:.3f}")
    assert rate_atom > rate_sandy
    # the newer machine is faster on the same work
    assert sky.refrate_seconds < sandy.refrate_seconds < atom.refrate_seconds


# Representative smoke subset for CI: two memory-heavy FP streams, two
# branchy INT streams, one pointer chaser, one SIMD-ish media stream.
_REPLAY_SMOKE_IDS = (
    "505.mcf_r",
    "519.lbm_r",
    "520.omnetpp_r",
    "525.x264_r",
    "531.deepsjeng_r",
    "557.xz_r",
)
_REPLAY_ROUNDS = 5


def test_replay_throughput():
    """Best-of-N vectorized replay vs the frozen scalar reference.

    Writes ``BENCH_machine.json`` with per-benchmark replay seconds and
    events/sec.  Each round replays the capture under a fresh metrics
    collector and reads ``repro_replay_ns_total`` back, the counter a
    ledger record derives its replay throughput from (one whole
    cost-model evaluation per replay).  The file is an ungated record;
    ``repro runs diff`` is the perf-regression check.

    Set ``REPRO_BENCH_FULL=1`` to sweep every registered benchmark
    (the configuration the >=3x aggregate target is asserted on);
    ``REPRO_BENCH_JSON`` overrides the output path.
    """
    try:
        from tests import _legacy_machine as legacy
    except ImportError:  # running with the repo root off sys.path
        import _legacy_machine as legacy

    from repro.core import metrics
    from repro.core.registry import benchmark_ids, get_benchmark, refrate_workload
    from repro.machine.batch import replay_capture
    from repro.machine.capture import capture_execution
    from repro.machine.cost import MachineConfig as Config

    full = bool(os.environ.get("REPRO_BENCH_FULL"))
    ids = sorted(benchmark_ids()) if full else list(_REPLAY_SMOKE_IDS)

    cells = {}
    total_events = total_new_ns = total_legacy_ns = 0
    for bid in ids:
        workload = refrate_workload(bid)
        bench = get_benchmark(bid)
        capture = capture_execution(bench, workload)
        events = capture.n_events

        legacy_probe = legacy.LegacyProbe()
        bench.run(workload, legacy_probe)
        # Interleave vectorized and legacy rounds so both best-of
        # samples see the same machine conditions — separate phases let
        # a frequency drift between them land straight in the ratio.
        best_ns = legacy_ns = None
        for _ in range(_REPLAY_ROUNDS):
            reg = metrics.MetricsRegistry()
            with metrics.collector(reg):
                replay_capture(capture)
            ns = reg.value(metrics.REPLAY_NS_TOTAL, benchmark=bid)
            best_ns = ns if best_ns is None else min(best_ns, ns)
            t0 = time.perf_counter_ns()
            legacy.legacy_evaluate(legacy_probe, Config())
            ns = time.perf_counter_ns() - t0
            legacy_ns = ns if legacy_ns is None else min(legacy_ns, ns)

        total_events += events
        total_new_ns += best_ns
        total_legacy_ns += legacy_ns
        cells[bid] = {
            "workload": workload.name,
            "events": events,
            "replay_seconds": round(best_ns / 1e9, 6),
            "legacy_replay_seconds": round(legacy_ns / 1e9, 6),
            "events_per_sec": round(events / (best_ns / 1e9), 1),
            "speedup": round(legacy_ns / best_ns, 2),
        }

    aggregate = {
        "events": total_events,
        "events_per_sec": round(total_events / (total_new_ns / 1e9), 1),
        "legacy_events_per_sec": round(total_events / (total_legacy_ns / 1e9), 1),
        "speedup": round(total_legacy_ns / total_new_ns, 2),
    }
    out = {
        "schema": 1,
        "mode": "full" if full else "smoke",
        "rounds": _REPLAY_ROUNDS,
        "aggregate": aggregate,
        "benchmarks": cells,
    }
    path = os.environ.get("REPRO_BENCH_JSON", "BENCH_machine.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    print(
        f"\nreplay aggregate: {aggregate['events_per_sec'] / 1e6:.2f}M ev/s "
        f"vs legacy {aggregate['legacy_events_per_sec'] / 1e6:.2f}M ev/s "
        f"(x{aggregate['speedup']:.2f}) -> {path}"
    )
    # The >=3x acceptance target holds on the full refrate sweep; the
    # CI smoke subset deliberately includes the scalar-bound laggards,
    # so it gets a looser floor.
    assert aggregate["speedup"] >= (3.0 if full else 1.5)


_SWEEP_MACHINES = (
    None,
    MachineConfig(predictor="bimodal"),
    MachineConfig(mem_latency=400.0),
    MachineConfig(width=2),
)
_SWEEP_ROUNDS = 3


def test_sweep_capture_reuse():
    """Capture-once/replay-N machine sweep vs N fused characterizations.

    The staged pipeline's sweep guarantee in wall-clock form: sweeping
    one 502.gcc_r refrate workload over four machine configs must
    execute the benchmark exactly once (stage counters prove it) and
    beat four cache-off characterizations by >=2x.  Merges a ``sweep``
    key into ``BENCH_machine.json`` — run after ``test_replay_throughput``,
    which rewrites that file wholesale.
    """
    from repro.core.run import Session
    from repro.core.registry import refrate_workload
    from repro.core.sweep import MachineGrid, SweepRequest

    bid = "502.gcc_r"
    workloads = [refrate_workload(bid)]
    machines = list(_SWEEP_MACHINES)
    request = SweepRequest(benchmark=bid, grid=MachineGrid.from_machines(machines))

    fused_best = None
    for _ in range(_SWEEP_ROUNDS):
        t0 = time.perf_counter()
        fused_chars = []
        for m in machines:
            with Session(machine=m, cache=None) as s:
                fused_chars.append(s.characterize(bid, workloads).characterizations[0])
        dt = time.perf_counter() - t0
        fused_best = dt if fused_best is None else min(fused_best, dt)

    sweep_best = summary = sweep_chars = None
    for _ in range(_SWEEP_ROUNDS):
        t0 = time.perf_counter()
        with Session(cache=None) as s:
            result = s.characterize_sweep(request, workloads=workloads)
        dt = time.perf_counter() - t0
        if sweep_best is None or dt < sweep_best:
            sweep_best, summary, sweep_chars = dt, s.summary, result.characterizations

    # the sweep's answers match the fused path's, bit for bit
    for fused, swept in zip(fused_chars, sweep_chars):
        assert fused.table2_row() == swept.table2_row()
    # stage counters: one execution, one replay per config
    assert summary.captures == 1
    assert summary.replays == len(machines)

    speedup = fused_best / sweep_best
    sweep_out = {
        "benchmark": bid,
        "workload": workloads[0].name,
        "machines": len(machines),
        "rounds": _SWEEP_ROUNDS,
        "fused_seconds": round(fused_best, 6),
        "sweep_seconds": round(sweep_best, 6),
        "captures": summary.captures,
        "replays": summary.replays,
        "speedup": round(speedup, 2),
    }
    path = os.environ.get("REPRO_BENCH_JSON", "BENCH_machine.json")
    try:
        with open(path) as fh:
            out = json.load(fh)
    except (OSError, ValueError):
        out = {"schema": 1}
    out["sweep"] = sweep_out
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    print(
        f"\nsweep: {len(machines)} configs in {sweep_best:.3f}s vs fused "
        f"{fused_best:.3f}s (x{speedup:.2f}), "
        f"{summary.captures} capture / {summary.replays} replays -> {path}"
    )
    assert speedup >= 2.0


def test_sweep_batched_throughput():
    """One-pass batched multi-config replay vs the per-config loop.

    Replays one 502.gcc_r refrate capture over the standard 8-config
    grid (:func:`repro.core.sweep.default_sweep_grid`) both ways,
    best-of-N, asserts bit-identical simulated seconds, and merges a
    ``sweep_batched`` key into ``BENCH_machine.json``.  Run after
    ``test_replay_throughput``, which rewrites that file wholesale.

    The >=3x acceptance target is asserted under ``REPRO_BENCH_FULL=1``;
    the CI smoke run gets a looser floor to absorb shared-runner noise.
    """
    from repro.core.registry import get_benchmark, refrate_workload
    from repro.core.sweep import default_sweep_grid
    from repro.machine.batch import replay_capture, replay_capture_batched
    from repro.machine.capture import capture_execution

    bid = "502.gcc_r"
    workload = refrate_workload(bid)
    grid = default_sweep_grid()
    machines = list(grid.machines)
    capture = capture_execution(get_benchmark(bid), workload)

    single_best = batched_best = None
    singles = batched = None
    for _ in range(_SWEEP_ROUNDS):
        t0 = time.perf_counter()
        singles = [replay_capture(capture, machine=m) for m in machines]
        dt = time.perf_counter() - t0
        single_best = dt if single_best is None else min(single_best, dt)

        t0 = time.perf_counter()
        batched = replay_capture_batched(capture, machines)
        dt = time.perf_counter() - t0
        batched_best = dt if batched_best is None else min(batched_best, dt)

    for one, many in zip(singles, batched):
        assert one.report.seconds == many.report.seconds
        assert one.report.cycles == many.report.cycles

    full = bool(os.environ.get("REPRO_BENCH_FULL"))
    speedup = single_best / batched_best
    events = capture.n_events * len(machines)
    sweep_out = {
        "benchmark": bid,
        "workload": workload.name,
        "configs": len(machines),
        "rounds": _SWEEP_ROUNDS,
        "events": events,
        "per_config_seconds": round(single_best, 6),
        "batched_seconds": round(batched_best, 6),
        "per_config_events_per_sec": round(events / single_best, 1),
        "batched_events_per_sec": round(events / batched_best, 1),
        "speedup": round(speedup, 2),
    }
    path = os.environ.get("REPRO_BENCH_JSON", "BENCH_machine.json")
    try:
        with open(path) as fh:
            out = json.load(fh)
    except (OSError, ValueError):
        out = {"schema": 1}
    out["sweep_batched"] = sweep_out
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    print(
        f"\nbatched sweep: {len(machines)} configs in {batched_best:.3f}s vs "
        f"per-config {single_best:.3f}s (x{speedup:.2f}), "
        f"{events / batched_best / 1e6:.2f}M ev/s -> {path}"
    )
    assert speedup >= (3.0 if full else 1.5)
