"""Resource-attribution overhead and fidelity benchmark.

Two promises from the profiling layer, asserted on the smoke trio and
recorded into ``BENCH_resources.json``:

* **Sampler overhead** — replaying with the opt-in stack sampler
  running at :data:`~repro.core.resources.DEFAULT_HZ` must cost less
  than 5% wall-clock over the unsampled replay (best-of comparison, so
  scheduler noise does not masquerade as overhead).
* **Attribution fidelity** — per-stage CPU totals (user+sys from
  ``getrusage`` deltas) must land within 10% of the stage spans'
  wall-clock on this CPU-bound pipeline; a bigger gap means the laps
  are attributing cost to the wrong stage windows.

``REPRO_BENCH_JSON_RESOURCES`` overrides the output path.
"""

import json
import os
import time

from repro.core.resources import DEFAULT_HZ, StackSampler
from repro.core.registry import get_benchmark, refrate_workload
from repro.machine.batch import replay_capture
from repro.machine.capture import capture_execution

_MAX_OVERHEAD = 0.05
_MAX_ATTRIBUTION_GAP = 0.10
_ROUNDS = 5
_TRIALS = 3

#: Same smoke subset as the tier-1 golden tests.
_SMOKE_IDS = ("505.mcf_r", "519.lbm_r", "557.xz_r")


#: Minimum wall-clock per timing round; single replays finish in a few
#: ms, where scheduler noise would swamp a 5% overhead bound.
_MIN_ROUND_S = 0.2


def _round_s(capture, reps):
    t0 = time.perf_counter()
    for _ in range(reps):
        replay_capture(capture)
    return time.perf_counter() - t0


def _interleaved_best_s(capture, reps, rounds=_ROUNDS):
    """Best plain and sampled per-replay walls, rounds interleaved so a
    machine-load drift mid-benchmark hits both sides equally."""
    plain = sampled = float("inf")
    total_samples = 0
    for _ in range(rounds):
        plain = min(plain, _round_s(capture, reps))
        with StackSampler(hz=DEFAULT_HZ) as sampler:
            sampled = min(sampled, _round_s(capture, reps))
        total_samples += sampler.total_samples
    return plain / reps, sampled / reps, total_samples


def _calibrate_reps(capture):
    t0 = time.perf_counter()
    replay_capture(capture)
    once = max(time.perf_counter() - t0, 1e-6)
    return max(1, int(_MIN_ROUND_S / once))


def test_sampler_overhead_and_attribution():
    """Sampled-vs-plain replay walls + CPU/wall gap -> BENCH_resources.json."""
    captures = {}
    for bid in _SMOKE_IDS:
        workload = refrate_workload(bid)
        capture = capture_execution(get_benchmark(bid), workload)
        replay_capture(capture)  # warm caches/JIT paths out of the measurement
        captures[bid] = (workload, capture, _calibrate_reps(capture))

    # Contention can only inflate a wall-clock overhead measurement, so
    # the minimum across trials converges on the sampler's true cost;
    # the bound is on the trio aggregate, not its noisiest member.
    overhead = float("inf")
    cells = {}
    for _ in range(_TRIALS):
        plain_total = sampled_total = 0.0
        trial_cells = {}
        for bid, (workload, capture, reps) in captures.items():
            plain, sampled, samples = _interleaved_best_s(capture, reps)
            plain_total += plain
            sampled_total += sampled
            trial_cells[bid] = {
                "workload": workload.name,
                "wall_plain_s": round(plain, 6),
                "wall_sampled_s": round(sampled, 6),
                "overhead": round(max(0.0, sampled / plain - 1.0), 4),
                "hz": DEFAULT_HZ,
                "samples": samples,
            }
        trial = max(0.0, sampled_total / plain_total - 1.0)
        if trial < overhead:
            overhead, cells = trial, trial_cells
        if overhead < _MAX_OVERHEAD / 2:
            break

    # Attribution fidelity: one staged run per trio member, comparing the
    # journal's stage wall-clock against the getrusage CPU attribution.
    from pathlib import Path
    from tempfile import TemporaryDirectory

    from repro.core.run import Session
    from repro.core.trace import trace_stages

    gaps = {}
    with TemporaryDirectory() as tmp:
        for bid in _SMOKE_IDS:
            trace = Path(tmp) / f"{bid}.jsonl"
            with Session(workers=1, trace=trace) as s:
                s.characterize(bid)
            stages = list(trace_stages(trace))
            wall = sum(st.duration_s for st in stages)
            cpu = sum(
                (st.resources or {}).get("cpu_user_s", 0.0)
                + (st.resources or {}).get("cpu_sys_s", 0.0)
                for st in stages
            )
            gaps[bid] = abs(cpu - wall) / wall if wall else 0.0
            cells[bid]["stage_wall_s"] = round(wall, 6)
            cells[bid]["stage_cpu_s"] = round(cpu, 6)
            cells[bid]["attribution_gap"] = round(gaps[bid], 4)

    out = {
        "schema": 1,
        "max_overhead_bound": _MAX_OVERHEAD,
        "max_attribution_gap_bound": _MAX_ATTRIBUTION_GAP,
        "trio_overhead": round(overhead, 4),
        "benchmarks": cells,
    }
    path = os.environ.get("REPRO_BENCH_JSON_RESOURCES", "BENCH_resources.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    worst_gap = max(gaps.values())
    print(
        f"\nresources: {len(cells)} benchmark(s), trio sampler overhead "
        f"{overhead:.1%}, worst attribution gap {worst_gap:.1%} -> {path}"
    )
    assert overhead < _MAX_OVERHEAD
    assert worst_gap < _MAX_ATTRIBUTION_GAP
