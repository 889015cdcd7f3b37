"""Golden capture digests: the mini-benchmarks' telemetry is frozen.

A capture is everything replay reads from one execution: the event
columns, the exact per-method counters and the decimation state.  Its
RTC1 encoding is a deterministic byte string, so one sha256 per capture
pins all of it.  For every registered benchmark the gate covers

* ``refrate`` — its refrate workload under the default event cap;
* ``alberta`` — its first ``*.alberta.*`` workload at base seed 0;
* ``refrate@1024`` — the refrate workload again under
  ``Probe(event_cap=1024)``, which forces decimation mid-run.

A rewrite of a benchmark's inner loops (for speed, say) must leave
every digest unchanged.  The digests change only with an intended
semantic change to a benchmark or its generator, in which case rewrite
the file with::

    PYTHONPATH=src python tests/test_capture_digests.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.artifacts import encode_capture
from repro.core.registry import alberta_workloads, benchmark_ids, get_benchmark
from repro.machine.capture import TelemetryCapture, capture_execution
from repro.machine.telemetry import Probe

DIGESTS = Path(__file__).with_name("capture_digests.json")
SMALL_CAP = 1024
VARIANTS = ("refrate", "alberta", f"refrate@{SMALL_CAP}")


def capture_digests(benchmark_id: str) -> dict[str, str]:
    """sha256 of the RTC1 encoding of each gated capture."""
    bench = get_benchmark(benchmark_id)
    workloads = alberta_workloads(benchmark_id, 0)
    refrate = next(w for w in workloads if w.name.endswith(".refrate"))
    alberta = next(w for w in workloads if ".alberta." in w.name)
    probe = Probe(event_cap=SMALL_CAP)
    assert bench.verify(refrate, bench.run(refrate, probe))
    captures = {
        "refrate": capture_execution(bench, refrate),
        "alberta": capture_execution(bench, alberta),
        f"refrate@{SMALL_CAP}": TelemetryCapture.from_probe(
            benchmark_id, refrate.name, probe
        ),
    }
    return {
        variant: hashlib.sha256(encode_capture(capture)).hexdigest()
        for variant, capture in captures.items()
    }


def compute_all() -> dict[str, dict[str, str]]:
    return {bid: capture_digests(bid) for bid in sorted(benchmark_ids())}


def _recorded() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS.read_text())


def test_every_registered_benchmark_is_gated():
    recorded = _recorded()
    assert sorted(recorded) == sorted(benchmark_ids())
    for bid, digests in recorded.items():
        assert sorted(digests) == sorted(VARIANTS), bid


@pytest.mark.parametrize("benchmark_id", sorted(benchmark_ids()))
def test_capture_digests_unchanged(benchmark_id):
    assert capture_digests(benchmark_id) == _recorded()[benchmark_id], (
        f"{benchmark_id}: capture bytes changed; a speed-only rewrite must "
        "keep them, an intended change rewrites tests/capture_digests.json"
    )


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(compute_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}", file=sys.stderr)
