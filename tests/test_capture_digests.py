"""Golden capture digests: the mini-benchmarks' telemetry is frozen.

A capture is everything replay reads from one execution: the event
columns, the exact per-method counters and the decimation state.
:func:`canonical_form` lays all of it out as one byte string that no
codec shapes, so one sha256 per capture pins all of it whatever format
the artifact store writes.  For every registered benchmark the gate
covers

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

import functools
import hashlib
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.artifacts import decode_capture, encode_capture
from repro.core.registry import alberta_workloads, benchmark_ids, get_benchmark
from repro.machine.capture import TelemetryCapture, capture_execution
from repro.machine.telemetry import Probe

DIGESTS = Path(__file__).with_name("capture_digests.json")
SMALL_CAP = 1024
VARIANTS = ("refrate", "alberta", f"refrate@{SMALL_CAP}")


def canonical_form(capture: TelemetryCapture) -> bytes:
    """Every field replay reads, in a fixed order, with no codec involved.

    First an 8-byte little-endian length and a compact JSON record of
    the header fields (benchmark, workload, verified), the decimation
    state (``sampling_stride``, ``event_cap``, ``tick``), the event
    count and the per-method counters in registration order, each with
    its ``extra`` dict in insertion order.  Then the four event columns
    (method index, kind, ``a``, ``b``) as little-endian int64 bytes.
    """
    record = json.dumps(
        {
            "benchmark": capture.benchmark,
            "workload": capture.workload,
            "verified": capture.verified,
            "sampling_stride": capture.sampling_stride,
            "event_cap": capture.event_cap,
            "tick": capture.tick,
            "events": capture.n_events,
            "methods": [asdict(mc) for mc in capture.methods],
        },
        separators=(",", ":"),
    ).encode()
    columns = b"".join(np.asarray(c, dtype="<i8").tobytes() for c in capture.columns)
    return len(record).to_bytes(8, "little") + record + columns


def canonical_digest(capture: TelemetryCapture) -> str:
    return hashlib.sha256(canonical_form(capture)).hexdigest()


def gated_captures(benchmark_id: str) -> dict[str, TelemetryCapture]:
    """The three gated captures of one benchmark, by variant."""
    bench = get_benchmark(benchmark_id)
    workloads = alberta_workloads(benchmark_id, 0)
    refrate = next(w for w in workloads if w.name.endswith(".refrate"))
    alberta = next(w for w in workloads if ".alberta." in w.name)
    probe = Probe(event_cap=SMALL_CAP)
    assert bench.verify(refrate, bench.run(refrate, probe))
    return {
        "refrate": capture_execution(bench, refrate),
        "alberta": capture_execution(bench, alberta),
        f"refrate@{SMALL_CAP}": TelemetryCapture.from_probe(
            benchmark_id, refrate.name, probe
        ),
    }


def capture_digests(captures: dict[str, TelemetryCapture]) -> dict[str, str]:
    """sha256 of the canonical form of each gated capture."""
    return {variant: canonical_digest(capture) for variant, capture in captures.items()}


def compute_all() -> dict[str, dict[str, str]]:
    return {bid: capture_digests(gated_captures(bid)) for bid in sorted(benchmark_ids())}


def _recorded() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS.read_text())


@pytest.fixture(scope="module", params=sorted(benchmark_ids()))
def gated(request) -> tuple[str, dict[str, TelemetryCapture]]:
    """One benchmark's gated captures, shared by the tests that read
    them; pytest holds one benchmark's worth at a time."""
    return request.param, gated_captures(request.param)


def test_every_registered_benchmark_is_gated():
    recorded = _recorded()
    assert sorted(recorded) == sorted(benchmark_ids())
    for bid, digests in recorded.items():
        assert sorted(digests) == sorted(VARIANTS), bid


def test_capture_digests_unchanged(gated):
    benchmark_id, captures = gated
    assert capture_digests(captures) == _recorded()[benchmark_id], (
        f"{benchmark_id}: capture changed; a speed-only rewrite must keep "
        "it, an intended change rewrites tests/capture_digests.json"
    )


def test_codec_round_trip_is_exact(gated):
    _, captures = gated
    for variant, capture in captures.items():
        decoded = decode_capture(encode_capture(capture))
        assert canonical_form(decoded) == canonical_form(capture), variant


# ------------------------------------------------- the gate is no weaker


@functools.cache
def _small_capture() -> TelemetryCapture:
    """xz's refrate capture under ``Probe(event_cap=1024)``: decimated,
    every event kind, and a method with ``extra`` counters."""
    return gated_captures("557.xz_r")[f"refrate@{SMALL_CAP}"]


def _with_event(capture: TelemetryCapture, column: int) -> TelemetryCapture:
    """``capture`` with one value of one event column changed."""
    cols = [np.array(c) for c in capture.columns]
    cols[column][capture.n_events // 2] += 1
    return replace(capture, columns=tuple(cols))


def _with_counter(capture: TelemetryCapture, extra: bool) -> TelemetryCapture:
    """``capture`` with one exact counter changed: the first method's
    ``loads``, or an ``extra`` counter of the first method that has one."""
    i = next(i for i, mc in enumerate(capture.methods) if mc.extra) if extra else 0
    mc = capture.methods[i]
    if extra:
        key = next(iter(mc.extra))
        mc = replace(mc, extra={**mc.extra, key: mc.extra[key] + 1})
    else:
        mc = replace(mc, loads=mc.loads + 1)
    return replace(capture, methods=capture.methods[:i] + (mc,) + capture.methods[i + 1 :])


MUTATIONS = {
    "method": lambda c: _with_event(c, 0),
    "kind": lambda c: _with_event(c, 1),
    "a": lambda c: _with_event(c, 2),
    "b": lambda c: _with_event(c, 3),
    "counter": lambda c: _with_counter(c, extra=False),
    "extra": lambda c: _with_counter(c, extra=True),
    "tick": lambda c: replace(c, tick=c.tick + 1),
    "sampling_stride": lambda c: replace(c, sampling_stride=c.sampling_stride * 2),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_one_mutation_changes_the_digest(mutation):
    capture = _small_capture()
    assert capture.sampling_stride > 1 and capture.n_events > 0
    assert canonical_digest(MUTATIONS[mutation](capture)) != canonical_digest(capture)


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(compute_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}", file=sys.stderr)
