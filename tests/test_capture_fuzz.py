"""Fuzzing the capture read path with damaged real RTC1 blobs.

A stored capture can be truncated by a crashed writer or corrupted on
disk.  Whatever the damage, :func:`decode_capture` may raise only
:class:`CacheCorruption`, and :class:`CaptureStore` then quarantines
the entry and reports a miss.  What may decode is bounded too:

* damage after the JSON header never decodes to a different capture,
  because the CRC covers the decompressed columns;
* damage inside the header never changes the decoded columns.  RTC1's
  CRC does not cover the header, so a header that still parses may
  carry different counters or decimation state.

The blobs are mcf's refrate capture, at the default event cap and
decimated under ``Probe(event_cap=1024)``.  Examples are derandomized,
so every run draws the same ones.
"""

from __future__ import annotations

import functools
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.artifacts import CaptureStore, decode_capture, encode_capture
from repro.core.errors import CacheCorruption
from repro.core.registry import get_benchmark, refrate_workload
from repro.machine.capture import TelemetryCapture, capture_execution
from repro.machine.telemetry import Probe

BENCH = "505.mcf_r"
PREFIX = 16  # magic, header length, payload length, CRC
VARIANTS = ("refrate", "refrate@1024")
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@functools.cache
def _real(variant: str) -> tuple[TelemetryCapture, bytes]:
    bench, workload = get_benchmark(BENCH), refrate_workload(BENCH)
    if variant == "refrate":
        capture = capture_execution(bench, workload)
    else:
        probe = Probe(event_cap=1024)
        bench.run(workload, probe)
        capture = TelemetryCapture.from_probe(BENCH, workload.name, probe)
    return capture, encode_capture(capture)


def _header_end(blob: bytes) -> int:
    return PREFIX + int.from_bytes(blob[4:8], "little")


def _decode_or_none(blob: bytes) -> TelemetryCapture | None:
    """The decoded capture, or ``None`` if decoding raised ``CacheCorruption``.

    Any other exception escapes and fails the test.
    """
    try:
        return decode_capture(blob)
    except CacheCorruption:
        return None


def _same_columns(a: TelemetryCapture, b: TelemetryCapture) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a.columns, b.columns))


def _same_capture(a: TelemetryCapture, b: TelemetryCapture) -> bool:
    fields = ("benchmark", "workload", "methods", "sampling_stride", "event_cap", "tick", "verified")
    return _same_columns(a, b) and all(getattr(a, f) == getattr(b, f) for f in fields)


@st.composite
def _corruption(draw, variant: str, region: str) -> bytes:
    """The blob with one byte of ``region`` ("head": prefix and header;
    "payload") replaced by a different value."""
    _, blob = _real(variant)
    lo, hi = (0, _header_end(blob)) if region == "head" else (_header_end(blob), len(blob))
    pos = draw(st.integers(lo, hi - 1))
    value = draw(st.integers(0, 255).filter(lambda v: v != blob[pos]))
    damaged = bytearray(blob)
    damaged[pos] = value
    return bytes(damaged)


@pytest.mark.parametrize("variant", VARIANTS)
@FUZZ
@given(data=st.data())
def test_every_truncation_raises_cache_corruption(variant, data):
    _, blob = _real(variant)
    cut = data.draw(st.integers(0, len(blob) - 1))
    with pytest.raises(CacheCorruption):
        decode_capture(blob[:cut])


@pytest.mark.parametrize("variant", VARIANTS)
@settings(FUZZ, max_examples=300)  # enough to hit a damaged "events" key
@given(data=st.data())
def test_header_corruption_never_changes_the_columns(variant, data):
    capture, _ = _real(variant)
    damaged = data.draw(_corruption(variant, "head"))
    decoded = _decode_or_none(damaged)
    assert decoded is None or _same_columns(decoded, capture)


@pytest.mark.parametrize("variant", VARIANTS)
@FUZZ
@given(data=st.data())
def test_payload_corruption_never_decodes_to_another_capture(variant, data):
    capture, _ = _real(variant)
    damaged = data.draw(_corruption(variant, "payload"))
    decoded = _decode_or_none(damaged)
    assert decoded is None or _same_capture(decoded, capture)


@settings(FUZZ, max_examples=40)
@given(data=st.data())
def test_store_quarantines_damaged_entries(data):
    _, blob = _real("refrate@1024")
    if data.draw(st.booleans()):
        damaged = blob[: data.draw(st.integers(0, len(blob) - 1))]
    else:
        region = data.draw(st.sampled_from(["head", "payload"]))
        damaged = data.draw(_corruption("refrate@1024", region))
    assume(_decode_or_none(damaged) is None)
    with tempfile.TemporaryDirectory() as root:
        store = CaptureStore(root)
        key = "ab" + "0" * 62
        store.put(key, damaged)
        assert store.get(key) is None
        assert store.quarantined_entries() == 1
        assert len(store) == 0
