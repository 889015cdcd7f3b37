"""Property tests of the capture codec: round trips and damaged blobs.

Any capture, however odd its columns and counters, must come back from
:func:`encode_capture` / :func:`decode_capture` exactly, and each column
must be stored in the narrowest dtype that holds it.

A stored capture can also be truncated by a crashed writer or
corrupted on disk.  RTC2 checks the exact blob length and one CRC-32
over the header and the payload before it parses anything, so no
damage ever decodes: every truncation and every single-byte change
anywhere in the blob raises :class:`CacheCorruption`, the only
exception :func:`decode_capture` may raise, and :class:`CaptureStore`
then quarantines the entry and reports a miss.

The damaged blobs are mcf's refrate capture, at the default event cap
and decimated under ``Probe(event_cap=1024)``.  Examples are
derandomized, so every run draws the same ones.
"""

from __future__ import annotations

import functools
import json
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.artifacts import CaptureStore, decode_capture, encode_capture
from repro.core.errors import CacheCorruption
from repro.core.registry import get_benchmark, refrate_workload
from repro.machine.capture import TelemetryCapture, capture_execution
from repro.machine.telemetry import MethodCounters, Probe

try:
    from tests.test_capture_digests import canonical_form
except ImportError:  # running with tests/ itself on sys.path
    from test_capture_digests import canonical_form

BENCH = "505.mcf_r"
PREFIX = 16  # magic, header length, payload length, CRC
VARIANTS = ("refrate", "refrate@1024")
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150)

# ------------------------------------------------ round trips of any capture

#: The dtypes a column may be stored in, narrowest first, with their ranges.
WIDTHS = {f"int{w}": (-(2 ** (w - 1)), 2 ** (w - 1) - 1) for w in (8, 16, 32, 64)}
INT64_MIN, INT64_MAX = WIDTHS["int64"]


def _capture(columns, methods=(), **fields) -> TelemetryCapture:
    return TelemetryCapture(
        benchmark=fields.get("benchmark", "b"),
        workload=fields.get("workload", "w"),
        methods=tuple(methods),
        columns=tuple(np.array(c, dtype=np.int64) for c in columns),
        sampling_stride=fields.get("sampling_stride", 1),
        event_cap=fields.get("event_cap", 1024),
        tick=fields.get("tick", 0),
        verified=fields.get("verified", True),
    )


@st.composite
def _columns(draw, n: int) -> list[int]:
    lo, hi = draw(st.sampled_from(list(WIDTHS.values())))
    return draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))


_ANY_INT = st.integers()  # JSON keeps Python ints of any size exactly
_METHODS = st.lists(
    st.builds(
        MethodCounters,
        name=st.text(max_size=8),
        index=_ANY_INT,
        code_base=_ANY_INT,
        code_bytes=_ANY_INT,
        calls=_ANY_INT,
        int_ops=_ANY_INT,
        fp_ops=_ANY_INT,
        fpdiv_ops=_ANY_INT,
        branches=_ANY_INT,
        branches_taken=_ANY_INT,
        loads=_ANY_INT,
        stores=_ANY_INT,
        extra=st.dictionaries(st.text(max_size=6), _ANY_INT, max_size=3),
    ),
    max_size=4,
)


@st.composite
def _captures(draw) -> TelemetryCapture:
    n = draw(st.integers(0, 40))
    return _capture(
        [draw(_columns(n)) for _ in range(4)],
        draw(_METHODS),
        benchmark=draw(st.text(max_size=8)),
        workload=draw(st.text(max_size=8)),
        sampling_stride=draw(_ANY_INT),
        event_cap=draw(_ANY_INT),
        tick=draw(_ANY_INT),
        verified=draw(st.booleans()),
    )


def _stored_dtypes(blob: bytes) -> list[str]:
    header_len = int.from_bytes(blob[4:8], "little")
    return json.loads(blob[PREFIX : PREFIX + header_len])["dtypes"]


@FUZZ
@given(capture=_captures())
@example(capture=_capture([[]] * 4))
@example(capture=_capture([[7], [-1], [INT64_MIN], [INT64_MAX]]))
@example(capture=_capture([[INT64_MIN, INT64_MAX]] * 4))
@example(capture=_capture([[0, 0, 0], [1, 1, 1], [INT64_MIN, INT64_MAX, INT64_MIN], [0, 1, 0]]))
@example(capture=_capture([[0, 0], [0, 0], [INT64_MAX, -1], [0, 0]]))
def test_any_capture_round_trips_in_its_narrowest_dtypes(capture):
    blob = encode_capture(capture)
    assert canonical_form(decode_capture(blob)) == canonical_form(capture)
    method, kind, a, b = (c.tolist() for c in capture.columns)
    # ``a`` is stored as differences that wrap mod 2**64, like int64 math.
    deltas = [
        (x - prev + 2**63) % 2**64 - 2**63 for prev, x in zip([0] + a, a)
    ]
    for name, values in zip(_stored_dtypes(blob), (method, kind, deltas, b)):
        fits = [w for w, (lo, hi) in WIDTHS.items() if all(lo <= v <= hi for v in values)]
        assert name == fits[0], (name, values)


# ------------------------------------------------------ damaged real blobs


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
@settings(FUZZ, max_examples=300)
@given(data=st.data())
def test_header_corruption_never_decodes(variant, data):
    damaged = data.draw(_corruption(variant, "head"))
    with pytest.raises(CacheCorruption):
        decode_capture(damaged)


@pytest.mark.parametrize("variant", VARIANTS)
@FUZZ
@given(data=st.data())
def test_payload_corruption_never_decodes(variant, data):
    damaged = data.draw(_corruption(variant, "payload"))
    with pytest.raises(CacheCorruption):
        decode_capture(damaged)


@settings(FUZZ, max_examples=40)
@given(data=st.data())
def test_store_quarantines_damaged_entries(data):
    _, blob = _real("refrate@1024")
    if data.draw(st.booleans()):
        damaged = blob[: data.draw(st.integers(0, len(blob) - 1))]
    else:
        region = data.draw(st.sampled_from(["head", "payload"]))
        damaged = data.draw(_corruption("refrate@1024", region))
    with tempfile.TemporaryDirectory() as root:
        store = CaptureStore(root)
        key = "ab" + "0" * 62
        store.put(key, damaged)
        assert store.get(key) is None
        assert store.quarantined_entries() == 1
        assert len(store) == 0
