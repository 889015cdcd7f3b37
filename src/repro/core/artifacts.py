"""Typed per-stage artifact stores for the staged pipeline.

:mod:`repro.core.cache` stores the *end product* of a cell — a
serialized :class:`~repro.machine.profiler.ExecutionProfile`, keyed by
(benchmark, workload, machine, version).  The staged pipeline also
needs to persist the *intermediate* artifact between capture and
replay: the machine-independent :class:`~repro.machine.capture.
TelemetryCapture`, keyed by :func:`~repro.core.cache.capture_key`
(no machine).  This module adds:

* a compact binary codec for captures (:func:`encode_capture` /
  :func:`decode_capture`) — JSON header for the per-method counters
  and decimation state, zlib-compressed raw int64 column bytes with a
  CRC for the event stream.  JSON would baloon the four event columns
  (hundreds of thousands of int64s) roughly 5x and round-trip slowly;
  raw little-endian column bytes restore with one ``frombuffer`` each;
* :class:`CaptureStore` — the on-disk store for encoded captures,
  with the same atomic-write and quarantine-on-corruption discipline
  as :class:`~repro.core.cache.ResultCache`;
* :class:`ArtifactStore` — the pair of per-stage stores the engine
  holds: ``profiles`` (the replay-stage artifact, one entry per
  machine/build) and ``captures`` (the capture-stage artifact, one
  entry per workload, shared by every machine/build that replays it).

Capture traffic is recorded in the metrics registry under
``store="capture"``, apart from the profile store's ``store="profile"``.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..machine.capture import TelemetryCapture
from ..machine.telemetry import MethodCounters
from .cache import CACHE_FORMAT, ResultCache, _EntryStore
from .errors import CacheCorruption

__all__ = [
    "CAPTURE_MAGIC",
    "encode_capture",
    "decode_capture",
    "CaptureStore",
    "ArtifactStore",
]

#: Leading bytes of every encoded capture; rev with the layout.
CAPTURE_MAGIC = b"RTC1"

_LEN_HEADER = struct.Struct("<II")  # header length, compressed payload length


def encode_capture(capture: TelemetryCapture) -> bytes:
    """Serialize a capture to the compact binary artifact format.

    Layout: ``CAPTURE_MAGIC``, two little-endian u32 lengths (JSON
    header, compressed payload), a u32 CRC-32 of the *uncompressed*
    column bytes, the JSON header, then the zlib-compressed
    concatenation of the four int64 event columns.  Everything the
    decoder needs to reject a damaged entry is self-contained.
    """
    cols = [np.ascontiguousarray(c, dtype=np.int64) for c in capture.columns]
    raw = b"".join(c.tobytes() for c in cols)
    header = json.dumps(
        {
            "format": CACHE_FORMAT,
            "benchmark": capture.benchmark,
            "workload": capture.workload,
            "verified": capture.verified,
            "sampling_stride": capture.sampling_stride,
            "event_cap": capture.event_cap,
            "tick": capture.tick,
            "events": int(len(cols[0])),
            "methods": [asdict(mc) for mc in capture.methods],
        },
        separators=(",", ":"),
    ).encode()
    payload = zlib.compress(raw, 6)
    return (
        CAPTURE_MAGIC
        + _LEN_HEADER.pack(len(header), len(payload))
        + struct.pack("<I", zlib.crc32(raw))
        + header
        + payload
    )


def decode_capture(blob: bytes) -> TelemetryCapture:
    """Reconstruct a capture; raises :class:`CacheCorruption` on damage.

    Every structural check — magic, declared lengths, format version,
    CRC over the decompressed columns, column count consistency, header
    fields — maps to the same exception, and so does any other failure
    to read a damaged blob, so stores can quarantine uniformly.  The
    CRC covers the columns only: a damaged header that still parses
    decodes to the same columns but may carry different counters.
    """
    if blob[: len(CAPTURE_MAGIC)] != CAPTURE_MAGIC:
        raise CacheCorruption("capture artifact: bad magic")
    offset = len(CAPTURE_MAGIC)
    try:
        header_len, payload_len = _LEN_HEADER.unpack_from(blob, offset)
        offset += _LEN_HEADER.size
        (crc,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        header = json.loads(blob[offset : offset + header_len])
        payload = blob[offset + header_len : offset + header_len + payload_len]
        if len(payload) != payload_len:
            raise CacheCorruption("capture artifact: truncated payload")
        raw = zlib.decompress(payload)
        if header.get("format") != CACHE_FORMAT:
            raise CacheCorruption(
                f"capture artifact: unsupported format {header.get('format')!r}"
            )
        if zlib.crc32(raw) != crc:
            raise CacheCorruption("capture artifact: CRC mismatch")
        n = header["events"]
        if len(raw) != 4 * 8 * n:
            raise CacheCorruption(
                f"capture artifact: expected {4 * 8 * n} column bytes, got {len(raw)}"
            )
        width = 8 * n
        columns = tuple(
            np.frombuffer(raw[i * width : (i + 1) * width], dtype=np.int64).copy()
            for i in range(4)
        )
        return TelemetryCapture(
            benchmark=header["benchmark"],
            workload=header["workload"],
            methods=tuple(MethodCounters(**mc) for mc in header["methods"]),
            columns=columns,  # type: ignore[arg-type]
            sampling_stride=header["sampling_stride"],
            event_cap=header["event_cap"],
            tick=header["tick"],
            verified=header["verified"],
        )
    except CacheCorruption:
        raise
    except (struct.error, zlib.error, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CacheCorruption(
            f"capture artifact: undecodable ({type(exc).__name__}: {exc})"
        ) from exc


class CaptureStore(_EntryStore):
    """Content-addressed on-disk store of encoded telemetry captures.

    The same atomic-write and quarantine-on-corruption discipline as
    :class:`~repro.core.cache.ResultCache` (both share one base), for
    ``.bin`` entries at ``<root>/<key[:2]>/<key>.bin``; a corrupt entry
    is renamed to ``*.bin.corrupt``.  Traffic is recorded under
    ``store="capture"``.

    :meth:`put` takes bytes that :func:`encode_capture` already made —
    the engine encodes where the capture was taken, often in a pool
    worker — so the store never encodes.  :meth:`get` still decodes,
    because decoding is where a damaged entry is detected.
    """

    # The decoder is looked up as a module global at call time, never
    # bound as a class attribute: perfbench/layers.py times decoding by
    # wrapping that module attribute.
    suffix = ".bin"
    store = "capture"

    def get(self, key: str) -> TelemetryCapture | None:
        """Look up a capture; a miss or corrupt entry returns None."""
        return self._lookup(key, decode_capture)

    def put(self, key: str, blob: bytes) -> None:
        """Store an :func:`encode_capture` blob under ``key`` (atomic replace)."""
        self._write(key, blob)


class ArtifactStore:
    """The engine's pair of per-stage stores under one cache root.

    ``profiles`` is the replay-stage store — one
    :class:`~repro.machine.profiler.ExecutionProfile` per (workload,
    machine, build) — and is the *same* :class:`ResultCache` object the
    caller handed the engine, so their ``cache.stats`` keep working.
    ``captures`` lives under ``<root>/capture/`` — one
    :class:`~repro.machine.capture.TelemetryCapture` per workload,
    shared across every machine/build.  The subdirectory is invisible
    to the profile store's ``*/*.json`` globs, so profile entry counts
    and :meth:`ResultCache.wipe` semantics are unchanged.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        profiles: ResultCache | None = None,
    ):
        if profiles is None:
            if root is None:
                raise ValueError("ArtifactStore: need a root or a ResultCache")
            profiles = ResultCache(root)
        self.profiles = profiles
        self.captures = CaptureStore(Path(profiles.root) / "capture")

    @property
    def root(self) -> Path:
        return self.profiles.root

    def wipe(self) -> int:
        """Wipe both stages; returns total live entries removed."""
        return self.profiles.wipe() + self.captures.wipe()
