"""Typed per-stage artifact stores for the staged pipeline.

:mod:`repro.core.cache` stores the *end product* of a cell: one
:class:`~repro.core.cache.ProfileEntry` per capture (and build), keyed
by :func:`~repro.core.cache.cache_key`, holding the profile of every
machine config that capture was replayed on.  The staged pipeline also
needs to persist the *intermediate* artifact between capture and
replay: the machine-independent :class:`~repro.machine.capture.
TelemetryCapture`, keyed by :func:`~repro.core.cache.capture_key`
(no machine).  This module adds:

* a compact binary codec for captures, RTC2 (:func:`encode_capture` /
  :func:`decode_capture`) — a JSON header for the per-method counters
  and decimation state, then the four event columns, each narrowed to
  the smallest integer dtype that holds it (``a`` delta-coded first)
  and compressed together with zlib level 3.  One CRC-32 covers the
  header and the payload and is checked before anything is parsed.
  JSON would balloon the columns (hundreds of thousands of values)
  roughly 5x and round-trip slowly; narrow little-endian column bytes
  restore with one ``frombuffer`` each;
* :class:`CaptureStore` — the on-disk store for encoded captures,
  with the same atomic-write and quarantine-on-corruption discipline
  as :class:`~repro.core.cache.ResultCache`;
* :class:`SetStore` — the member names of each generated Alberta set
  (:func:`encode_set` / :func:`decode_set`, checked by length and CRC-32
  before parsing like RTC2), so a pass whose cells all hit never
  generates the set;
* :class:`ArtifactStore` — the per-stage stores the engine holds:
  ``profiles`` (the replay-stage artifact, one entry per capture and
  build, one member per machine config), ``captures`` (the
  capture-stage artifact, one entry per workload, shared by every
  machine and build that replays it) and ``sets`` (one entry per
  benchmark and base seed).

Capture and set traffic is recorded in the metrics registry under
``store="capture"`` and ``store="set"``, apart from the profile
store's ``store="profile"``.
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
    "SET_MAGIC",
    "encode_set",
    "decode_set",
    "SetStore",
    "ArtifactStore",
]

#: Leading bytes of every encoded capture; rev with the layout.  Capture
#: keys carry it too (:func:`~repro.core.cache.capture_key`), so a new
#: layout is never asked to read an old one's entries.
CAPTURE_MAGIC = b"RTC2"

_PREFIX = struct.Struct("<4sIII")  # magic, header length, payload length, CRC-32
_LEVEL = 3  # zlib level: DESIGN.md §10 has the level table

#: Leading bytes of every encoded set entry.
SET_MAGIC = b"RSN1"
_SET_PREFIX = struct.Struct("<4sII")  # magic, body length, CRC-32 of the body

#: Column dtypes a header may name, narrowest first; all little-endian.
_DTYPES = {name: np.dtype(name).newbyteorder("<") for name in ("int8", "int16", "int32", "int64")}


def _narrowest(column: np.ndarray) -> str:
    """Name of the narrowest allowed dtype that holds every value of ``column``."""
    lo, hi = (column.min(), column.max()) if len(column) else (0, 0)
    return next(
        name for name, dt in _DTYPES.items() if np.iinfo(dt).min <= lo and hi <= np.iinfo(dt).max
    )


def encode_capture(capture: TelemetryCapture) -> bytes:
    """Serialize a capture to the compact binary artifact format (RTC2).

    Layout: ``CAPTURE_MAGIC``; three little-endian u32s (JSON header
    length, payload length, CRC-32 of header and payload together); the
    JSON header; then the payload, ``zlib.compress`` at level 3 of the
    four event columns back to back.  Each column is stored in the
    narrowest of int8/16/32/64 that holds it, named in the header's
    ``dtypes``.  ``a`` is stored as successive differences (the first
    value as is), which wrap mod 2**64 like the ``cumsum`` that undoes
    them, so the round trip is exact for any int64 column.
    """
    method, kind, a, b = (np.asarray(c, dtype=np.int64) for c in capture.columns)
    stored = (method, kind, np.diff(a, prepend=np.int64(0)), b)
    dtypes = [_narrowest(c) for c in stored]
    header = json.dumps(
        {
            "format": CACHE_FORMAT,
            "benchmark": capture.benchmark,
            "workload": capture.workload,
            "verified": capture.verified,
            "sampling_stride": capture.sampling_stride,
            "event_cap": capture.event_cap,
            "tick": capture.tick,
            "events": len(a),
            "dtypes": dtypes,
            "methods": [asdict(mc) for mc in capture.methods],
        },
        separators=(",", ":"),
    ).encode()
    payload = zlib.compress(
        b"".join(c.astype(_DTYPES[d]).tobytes() for c, d in zip(stored, dtypes)), _LEVEL
    )
    crc = zlib.crc32(payload, zlib.crc32(header))
    return _PREFIX.pack(CAPTURE_MAGIC, len(header), len(payload), crc) + header + payload


def decode_capture(blob: bytes) -> TelemetryCapture:
    """Reconstruct a capture; raises :class:`CacheCorruption` on damage.

    The magic, the exact blob length the prefix declares and the CRC
    over header and payload are checked before anything is parsed, so
    a truncated or altered blob never reaches the JSON or zlib readers.
    Past them every failure (format version, dtype names, column
    lengths, header fields) maps to the same exception, so stores can
    quarantine uniformly.
    """
    if len(blob) < _PREFIX.size:
        raise CacheCorruption("capture artifact: truncated prefix")
    magic, header_len, payload_len, crc = _PREFIX.unpack_from(blob)
    if magic != CAPTURE_MAGIC:
        raise CacheCorruption("capture artifact: bad magic")
    if len(blob) != _PREFIX.size + header_len + payload_len:
        raise CacheCorruption(
            f"capture artifact: {len(blob)} bytes, prefix declares "
            f"{_PREFIX.size + header_len + payload_len}"
        )
    body = memoryview(blob)[_PREFIX.size :]
    if zlib.crc32(body) != crc:
        raise CacheCorruption("capture artifact: CRC mismatch")
    try:
        header = json.loads(bytes(body[:header_len]))
        if header["format"] != CACHE_FORMAT:
            raise CacheCorruption(f"capture artifact: unsupported format {header['format']!r}")
        dtypes = [_DTYPES[name] for name in header["dtypes"]]
        n = header["events"]
        if len(dtypes) != 4 or not isinstance(n, int) or n < 0:
            raise CacheCorruption("capture artifact: bad column description")
        raw = zlib.decompress(body[header_len:])
        if len(raw) != n * sum(dt.itemsize for dt in dtypes):
            raise CacheCorruption(f"capture artifact: {len(raw)} column bytes for {n} events")
        columns, offset = [], 0
        for dt in dtypes:
            columns.append(np.frombuffer(raw, dtype=dt, count=n, offset=offset).astype(np.int64))
            offset += n * dt.itemsize
        columns[2] = np.cumsum(columns[2], dtype=np.int64)
        return TelemetryCapture(
            benchmark=header["benchmark"],
            workload=header["workload"],
            methods=tuple(MethodCounters(**mc) for mc in header["methods"]),
            columns=tuple(columns),  # type: ignore[arg-type]
            sampling_stride=header["sampling_stride"],
            event_cap=header["event_cap"],
            tick=header["tick"],
            verified=header["verified"],
        )
    except CacheCorruption:
        raise
    except (zlib.error, ValueError, KeyError, TypeError, AttributeError) as exc:
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


def encode_set(benchmark_id: str, base_seed: int, names: "list[str]") -> bytes:
    """Serialize one Alberta set's member names: ``SET_MAGIC``, two u32s
    (body length and CRC-32 of the body), then the JSON body."""
    body = json.dumps(
        {"format": CACHE_FORMAT, "benchmark": benchmark_id, "base_seed": base_seed,
         "names": list(names)},
        separators=(",", ":"),
    ).encode()
    return _SET_PREFIX.pack(SET_MAGIC, len(body), zlib.crc32(body)) + body


def decode_set(blob: bytes, benchmark_id: str, base_seed: int) -> "list[str]":
    """The member names of ``benchmark_id``'s set at ``base_seed``.

    Raises :class:`CacheCorruption` on any damage, and on an entry for
    another set.  The magic, the length and the CRC are checked before
    the body is parsed.
    """
    if len(blob) < _SET_PREFIX.size:
        raise CacheCorruption("set entry: truncated prefix")
    magic, length, crc = _SET_PREFIX.unpack_from(blob)
    body = blob[_SET_PREFIX.size :]
    if magic != SET_MAGIC or len(body) != length or zlib.crc32(body) != crc:
        raise CacheCorruption("set entry: bad magic, length or CRC")
    try:
        doc = json.loads(body)
        names = doc["names"]
        ok = (
            doc["format"] == CACHE_FORMAT
            and doc["benchmark"] == benchmark_id
            and doc["base_seed"] == base_seed
            and isinstance(names, list)
            and all(isinstance(n, str) and n for n in names)
            and len(set(names)) == len(names)
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise CacheCorruption(f"set entry: undecodable ({type(exc).__name__}: {exc})") from exc
    if not ok:
        raise CacheCorruption(f"set entry: not the member list of {benchmark_id} at seed {base_seed}")
    return names


class SetStore(_EntryStore):
    """On-disk member names of generated Alberta sets, by :func:`~repro.core.
    cache.set_key`.

    ``.set`` entries at ``<root>/<key[:2]>/<key>.set`` with the shared
    atomic-write and quarantine discipline; traffic is recorded under
    ``store="set"``.  Not a :class:`ResultCache`, whose traffic is the
    profile store's.
    """

    suffix = ".set"
    store = "set"

    def get(self, key: str, benchmark_id: str, base_seed: int) -> "list[str] | None":
        """The set's names; a miss or a damaged entry returns None."""
        return self._lookup(key, lambda raw: decode_set(raw, benchmark_id, base_seed))

    def put(self, key: str, benchmark_id: str, base_seed: int, names: "list[str]") -> None:
        self._write(key, encode_set(benchmark_id, base_seed, names))


class ArtifactStore:
    """The engine's per-stage stores under one cache root.

    ``profiles`` is the replay-stage store — one
    :class:`~repro.core.cache.ProfileEntry` per (workload, build),
    holding a member per machine config — and is the *same*
    :class:`ResultCache` object the caller handed the engine.
    ``captures`` lives under ``<root>/capture/`` — one
    :class:`~repro.machine.capture.TelemetryCapture` per workload,
    shared across every machine and build — and ``sets`` under
    ``<root>/set/``.  The profile store's ``*/*.prof`` globs do not
    reach the capture and set entries a level further down, so those
    never count as profile entries and :meth:`ResultCache.wipe` never
    removes them.
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
        self.sets = SetStore(Path(profiles.root) / "set")

    @property
    def root(self) -> Path:
        return self.profiles.root

    def wipe(self) -> int:
        """Wipe every store; returns total live entries removed."""
        return self.profiles.wipe() + self.captures.wipe() + self.sets.wipe()
