"""Content-addressed on-disk cache for characterization results.

Re-running Table II, the figures, or the studies repeats the exact same
(benchmark, workload) executions; since the whole pipeline is
deterministic (see DESIGN.md §6), every :class:`ExecutionProfile` is a
pure function of four inputs:

* the benchmark id,
* the workload content (name, seed, params, and a digest of the
  payload itself),
* the machine configuration,
* the repro version (the cost model may change between releases).

:func:`cache_key` hashes those four inputs into a stable SHA-256 key
and :class:`ResultCache` stores the profile (minus the benchmark
output, which the summaries never read) as JSON under
``<root>/<key[:2]>/<key>.json``.  JSON floats round-trip exactly
(``repr`` is shortest-round-trip), so a cached profile reconstructs the
summaries bit-identically.

Cache traffic (hits / misses / bytes / quarantines) is recorded in the
metrics registry (:mod:`repro.core.metrics`) under ``store="profile"``;
callers read it from a collector, not from the cache object.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections.abc import Callable, Iterator, Mapping, Set
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path
from typing import Any

from . import metrics
from ..machine.cache import HierarchyStats
from ..machine.cost import MachineConfig, MachineReport, MethodCost
from ..machine.profiler import ExecutionProfile
from .coverage import CoverageProfile
from .errors import CacheCorruption
from .topdown import TopDownVector
from .workload import Workload

__all__ = [
    "CACHE_FORMAT",
    "payload_digest",
    "workload_fingerprint",
    "cache_key",
    "capture_key",
    "profile_to_dict",
    "profile_from_dict",
    "ResultCache",
]

#: Bump when the serialized profile layout changes; part of every key.
CACHE_FORMAT = 1


# --------------------------------------------------------------- hashing


def _update(h: "hashlib._Hash", obj: Any) -> None:
    """Feed a canonical, type-tagged encoding of ``obj`` into ``h``.

    Equal values produce equal streams regardless of how they were
    built; mappings are visited in sorted key order and sets as sorted
    element digests, so insertion order never leaks into the hash.
    """
    if obj is None:
        h.update(b"N;")
    elif isinstance(obj, bool):
        h.update(b"T;" if obj else b"F;")
    elif isinstance(obj, int):
        h.update(b"i%d;" % obj)
    elif isinstance(obj, float):
        h.update(b"f" + repr(obj).encode() + b";")
    elif isinstance(obj, str):
        raw = obj.encode()
        h.update(b"s%d:" % len(raw))
        h.update(raw)
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        raw = bytes(obj)
        h.update(b"b%d:" % len(raw))
        h.update(raw)
    elif isinstance(obj, (list, tuple)):
        h.update(b"l")
        for item in obj:
            _update(h, item)
        h.update(b"e")
    elif isinstance(obj, Mapping):
        h.update(b"d")
        for key in sorted(obj, key=lambda k: (type(k).__name__, repr(k))):
            _update(h, key)
            _update(h, obj[key])
        h.update(b"e")
    elif isinstance(obj, (set, frozenset, Set)):
        h.update(b"S")
        for digest in sorted(payload_digest(item) for item in obj):
            h.update(digest.encode())
        h.update(b"e")
    elif is_dataclass(obj) and not isinstance(obj, type):
        h.update(b"D" + type(obj).__name__.encode() + b":")
        for f in fields(obj):
            _update(h, f.name)
            _update(h, getattr(obj, f.name))
        h.update(b"e")
    elif type(obj).__module__ == "numpy" and hasattr(obj, "tobytes"):
        h.update(b"A" + str(obj.dtype).encode() + repr(obj.shape).encode() + b":")
        h.update(obj.tobytes())
    else:
        rep = repr(obj)
        if " at 0x" in rep:
            raise TypeError(
                f"payload_digest: {type(obj).__name__} has no value-based repr; "
                "add a dataclass wrapper or a stable __repr__"
            )
        h.update(b"r" + rep.encode() + b";")


def payload_digest(obj: Any) -> str:
    """SHA-256 hex digest of a canonical encoding of any payload value."""
    h = hashlib.sha256()
    _update(h, obj)
    return h.hexdigest()


def workload_fingerprint(workload: Workload) -> dict[str, Any]:
    """The workload identity that participates in the cache key."""
    return {
        "name": workload.name,
        "benchmark": workload.benchmark,
        "kind": workload.kind,
        "seed": workload.seed,
        "params": payload_digest(dict(workload.params)),
        "payload": payload_digest(workload.payload),
    }


def _descriptor_tokens(benchmark_id: str) -> dict[str, str]:
    """Registry descriptor tokens that join this benchmark's cache keys.

    Empty for descriptors at ``version=1`` (and for benchmark ids the
    registry has never heard of — keys must stay computable for
    synthetic test benchmarks), so pre-registry cache entries keep
    their exact keys.  A descriptor version bump makes its token
    non-``None``, which shows up here and invalidates exactly that
    scenario's artifacts.
    """
    from .registry import REGISTRY

    return REGISTRY.cache_tokens(benchmark_id)


def cache_key(
    benchmark_id: str,
    workload: Workload,
    machine: MachineConfig | None = None,
    *,
    build: str | None = None,
) -> str:
    """Stable key for one (benchmark, workload, machine, version) cell.

    ``build`` is an optional digest of a build transformation (e.g. an
    FDO profile — see :meth:`repro.fdo.optimizer.FdoBuild.digest`) that
    changes the replay but not the capture.  ``None`` (the baseline
    build) hashes exactly as before, so caches populated prior to this
    field stay warm.

    Registry descriptor versions join the key the same way: only
    non-``None`` :meth:`~repro.core.registry.Descriptor.cache_token`
    values (version > 1) are folded in, so unchanged descriptors keep
    every pre-existing key byte-identical.
    """
    from .. import __version__

    ident: dict[str, Any] = {
        "format": CACHE_FORMAT,
        "version": __version__,
        "benchmark": benchmark_id,
        "workload": workload_fingerprint(workload),
        "machine": asdict(machine or MachineConfig()),
    }
    tokens = _descriptor_tokens(benchmark_id)
    if tokens:
        ident["descriptors"] = tokens
    if build is not None:
        ident["build"] = build
    h = hashlib.sha256()
    _update(h, ident)
    return h.hexdigest()


def capture_key(benchmark_id: str, workload: Workload) -> str:
    """Stable key for one captured telemetry stream.

    Deliberately *machine-independent*: the capture stage records what
    the benchmark did, not how a machine would execute it, so the key
    covers only the benchmark id, the workload content, the artifact
    format, the capture codec, and the repro version — plus, like
    :func:`cache_key`, any non-baseline registry descriptor tokens.
    Every machine config (and every FDO build) replays the same
    capture.  The codec token is the codec's magic, so a new capture
    layout misses on old entries while profile keys stay warm.
    """
    from .. import __version__
    from .artifacts import CAPTURE_MAGIC

    ident: dict[str, Any] = {
        "format": CACHE_FORMAT,
        "version": __version__,
        "stage": "capture",
        "codec": CAPTURE_MAGIC.decode(),
        "benchmark": benchmark_id,
        "workload": workload_fingerprint(workload),
    }
    tokens = _descriptor_tokens(benchmark_id)
    if tokens:
        ident["descriptors"] = tokens
    h = hashlib.sha256()
    _update(h, ident)
    return h.hexdigest()


# --------------------------------------------------------- serialization


def profile_to_dict(profile: ExecutionProfile) -> dict[str, Any]:
    """Serialize a profile (minus its benchmark ``output``) to plain JSON.

    The output object is intentionally dropped: summaries only read the
    machine report, and outputs can be arbitrarily large.  A profile
    restored from the cache therefore has ``output=None``.
    """
    report = profile.report
    td = report.topdown
    return {
        "format": CACHE_FORMAT,
        "benchmark": profile.benchmark,
        "workload": profile.workload,
        "verified": profile.verified,
        "report": {
            "topdown": [td.front_end, td.back_end, td.bad_speculation, td.retiring],
            "coverage": dict(report.coverage.fractions),
            "cycles": report.cycles,
            "seconds": report.seconds,
            "per_method": {name: asdict(mc) for name, mc in report.per_method.items()},
            "cache_stats": asdict(report.cache_stats),
            "branch_misprediction_rate": report.branch_misprediction_rate,
            "sampling_stride": report.sampling_stride,
            "counters": dict(report.counters),
        },
    }


def profile_from_dict(data: Any) -> ExecutionProfile:
    """Reconstruct an :class:`ExecutionProfile` from :func:`profile_to_dict`.

    Raises :class:`~repro.core.errors.CacheCorruption` (a ``ValueError``
    subclass, for compatibility) on an unrecognized layout, including a
    document that is not an object at all.
    """
    if not isinstance(data, Mapping):
        raise CacheCorruption(f"cache entry is a JSON {type(data).__name__}, not an object")
    if data.get("format") != CACHE_FORMAT:
        raise CacheCorruption(f"unsupported cache entry format {data.get('format')!r}")
    rep = data["report"]
    f, b, s, r = rep["topdown"]
    report = MachineReport(
        topdown=TopDownVector(front_end=f, back_end=b, bad_speculation=s, retiring=r),
        coverage=CoverageProfile(dict(rep["coverage"])),
        cycles=rep["cycles"],
        seconds=rep["seconds"],
        per_method={name: MethodCost(**mc) for name, mc in rep["per_method"].items()},
        cache_stats=HierarchyStats(**rep["cache_stats"]),
        branch_misprediction_rate=rep["branch_misprediction_rate"],
        sampling_stride=rep["sampling_stride"],
        counters=dict(rep["counters"]),
    )
    return ExecutionProfile(
        benchmark=data["benchmark"],
        workload=data["workload"],
        report=report,
        output=None,
        verified=data["verified"],
    )


# ----------------------------------------------------------------- cache


class _EntryStore:
    """Content-addressed on-disk entries: the code both stage stores share.

    Entries live at ``<root>/<key[:2]>/<key><suffix>`` and are written
    atomically (temp file + ``os.replace``), so concurrent writers of
    the *same* key are safe — last writer wins with identical content.
    An entry that exists but cannot be decoded is quarantined (renamed
    to ``*<suffix>.corrupt``) and reads as a miss.  Every lookup, write
    and quarantine is recorded in the metrics registry under the
    subclass's ``store`` label, each at exactly one call site below.
    """

    suffix: str
    store: str

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{self.suffix}"

    def _lookup(self, key: str, decode: Callable[[bytes], Any]) -> Any:
        """Read and decode one entry; ``None`` on a miss or a quarantine."""
        path = self._path(key)
        started = time.perf_counter()
        try:
            raw = path.read_bytes()
        except OSError:
            self._settle("miss", started)
            return None
        try:
            value = decode(raw)
        except (ValueError, KeyError, TypeError):
            # Includes json.JSONDecodeError and CacheCorruption.
            self._quarantine(path)
            self._settle("miss", started)
            return None
        self._settle("hit", started)
        metrics.inc(metrics.CACHE_IO_BYTES_TOTAL, len(raw), store=self.store, direction="read")
        return value

    def _settle(self, result: str, started: float) -> None:
        """Record one lookup's latency and its hit/miss event."""
        metrics.observe(
            metrics.CACHE_LOOKUP_SECONDS,
            time.perf_counter() - started,
            store=self.store,
            result=result,
        )
        metrics.inc(metrics.CACHE_EVENTS_TOTAL, store=self.store, event=result)

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside (best effort) and count it."""
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:  # pragma: no cover - racing unlink/permissions
            pass
        metrics.inc(metrics.CACHE_EVENTS_TOTAL, store=self.store, event="quarantined")

    def _write(self, key: str, raw: bytes) -> None:
        """Store encoded bytes under ``key`` (atomic replace)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_bytes(raw)
        os.replace(tmp, path)
        metrics.inc(metrics.CACHE_EVENTS_TOTAL, store=self.store, event="write")
        metrics.inc(metrics.CACHE_IO_BYTES_TOTAL, len(raw), store=self.store, direction="write")

    def _entries(self) -> Iterator[Path]:
        return self.root.glob(f"*/*{self.suffix}")

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def total_bytes(self) -> int:
        return sum(p.stat().st_size for p in self._entries())

    def quarantined_entries(self) -> int:
        """How many corrupt entries have been moved aside on disk."""
        return sum(1 for _ in self.root.glob(f"*/*{self.suffix}.corrupt"))

    def wipe(self) -> int:
        """Delete every entry (and quarantined ``*.corrupt`` remains);
        returns the number of live entries removed."""
        n = 0
        for path in self.root.glob(f"*/*{self.suffix}.corrupt"):
            path.unlink(missing_ok=True)
        for path in self._entries():
            path.unlink(missing_ok=True)
            n += 1
        for shard in self.root.glob("*"):
            if shard.is_dir():
                try:
                    shard.rmdir()
                except OSError:
                    pass
        return n


def _decode_profile(raw: bytes) -> ExecutionProfile:
    return profile_from_dict(json.loads(raw))


class ResultCache(_EntryStore):
    """Content-addressed on-disk store of serialized execution profiles.

    Entries live at ``<root>/<key[:2]>/<key>.json``; a corrupt or
    truncated entry is quarantined to ``*.json.corrupt``, reads as a
    miss, and is re-created by the next :meth:`put`.  Traffic is
    recorded under ``store="profile"``.

    Invalidation is purely key-based: any change to the workload
    content, machine config, serialization format, or repro version
    produces a different key, and stale entries are simply never read
    again.  :meth:`wipe` removes everything under the root.
    """

    suffix = ".json"
    store = "profile"

    def get(self, key: str) -> ExecutionProfile | None:
        """Look up a profile; a miss (or unreadable entry) returns None.

        An entry that exists but cannot be decoded — truncated write,
        bit rot, foreign format — is *quarantined*: renamed to
        ``<key>.json.corrupt`` so the evidence survives for inspection,
        counted as ``repro_cache_events_total{event="quarantined"}``,
        and reported as a miss so the cell is simply re-profiled (and
        re-cached) instead of crashing the run.
        """
        return self._lookup(key, _decode_profile)

    def put(
        self,
        key: str,
        profile: ExecutionProfile,
        *,
        replay_mode: str | None = None,
    ) -> None:
        """Store a profile under ``key`` (atomic replace).

        ``replay_mode`` records provenance in the envelope — whether the
        profile came from a ``"batched"`` multi-config replay or a
        ``"per-config"`` one.  The two are bit-identical, so the key is
        purely informational (``repro cache info`` reports the counts)
        and readers ignore it.
        """
        payload = profile_to_dict(profile)
        if replay_mode is not None:
            payload["replay_mode"] = replay_mode
        self._write(key, json.dumps(payload, separators=(",", ":")).encode())

    def replay_modes(self) -> dict[str, int]:
        """Provenance counts over stored entries: how many profiles were
        written by a ``"batched"`` multi-config replay, a ``"per-config"``
        replay, or predate the envelope key (``"unlabeled"``).  An entry
        that is not a JSON object is counted in none of them."""
        counts = {"batched": 0, "per-config": 0, "unlabeled": 0}
        for path in self._entries():
            try:
                entry = json.loads(path.read_bytes())
            except (OSError, ValueError):
                continue
            if not isinstance(entry, Mapping):
                continue
            mode = entry.get("replay_mode")
            if mode in ("batched", "per-config"):
                counts[mode] += 1
            else:
                counts["unlabeled"] += 1
        return counts
