"""Code-derived keys and the on-disk store of characterization results.

Re-running Table II, the figures, or the studies repeats the exact same
(benchmark, workload) executions; since the whole pipeline is
deterministic (see DESIGN.md §6), every stored artifact is a pure
function of its inputs and of the code that made it.  Keys name both:

* a capture's *identity* is the capture code fingerprint
  (:func:`capture_fingerprint`: the source of the benchmark's and its
  generator's modules, :data:`CAPTURE_MODULES`, NumPy's and Python's
  versions), the benchmark id and the workload.  A workload that
  :func:`~repro.core.registry.alberta_workloads` generated is named by
  its recipe, its base seed and name (:class:`~repro.core.workload.
  AlbertaRef`), so it can be keyed without generating it; any other
  workload by its content (name, seed, params and a digest of the
  payload itself);
* :func:`capture_key` adds the capture codec to the identity;
* :func:`cache_key`, a profile's key, adds the machine configuration,
  the build digest, :data:`CACHE_FORMAT` and the replay code fingerprint
  (:func:`replay_fingerprint`, over :data:`REPLAY_MODULES`);
* :func:`set_key` names one Alberta set's member list by the capture
  code fingerprint, the benchmark and the base seed.

Module sources are read once per process, and each machine config is
hashed once.  An edit to any module a stage depends on turns that
stage's artifacts cold; nothing is bumped by hand.

:class:`ResultCache` stores a profile (minus the benchmark output,
which the summaries never read) as JSON under
``<root>/<key[:2]>/<key>.json``.  JSON floats round-trip exactly
(``repr`` is shortest-round-trip), so a cached profile reconstructs the
summaries bit-identically.

Cache traffic (hits / misses / bytes / quarantines) is recorded in the
metrics registry (:mod:`repro.core.metrics`) under ``store="profile"``;
callers read it from a collector, not from the cache object.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import secrets
import sys
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
from .workload import AlbertaRef, Workload

__all__ = [
    "CACHE_FORMAT",
    "CAPTURE_MODULES",
    "REPLAY_MODULES",
    "payload_digest",
    "workload_fingerprint",
    "capture_fingerprint",
    "replay_fingerprint",
    "cache_key",
    "capture_key",
    "set_key",
    "profile_to_dict",
    "profile_from_dict",
    "ResultCache",
]

#: Bump when the serialized profile layout changes; part of every key.
CACHE_FORMAT = 1

#: The modules every capture runs through besides its benchmark's and its
#: generator's own.  A benchmark or generator module may import only
#: these, ``repro.core.registry`` and ``repro.core.errors`` from the
#: package (a test checks), so the capture fingerprint covers its code.
CAPTURE_MODULES = (
    "repro.benchmarks.base",
    "repro.core.artifacts",
    "repro.core.workload",
    "repro.machine.capture",
    "repro.machine.telemetry",
    "repro.workloads.base",
)

#: The modules a replay runs, from a capture to a stored profile.
REPLAY_MODULES = (
    "repro.core.cache",
    "repro.core.coverage",
    "repro.core.topdown",
    "repro.fdo.optimizer",
    "repro.fdo.profile_data",
    "repro.machine.batch",
    "repro.machine.cache",
    "repro.machine.capture",
    "repro.machine.cost",
    "repro.machine.kernel",
    "repro.machine.profiler",
    "repro.machine.telemetry",
)


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


@functools.lru_cache(maxsize=None)
def _module_digest(name: str) -> str:
    """SHA-256 of one module's source file, read once per process."""
    module = importlib.import_module(name)
    try:
        return hashlib.sha256(Path(module.__file__).read_bytes()).hexdigest()
    except (AttributeError, TypeError, OSError):
        # No source file (a module built in memory): nothing vouches that
        # another process runs the same code, so no other process's keys
        # match this one's.
        return f"unread:{secrets.token_hex(16)}"


@functools.lru_cache(maxsize=None)
def _code_digest(modules: tuple[str, ...]) -> str:
    return payload_digest({name: _module_digest(name) for name in modules})


def capture_fingerprint(benchmark_id: str) -> str:
    """Digest of the code one benchmark's captures and Alberta sets come from.

    Covers the modules of the benchmark's and its generator's registered
    factories (so a plugin's own modules count), :data:`CAPTURE_MODULES`,
    NumPy's version (generators draw from its RNG streams) and Python's
    minor version.  An unregistered benchmark id covers only the shared
    modules and the versions.
    """
    import numpy
    from .registry import REGISTRY

    modules = set(CAPTURE_MODULES)
    for kind in ("benchmark", "generator"):
        d = REGISTRY.find(kind, benchmark_id)
        if d is not None and d.factory is not None:
            modules.add(getattr(d.factory, "__module__", None) or "__main__")
    runtime = f"numpy {numpy.__version__}, python {sys.version_info[0]}.{sys.version_info[1]}"
    return f"{_code_digest(tuple(sorted(modules)))}/{runtime}"


@functools.lru_cache(maxsize=None)
def replay_fingerprint() -> str:
    """Digest of the code of :data:`REPLAY_MODULES`, read once per process."""
    return _code_digest(REPLAY_MODULES)


@functools.lru_cache(maxsize=None)
def _machine_digest(machine: MachineConfig | None) -> str:
    return payload_digest(asdict(machine or MachineConfig()))


def _code_identity(benchmark_id: str) -> dict[str, Any]:
    """What every key of one benchmark's artifacts starts from.

    Registry descriptor versions above 1 still join it as tokens.
    """
    from .registry import REGISTRY

    ident: dict[str, Any] = {
        "format": CACHE_FORMAT,
        "code": capture_fingerprint(benchmark_id),
        "benchmark": benchmark_id,
    }
    tokens = REGISTRY.cache_tokens(benchmark_id)
    if tokens:
        ident["descriptors"] = tokens
    return ident


def _capture_identity(benchmark_id: str, workload: Workload | AlbertaRef) -> dict[str, Any]:
    """A capture's identity: by recipe for an Alberta workload, else by content.

    A workload stamped with another benchmark's recipe keys by content,
    since this benchmark's fingerprint does not cover that generator.
    """
    ident = _code_identity(benchmark_id)
    ref = workload if isinstance(workload, AlbertaRef) else workload.alberta
    if ref is not None and ref.benchmark == benchmark_id:
        ident["base_seed"] = ref.base_seed
        ident["name"] = ref.name
    else:
        ident["workload"] = workload_fingerprint(workload)
    return ident


def cache_key(
    benchmark_id: str,
    workload: Workload | AlbertaRef,
    machine: MachineConfig | None = None,
    *,
    build: str | None = None,
) -> str:
    """Stable key for one stored profile: a capture replayed on one machine.

    The capture's identity plus the machine config, ``build`` (an
    optional digest of a build transformation such as an FDO profile —
    see :meth:`repro.fdo.optimizer.FdoBuild.digest` — that changes the
    replay but not the capture), :data:`CACHE_FORMAT` and the replay
    code fingerprint.
    """
    ident = _capture_identity(benchmark_id, workload)
    ident["replay"] = replay_fingerprint()
    ident["machine"] = _machine_digest(machine)
    if build is not None:
        ident["build"] = build
    return payload_digest(ident)


def capture_key(benchmark_id: str, workload: Workload | AlbertaRef) -> str:
    """Stable key for one captured telemetry stream.

    Deliberately *machine-independent*: the capture stage records what
    the benchmark did, not how a machine would execute it, so every
    machine config (and every FDO build) replays the same capture.  The
    key is the capture's identity plus the codec's magic, so a new
    capture layout misses on old entries while profile keys stay warm.
    """
    from .artifacts import CAPTURE_MAGIC

    ident = _capture_identity(benchmark_id, workload)
    ident["stage"] = "capture"
    ident["codec"] = CAPTURE_MAGIC.decode()
    return payload_digest(ident)


def set_key(benchmark_id: str, base_seed: int) -> str:
    """Stable key for the member names of one generated Alberta set."""
    ident = _code_identity(benchmark_id)
    ident["stage"] = "set"
    ident["base_seed"] = base_seed
    return payload_digest(ident)


# --------------------------------------------------------- serialization


def _scalars(obj: Any) -> dict[str, Any]:
    """``asdict`` of a dataclass whose fields are all scalars, without its
    recursive deep copy: a sweep stores one profile per config."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


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
            "per_method": {name: _scalars(mc) for name, mc in report.per_method.items()},
            "cache_stats": _scalars(report.cache_stats),
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
