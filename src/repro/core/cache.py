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
* :func:`cache_key` names one capture's profile entry: it adds the
  entry layout, the replay code fingerprint (:func:`replay_fingerprint`,
  over :data:`REPLAY_MODULES`) and, for a build, its digest and the
  source of its module.  The machine config is not in it: every config
  the capture was replayed on is a member of that one entry, named by
  the config's digest;
* :func:`set_key` names one Alberta set's member list by the capture
  code fingerprint, the benchmark and the base seed.

Module sources are read once per process, and each machine config is
hashed once.  An edit to any module a stage depends on turns that
stage's artifacts cold; nothing is bumped by hand.

:class:`ResultCache` stores each capture's profiles (minus the
benchmark output, which the summaries never read) as one
:class:`ProfileEntry` under ``<root>/<key[:2]>/<key>.prof``: a length
and a CRC-32, checked before anything is parsed, then a JSON body.
JSON floats round-trip exactly (``repr`` is shortest-round-trip), so a
cached profile reconstructs the summaries bit-identically.

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
import struct
import sys
import time
import zlib
from collections.abc import Callable, Iterable, Iterator, Mapping, Set
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
    "PROFILE_MAGIC",
    "ProfileEntry",
    "encode_profiles",
    "decode_profiles",
    "ResultCache",
]

#: The format of every stored document; part of every key.  A new profile
#: entry layout revs :data:`PROFILE_MAGIC` instead, which leaves capture
#: and set keys as they are.
CACHE_FORMAT = 1

#: Leading bytes of every profile entry; rev with the layout.  Profile
#: keys carry it too (:func:`cache_key`), so a new layout is never asked
#: to read an old one's entries.
PROFILE_MAGIC = b"RPG1"
_PROFILE_PREFIX = struct.Struct("<4sII")  # magic, body length, CRC-32 of the body

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
    """What every key of one benchmark's artifacts starts from."""
    return {
        "format": CACHE_FORMAT,
        "code": capture_fingerprint(benchmark_id),
        "benchmark": benchmark_id,
    }


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
    *,
    build: Any = None,
) -> str:
    """Stable key for one capture's profile entry (:class:`ProfileEntry`).

    The capture's identity plus a stage marker, the entry layout's
    magic and the replay code fingerprint.  ``build`` is an optional
    build transformation that changes the replay but not the capture
    (see :class:`repro.fdo.optimizer.FdoBuild`): its ``digest()`` and
    the source of the module that defines its class join the key, so a
    plugin's build code is covered like its benchmark's.  The machine
    config is not part of it: the entry holds every config the capture
    was replayed on.
    """
    ident = _capture_identity(benchmark_id, workload)
    ident["stage"] = "profile"
    ident["entry"] = PROFILE_MAGIC.decode()
    ident["replay"] = replay_fingerprint()
    if build is not None:
        ident["build"] = build.digest()
        ident["build_code"] = _module_digest(type(build).__module__)
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


def _report_to_dict(report: MachineReport) -> dict[str, Any]:
    td = report.topdown
    return {
        "topdown": [td.front_end, td.back_end, td.bad_speculation, td.retiring],
        "coverage": dict(report.coverage.fractions),
        "cycles": report.cycles,
        "seconds": report.seconds,
        "per_method": {name: _scalars(mc) for name, mc in report.per_method.items()},
        "cache_stats": _scalars(report.cache_stats),
        "branch_misprediction_rate": report.branch_misprediction_rate,
        "sampling_stride": report.sampling_stride,
        "counters": dict(report.counters),
    }


def _report_from_dict(rep: Any) -> MachineReport:
    f, b, s, r = rep["topdown"]
    return MachineReport(
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


def profile_to_dict(profile: ExecutionProfile) -> dict[str, Any]:
    """Serialize a profile (minus its benchmark ``output``) to plain JSON.

    The output object is intentionally dropped: summaries only read the
    machine report, and outputs can be arbitrarily large.  A profile
    restored from the cache therefore has ``output=None``.
    """
    return {
        "format": CACHE_FORMAT,
        "benchmark": profile.benchmark,
        "workload": profile.workload,
        "verified": profile.verified,
        "report": _report_to_dict(profile.report),
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
    return ExecutionProfile(
        benchmark=data["benchmark"],
        workload=data["workload"],
        report=_report_from_dict(data["report"]),
        output=None,
        verified=data["verified"],
    )


class ProfileEntry:
    """The stored profiles of one capture, one member per machine config.

    ``members`` maps each config's digest to its profile; :meth:`profile`
    and :meth:`add` take the config itself (``None`` for the default).
    Every member replays the same capture, so all share its benchmark,
    workload and ``verified``.
    """

    def __init__(self) -> None:
        self.members: dict[str, ExecutionProfile] = {}

    def profile(self, machine: MachineConfig | None) -> ExecutionProfile | None:
        """The stored profile of ``machine``, or ``None``."""
        return self.members.get(_machine_digest(machine))

    def add(self, machine: MachineConfig | None, profile: ExecutionProfile) -> None:
        """Store (or replace) the member of ``machine``."""
        self.members[_machine_digest(machine)] = profile


def encode_profiles(entry: ProfileEntry) -> bytes:
    """Serialize a non-empty entry: :data:`PROFILE_MAGIC`, two u32s (body
    length and CRC-32 of the body), then the JSON body.

    The body holds ``format``, ``benchmark``, ``workload`` and
    ``verified`` once, and ``profiles``, which maps each member's config
    digest to its ``report``.
    """
    first = next(iter(entry.members.values()))
    body = json.dumps(
        {
            "format": CACHE_FORMAT,
            "benchmark": first.benchmark,
            "workload": first.workload,
            "verified": first.verified,
            "profiles": {
                digest: {"report": _report_to_dict(profile.report)}
                for digest, profile in entry.members.items()
            },
        },
        separators=(",", ":"),
    ).encode()
    return _PROFILE_PREFIX.pack(PROFILE_MAGIC, len(body), zlib.crc32(body)) + body


def decode_profiles(blob: bytes) -> ProfileEntry:
    """Reconstruct an entry; raises :class:`CacheCorruption` on any damage.

    The magic, the length and the CRC are checked before the body is
    parsed, as :func:`~repro.core.artifacts.decode_set` does; past them
    every member is decoded, so a defect anywhere fails the whole entry.
    """
    if len(blob) < _PROFILE_PREFIX.size:
        raise CacheCorruption("profile entry: truncated prefix")
    magic, length, crc = _PROFILE_PREFIX.unpack_from(blob)
    body = blob[_PROFILE_PREFIX.size :]
    if magic != PROFILE_MAGIC or len(body) != length or zlib.crc32(body) != crc:
        raise CacheCorruption("profile entry: bad magic, length or CRC")
    try:
        doc = json.loads(body)
        if doc["format"] != CACHE_FORMAT:
            raise CacheCorruption(f"profile entry: unsupported format {doc['format']!r}")
        entry = ProfileEntry()
        for digest, member in doc["profiles"].items():
            entry.members[digest] = ExecutionProfile(
                benchmark=doc["benchmark"],
                workload=doc["workload"],
                report=_report_from_dict(member["report"]),
                output=None,
                verified=doc["verified"],
            )
    except CacheCorruption:
        raise
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CacheCorruption(
            f"profile entry: undecodable ({type(exc).__name__}: {exc})"
        ) from exc
    if not entry.members:
        raise CacheCorruption("profile entry: no profiles")
    return entry


# ----------------------------------------------------------------- cache


def _one_event(value: Any) -> tuple[int, int]:
    """A lookup's (hits, misses): one of either."""
    return (0, 1) if value is None else (1, 0)


class _EntryStore:
    """Content-addressed on-disk entries: the code every stage store shares.

    Entries live at ``<root>/<key[:2]>/<key><suffix>`` and are written
    atomically (temp file + ``os.replace``), so a reader never sees a
    torn entry and the last writer of a key wins.  An entry that exists
    but cannot be decoded is quarantined (renamed to
    ``*<suffix>.corrupt``) and reads as a miss.  Every lookup, write
    and quarantine is recorded in the metrics registry under the
    subclass's ``store`` label, each at exactly one call site below.
    """

    suffix: str
    store: str
    #: Suffixes an older layout wrote here: never read, but wiped.
    legacy: tuple[str, ...] = ()

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{self.suffix}"

    def _lookup(
        self,
        key: str,
        decode: Callable[[bytes], Any],
        served: Callable[[Any], tuple[int, int]] = _one_event,
    ) -> Any:
        """Read and decode one entry; ``None`` on a miss or a quarantine.

        Records the lookup's latency and ``served(value)`` hit and miss
        events: by default one of either.
        """
        path = self._path(key)
        started = time.perf_counter()
        value = None
        try:
            raw = path.read_bytes()
        except OSError:
            pass
        else:
            try:
                value = decode(raw)
            except (ValueError, KeyError, TypeError):
                # Includes json.JSONDecodeError and CacheCorruption.
                self._quarantine(path)
            else:
                metrics.inc(
                    metrics.CACHE_IO_BYTES_TOTAL, len(raw), store=self.store, direction="read"
                )
        metrics.observe(
            metrics.CACHE_LOOKUP_SECONDS,
            time.perf_counter() - started,
            store=self.store,
            result="miss" if value is None else "hit",
        )
        for event, n in zip(("hit", "miss"), served(value)):
            if n:
                metrics.inc(metrics.CACHE_EVENTS_TOTAL, n, store=self.store, event=event)
        return value

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
        """Delete every entry, an older layout's too, and quarantined
        ``*.corrupt`` remains; returns the number of live entries removed."""
        n = 0
        for suffix in (self.suffix, *self.legacy):
            for path in self.root.glob(f"*/*{suffix}.corrupt"):
                path.unlink(missing_ok=True)
            for path in self.root.glob(f"*/*{suffix}"):
                path.unlink(missing_ok=True)
                n += 1
        for shard in self.root.glob("*"):
            if shard.is_dir():
                try:
                    shard.rmdir()
                except OSError:
                    pass
        return n


class ResultCache(_EntryStore):
    """Content-addressed on-disk store of serialized execution profiles.

    One :class:`ProfileEntry` per capture (and build) at
    ``<root>/<key[:2]>/<key>.prof``, holding the profile of every
    machine config that capture was replayed on; a corrupt or
    truncated entry is quarantined to ``*.prof.corrupt``, reads as a
    miss for every config it held, and is re-created by the next
    :meth:`put`.  Traffic is recorded under ``store="profile"``, one hit
    or miss per config looked up.

    Invalidation is purely key-based: any change to the workload, the
    build, the entry layout or the code that captures or replays it
    produces a different key, and stale entries are simply never read
    again.  Entries of the older one-profile-per-file layout (``*.json``)
    are never read either.  :meth:`wipe` removes everything under the
    root.

    A put replaces the whole entry with what its writer holds: the
    members it read plus the ones it added.  Two processes that fill
    one entry at once can each drop the other's new members.  That
    costs a later miss, never a wrong profile.
    """

    suffix = ".prof"
    store = "profile"
    legacy = (".json",)

    def get(
        self, key: str, machines: "Iterable[MachineConfig | None]" = (None,)
    ) -> ProfileEntry | None:
        """Look up one capture's entry; ``None`` on a miss or unreadable entry.

        Records one hit for each of ``machines`` the entry holds and one
        miss for each it lacks.  An entry that exists but cannot be
        decoded — truncated write, bit rot, foreign format — is
        *quarantined*: renamed to ``<key>.prof.corrupt`` so the evidence
        survives for inspection, counted as
        ``repro_cache_events_total{event="quarantined"}``, and reported
        as a miss, so each of its configs is simply re-profiled (and
        re-cached) instead of crashing the run.
        """
        digests = [_machine_digest(m) for m in machines]

        def served(entry: ProfileEntry | None) -> tuple[int, int]:
            hits = 0 if entry is None else sum(d in entry.members for d in digests)
            return hits, len(digests) - hits

        return self._lookup(key, decode_profiles, served)

    def put(self, key: str, entry: ProfileEntry) -> None:
        """Store ``entry`` under ``key`` (atomic replace)."""
        self._write(key, encode_profiles(entry))

    def count_profiles(self) -> int:
        """How many profiles the stored entries hold; an entry that does
        not decode holds none."""
        n = 0
        for path in self._entries():
            try:
                n += len(decode_profiles(path.read_bytes()).members)
            except (OSError, CacheCorruption):
                continue
        return n
