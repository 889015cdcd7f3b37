"""Declarative scenario registry: benchmarks, generators, machines, builds.

The paper's subject is a benchmark × workload × configuration space;
this module is the single place where that space is *declared*.  Every
scenario component registers a :class:`Descriptor` — a stable id, a
kind, capability flags, and a content fingerprint — and every
consumer (engine, Session, CLI, manifest, analysis) enumerates the
space through registry queries instead of hand-maintained lists.

Three registration paths feed the same :class:`Registry`:

* **built-ins** — the 16 ``benchmarks/*.py`` substrates and their
  ``workloads/*_gen.py`` generators self-register via the
  :func:`register_benchmark` / :func:`register_generator` decorators;
  ``machine/machine.py`` registers its presets and ``fdo/optimizer.py``
  its build kind.  :meth:`Registry._bootstrap` imports those packages
  lazily, so ``import repro.core`` stays light;
* **entry points** — third-party distributions declare a
  ``repro.plugins`` entry point (:data:`PLUGIN_GROUP`); each one is a
  module (decorators run at import) or a ``register(registry)``
  callable.  See ``examples/repro-plugin-demo`` for a complete package;
* **in-process** — :func:`load_plugin` / :meth:`Registry.register` for
  tests and embedding applications.

Cache identity: no descriptor field joins a cache key.  Keys hash the
source of each benchmark's and generator's factory module
(:func:`repro.core.cache.capture_fingerprint`) and of each FDO build's
module (:func:`repro.core.cache.cache_key`), so an edit misses exactly
the artifacts that code made.  :meth:`Descriptor.fingerprint` digests
the declared identity for the run ledger.

Validation is eager: malformed descriptors and id collisions raise
:class:`~repro.core.errors.RegistrationError` at registration (plugin
load) time; unknown ids raise
:class:`~repro.core.errors.UnknownScenarioError` with near-miss
suggestions.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from types import ModuleType
from typing import Any, Callable, Iterator

from .errors import RegistrationError, UnknownScenarioError

__all__ = [
    "KINDS",
    "PLUGIN_GROUP",
    "CAP_CAPTURE_ONLY",
    "CAP_SWEEPABLE",
    "CAP_REFRATE",
    "CAP_IN_TABLE2",
    "Descriptor",
    "PluginInfo",
    "Registry",
    "REGISTRY",
    "register",
    "load_plugin",
    "register_benchmark",
    "register_generator",
    "register_machine_config",
    "register_fdo_build",
    "benchmark_ids",
    "get_benchmark",
    "get_generator",
    "alberta_workloads",
    "refrate_workload",
    "machine_preset",
    "machine_preset_names",
]

#: The descriptor kinds the registry accepts.
KINDS = ("benchmark", "generator", "machine", "fdo_build")

#: ``importlib.metadata`` entry-point group scanned for plugins.
PLUGIN_GROUP = "repro.plugins"

#: Environment switch that skips entry-point scanning (CI tier-1 uses
#: it to stay deterministic regardless of what happens to be installed).
DISABLE_PLUGINS_ENV = "REPRO_DISABLE_PLUGINS"

# Capability flags.  A capability is any non-empty string; these are the
# ones the built-in consumers filter on.
CAP_CAPTURE_ONLY = "capture-only"  #: can capture telemetry but not replay
CAP_SWEEPABLE = "sweepable"  #: valid target for machine-config sweeps
CAP_REFRATE = "refrate"  #: Alberta set includes a ``*.refrate`` workload
CAP_IN_TABLE2 = "in_table2"  #: has a Table II row in the paper

_KIND_NOUN = {
    "benchmark": "benchmark",
    "generator": "workload generator",
    "machine": "machine preset",
    "fdo_build": "FDO build",
}


@dataclass(frozen=True)
class Descriptor:
    """One registered scenario component.

    ``factory`` is the only live object (the benchmark / generator
    class, or a closure returning a
    :class:`~repro.machine.cost.MachineConfig`); it is excluded from
    equality and from :meth:`fingerprint`.
    """

    kind: str
    id: str
    suite: str | None = None
    capabilities: frozenset[str] = frozenset()
    origin: str = "builtin"
    factory: Callable[[], Any] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise RegistrationError(
                f"descriptor kind {self.kind!r} not in {list(KINDS)}"
            )
        if not isinstance(self.id, str) or not self.id:
            raise RegistrationError(
                f"{self.kind} descriptor id must be a non-empty string, got {self.id!r}"
            )
        if self.suite is not None and (
            not isinstance(self.suite, str) or not self.suite
        ):
            raise RegistrationError(
                f"{self.kind} {self.id!r}: suite must be None or a non-empty string"
            )
        caps = frozenset(self.capabilities)
        for cap in caps:
            if not isinstance(cap, str) or not cap:
                raise RegistrationError(
                    f"{self.kind} {self.id!r}: capability {cap!r} must be a "
                    "non-empty string"
                )
        object.__setattr__(self, "capabilities", caps)
        if not isinstance(self.origin, str) or not self.origin:
            raise RegistrationError(
                f"{self.kind} {self.id!r}: origin must be a non-empty string"
            )
        if self.factory is not None and not callable(self.factory):
            raise RegistrationError(
                f"{self.kind} {self.id!r}: factory must be callable or None"
            )

    # ------------------------------------------------------------ identity

    def fingerprint(self) -> str:
        """Stable content digest of the descriptor's declared identity.

        Covers kind, id, suite, and capabilities — everything except
        provenance (``origin``) and the live ``factory``.  The
        encoding is :func:`repro.core.cache.payload_digest`, so the
        value is identical across processes and platforms.
        """
        from .cache import payload_digest

        return payload_digest(
            {
                "kind": self.kind,
                "id": self.id,
                "suite": self.suite,
                "capabilities": sorted(self.capabilities),
            }
        )

    def create(self) -> Any:
        """Instantiate the live object behind this descriptor."""
        if self.factory is None:
            raise RegistrationError(
                f"{self.kind} {self.id!r} was registered without a factory"
            )
        return self.factory()


@dataclass(frozen=True)
class PluginInfo:
    """Provenance record for one loaded plugin."""

    name: str
    source: str  #: entry-point value, module name, or ``"<in-process>"``
    descriptors: tuple[str, ...]  #: ``"kind:id"`` refs it registered


class Registry:
    """Mutable descriptor store with validation and lazy bootstrap.

    The module-level :data:`REGISTRY` singleton is what the pipeline
    uses; separate instances exist only in tests.  All query methods
    bootstrap on first use (importing the built-in benchmark / workload
    / machine / FDO modules so their decorators run, then scanning the
    ``repro.plugins`` entry-point group).
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str], Descriptor] = {}
        self._plugins: list[PluginInfo] = []
        self._bootstrapped = False
        self._origin_stack: list[str] = []
        # Re-entrant: the bootstrap imports run registration decorators
        # that call back into this registry on the same thread, while a
        # second thread (e.g. concurrent Sessions) must block until the
        # built-ins are fully populated rather than see a half-loaded
        # registry through the eagerly-set flag.
        self._bootstrap_lock = threading.RLock()

    # --------------------------------------------------------- registration

    def register(self, descriptor: Descriptor) -> Descriptor:
        """Add one descriptor; validate and reject collisions.

        Re-registering an *identical* descriptor (same declared fields;
        factory is not compared) is a no-op that adopts the newest
        factory — module re-imports stay idempotent.  A *different*
        descriptor under an existing (kind, id) raises
        :class:`RegistrationError`.
        """
        if not isinstance(descriptor, Descriptor):
            raise RegistrationError(
                f"register() takes a Descriptor, got {type(descriptor).__name__}"
            )
        if self._origin_stack and descriptor.origin == "builtin":
            descriptor = replace(descriptor, origin=self._origin_stack[-1])
        key = (descriptor.kind, descriptor.id)
        existing = self._entries.get(key)
        if existing is not None and existing != descriptor:
            raise RegistrationError(
                f"{descriptor.kind} id {descriptor.id!r} already registered "
                f"(by {existing.origin}) — refusing the "
                f"conflicting descriptor from {descriptor.origin}"
            )
        self._entries[key] = descriptor
        return descriptor

    @contextmanager
    def _as_origin(self, origin: str) -> Iterator[None]:
        """Attribute registrations inside the block to ``origin``."""
        self._origin_stack.append(origin)
        try:
            yield
        finally:
            self._origin_stack.pop()

    def load_plugin(self, plugin: Any, *, name: str = "inline") -> PluginInfo:
        """In-process plugin loading: module, import path, or callable.

        The same adoption path the entry-point scan uses: decorators run
        (module import) and/or ``register(registry)`` is called, every
        registration inside is attributed to ``plugin:<name>``, and the
        newly-registered descriptor refs are recorded.
        """
        self._bootstrap()
        before = set(self._entries)
        if isinstance(plugin, str):
            import importlib

            source = plugin
            with self._as_origin(f"plugin:{name}"):
                try:
                    plugin = importlib.import_module(plugin)
                except RegistrationError:
                    raise
                except Exception as exc:
                    raise RegistrationError(
                        f"plugin {name!r} ({source}) failed to import: {exc}"
                    ) from exc
        else:
            source = getattr(plugin, "__name__", "<in-process>")
        return self._adopt(plugin, name=name, source=source, before=before)

    def _adopt(
        self,
        obj: Any,
        *,
        name: str,
        source: str,
        before: set[tuple[str, str]] | None = None,
    ) -> PluginInfo:
        if before is None:
            before = set(self._entries)
        with self._as_origin(f"plugin:{name}"):
            hook = obj if callable(obj) and not isinstance(obj, ModuleType) else None
            if hook is None:
                hook = getattr(obj, "register", None)
            if callable(hook):
                try:
                    hook(self)
                except RegistrationError:
                    raise
                except Exception as exc:
                    raise RegistrationError(
                        f"plugin {name!r} ({source}) register() failed: {exc}"
                    ) from exc
        refs = tuple(
            sorted(f"{k}:{i}" for (k, i) in set(self._entries) - before)
        )
        info = PluginInfo(name=name, source=source, descriptors=refs)
        self._plugins.append(info)
        return info

    # ------------------------------------------------------------ bootstrap

    def _bootstrap(self) -> None:
        """Import the built-in scenario modules, then scan entry points.

        The flag is set *before* importing so the benchmark modules'
        decorators (which call back into this registry) cannot recurse.
        """
        with self._bootstrap_lock:
            if self._bootstrapped:
                return
            self._bootstrapped = True
            import importlib

            # Package imports run every module's registration decorators.
            importlib.import_module("repro.benchmarks")
            importlib.import_module("repro.workloads")
            importlib.import_module("repro.machine.machine")
            importlib.import_module("repro.fdo.optimizer")
            self._load_entry_points()

    def _load_entry_points(self) -> None:
        if os.environ.get(DISABLE_PLUGINS_ENV):
            return
        from importlib import metadata

        try:
            eps = list(metadata.entry_points(group=PLUGIN_GROUP))
        except TypeError:  # pragma: no cover - pre-3.10 select API
            eps = list(metadata.entry_points().get(PLUGIN_GROUP, []))
        for ep in sorted(eps, key=lambda e: e.name):
            before = set(self._entries)
            with self._as_origin(f"plugin:{ep.name}"):
                try:
                    obj = ep.load()
                except RegistrationError:
                    raise
                except Exception as exc:
                    raise RegistrationError(
                        f"plugin {ep.name!r} ({ep.value}) failed to load: {exc}"
                    ) from exc
            self._adopt(obj, name=ep.name, source=ep.value, before=before)

    # -------------------------------------------------------------- queries

    def descriptors(
        self,
        kind: str | None = None,
        *,
        suite: str | None = None,
        capability: str | None = None,
        origin: str | None = None,
    ) -> list[Descriptor]:
        """All descriptors matching the filters, sorted by (kind, id)."""
        self._bootstrap()
        out = []
        for d in self._entries.values():
            if kind is not None and d.kind != kind:
                continue
            if suite is not None and d.suite != suite:
                continue
            if capability is not None and capability not in d.capabilities:
                continue
            if origin is not None and d.origin != origin:
                continue
            out.append(d)
        return sorted(out, key=lambda d: (d.kind, d.id))

    def ids(self, kind: str, **filters: Any) -> list[str]:
        """Registered ids of one kind (same filters as :meth:`descriptors`)."""
        return [d.id for d in self.descriptors(kind, **filters)]

    def find(self, kind: str, scenario_id: str) -> Descriptor | None:
        """Look up one descriptor; ``None`` when unregistered."""
        self._bootstrap()
        return self._entries.get((kind, scenario_id))

    def get(self, kind: str, scenario_id: str) -> Descriptor:
        """Look up one descriptor; unknown ids raise with suggestions."""
        found = self.find(kind, scenario_id)
        if found is None:
            raise UnknownScenarioError(
                _KIND_NOUN.get(kind, kind),
                scenario_id,
                (i for (k, i) in self._entries if k == kind),
            )
        return found

    def create(self, kind: str, scenario_id: str) -> Any:
        """Instantiate the live object for one registered id."""
        return self.get(kind, scenario_id).create()

    def plugins(self) -> list[PluginInfo]:
        """Every plugin loaded so far (entry points and in-process)."""
        self._bootstrap()
        return list(self._plugins)

    # ---------------------------------------------------------------- tests

    @contextmanager
    def override(self, descriptor: Descriptor) -> Iterator[Descriptor]:
        """Temporarily (re)place one descriptor: tests use it to change a
        registered benchmark's capabilities without editing modules."""
        self._bootstrap()
        key = (descriptor.kind, descriptor.id)
        previous = self._entries.get(key)
        self._entries[key] = descriptor
        try:
            yield descriptor
        finally:
            if previous is None:
                self._entries.pop(key, None)
            else:
                self._entries[key] = previous


#: The process-wide registry every built-in consumer queries.
REGISTRY = Registry()


def register(descriptor: Descriptor) -> Descriptor:
    """In-process registration API (see also :func:`load_plugin`)."""
    return REGISTRY.register(descriptor)


def load_plugin(plugin: Any, *, name: str = "inline") -> PluginInfo:
    """Load one plugin (module, import path, or callable) in-process."""
    return REGISTRY.load_plugin(plugin, name=name)


# ------------------------------------------------------------- decorators


def register_benchmark(
    cls: type | None = None,
    *,
    in_table2: bool = True,
    capabilities: Any = (),
    registry: Registry | None = None,
):
    """Class decorator: register a benchmark substrate.

    Reads the class's ``name`` (the SPEC-style id) and ``suite``
    attributes.  Unless the explicit capabilities say
    :data:`CAP_CAPTURE_ONLY`, the benchmark is marked sweepable and
    refrate-bearing; ``in_table2=False`` drops it from Table II
    enumeration (the paper characterizes 525.x264_r's workloads but
    prints no row for it).
    """

    def deco(klass: type) -> type:
        benchmark_id = getattr(klass, "name", None)
        suite = getattr(klass, "suite", None)
        caps = set(capabilities)
        if CAP_CAPTURE_ONLY not in caps:
            caps.add(CAP_SWEEPABLE)
            caps.add(CAP_REFRATE)
        if in_table2:
            caps.add(CAP_IN_TABLE2)
        if suite:
            caps.add(f"suite:{suite}")
        (registry or REGISTRY).register(
            Descriptor(
                kind="benchmark",
                id=benchmark_id if isinstance(benchmark_id, str) else repr(benchmark_id),
                suite=suite,
                capabilities=frozenset(caps),
                factory=klass,
            )
        )
        return klass

    return deco(cls) if cls is not None else deco


def register_generator(
    cls: type | None = None,
    *,
    capabilities: Any = (CAP_REFRATE,),
    registry: Registry | None = None,
):
    """Class decorator: register a workload generator.

    Reads the class's ``benchmark`` attribute as the id — generator and
    benchmark descriptors share the benchmark id, differing in kind.
    """

    def deco(klass: type) -> type:
        benchmark_id = getattr(klass, "benchmark", None)
        (registry or REGISTRY).register(
            Descriptor(
                kind="generator",
                id=benchmark_id if isinstance(benchmark_id, str) else repr(benchmark_id),
                capabilities=frozenset(capabilities),
                factory=klass,
            )
        )
        return klass

    return deco(cls) if cls is not None else deco


def register_machine_config(
    name: str,
    config: Any,
    *,
    capabilities: Any = (),
    registry: Registry | None = None,
) -> Descriptor:
    """Register a named machine preset (ids are case-folded)."""
    return (registry or REGISTRY).register(
        Descriptor(
            kind="machine",
            id=name.lower() if isinstance(name, str) else repr(name),
            capabilities=frozenset(capabilities),
            factory=lambda config=config: config,
        )
    )


def register_fdo_build(
    name: str,
    factory: Callable[..., Any],
    *,
    capabilities: Any = (),
    registry: Registry | None = None,
) -> Descriptor:
    """Register a build-transformation kind (e.g. the FDO build)."""
    return (registry or REGISTRY).register(
        Descriptor(
            kind="fdo_build",
            id=name,
            capabilities=frozenset(capabilities),
            factory=factory,
        )
    )


# ------------------------------------------------- canonical enumeration


def benchmark_ids(
    suite: str | None = None,
    *,
    table2_only: bool = False,
) -> list[str]:
    """Benchmark ids, optionally filtered to one suite or Table II rows."""
    out = []
    for d in REGISTRY.descriptors("benchmark"):
        if suite is not None and d.suite != suite:
            continue
        if table2_only and CAP_IN_TABLE2 not in d.capabilities:
            continue
        out.append(d.id)
    return out


def get_benchmark(benchmark_id: str) -> Any:
    """Instantiate the substrate for a benchmark id."""
    return REGISTRY.create("benchmark", benchmark_id)


def get_generator(benchmark_id: str) -> Any:
    """Instantiate the workload generator for a benchmark id."""
    return REGISTRY.create("generator", benchmark_id)


def alberta_workloads(benchmark_id: str, base_seed: int = 0) -> Any:
    """The default Alberta workload set for a benchmark.

    Each member is stamped with its recipe (``Workload.alberta``), so
    stored artifacts key it by base seed and name instead of by content.
    """
    try:
        generator = get_generator(benchmark_id)
    except UnknownScenarioError:
        # An id neither kind knows should be reported as an unknown
        # *benchmark* — that is the id space callers think in.
        if REGISTRY.find("benchmark", benchmark_id) is None:
            raise UnknownScenarioError(
                "benchmark", benchmark_id, REGISTRY.ids("benchmark")
            ) from None
        raise
    from .workload import AlbertaRef

    workloads = generator.alberta_set(base_seed)
    for w in workloads:
        # A frozen dataclass: set the way its own __init__ sets fields.
        object.__setattr__(w, "alberta", AlbertaRef(benchmark_id, base_seed, w.name))
    return workloads


def refrate_workload(benchmark_id: str, name: str | None = None) -> Any:
    """The benchmark's ``*.refrate`` workload (its first one when it has
    none), or the Alberta workload called ``name``; an unknown name
    raises :class:`UnknownScenarioError`."""
    workloads = alberta_workloads(benchmark_id)
    if name is None:
        return next((w for w in workloads if w.name.endswith(".refrate")), workloads[0])
    if name not in workloads:
        raise UnknownScenarioError(
            f"{benchmark_id} workload", name, workloads.names(),
            message=f"{benchmark_id} has no workload named {name!r}",
        )
    return workloads[name]


def machine_preset(name: str) -> Any:
    """Resolve a machine preset by registered name (case-insensitive)."""
    return REGISTRY.create("machine", name.lower() if isinstance(name, str) else name)


def machine_preset_names() -> list[str]:
    """Every registered machine-preset name, builtin and plugin."""
    return REGISTRY.ids("machine")
