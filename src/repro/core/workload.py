"""Workload value objects.

A *workload* is the input that turns a benchmark program into a
benchmark ("a mark on a bench", as the paper puts it).  In the real
Alberta Workloads a workload is a directory of input files plus control
parameters; here it is a :class:`Workload` carrying a payload object
(whatever the mini-benchmark consumes) plus provenance metadata
(generator name, seed, parameters) so every workload is reproducible.
An Alberta workload is also named by its recipe: an :class:`AlbertaRef`
(benchmark, base seed, name) stands for it wherever the payload itself
is not needed, such as in the keys of stored artifacts.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from typing import Any

__all__ = ["AlbertaRef", "Workload", "WorkloadSet", "WorkloadKind"]


class WorkloadKind:
    """The provenance classes from Section IV of the paper."""

    #: Files publicly available online, used as-is (e.g. gcc single-file C).
    PUBLIC = "public"
    #: Public resources combined/modified to be suitable (e.g. xalancbmk).
    DERIVED = "derived"
    #: A script automates generation from online resources (e.g. leela).
    SCRIPTED = "scripted"
    #: Fully procedural generation from a seed (e.g. mcf).
    PROCEDURAL = "procedural"
    #: Manually authored from documentation (e.g. cactuBSSN parameters).
    MANUAL = "manual"
    #: A workload distributed with SPEC itself (train/refrate/test).
    SPEC = "spec"

    ALL = (PUBLIC, DERIVED, SCRIPTED, PROCEDURAL, MANUAL, SPEC)


@dataclass(frozen=True)
class AlbertaRef:
    """One member of a benchmark's generated Alberta set, by recipe.

    The generator's code, the set's base seed and the member's name
    determine the payload, so this stands for the workload without
    generating it.
    """

    benchmark: str
    base_seed: int
    name: str


@dataclass(frozen=True)
class Workload:
    """One benchmark input with reproducibility metadata.

    Attributes:
        name: unique human-readable identifier, e.g. ``"mcf.alberta.1"``.
        benchmark: SPEC-style benchmark id, e.g. ``"505.mcf_r"``.
        payload: the object the mini-benchmark consumes (opaque here).
        kind: one of :class:`WorkloadKind`.
        seed: RNG seed used by the generator, if procedural.
        params: generator parameters for the manifest.
        alberta: the recipe, stamped by
            :func:`~repro.core.registry.alberta_workloads` on each member
            of the set it generates; ``None`` on any other workload.  It
            is not an init argument, so ``dataclasses.replace`` drops it.
    """

    name: str
    benchmark: str
    payload: Any
    kind: str = WorkloadKind.PROCEDURAL
    seed: int | None = None
    params: Mapping[str, Any] = field(default_factory=dict)
    alberta: AlbertaRef | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("Workload.name must be non-empty")
        if self.kind not in WorkloadKind.ALL:
            raise ValueError(f"unknown workload kind {self.kind!r}")

    def manifest(self) -> dict[str, Any]:
        """Serializable provenance record (sans payload)."""
        return {
            "name": self.name,
            "benchmark": self.benchmark,
            "kind": self.kind,
            "seed": self.seed,
            "params": dict(self.params),
        }


class WorkloadSet:
    """An ordered, name-unique collection of workloads for one benchmark."""

    def __init__(self, benchmark: str, workloads: list[Workload] | None = None):
        self.benchmark = benchmark
        self._workloads: list[Workload] = []
        self._by_name: dict[str, Workload] = {}
        for w in workloads or []:
            self.add(w)

    def add(self, workload: Workload) -> None:
        if workload.benchmark != self.benchmark:
            raise ValueError(
                f"workload {workload.name!r} targets {workload.benchmark!r}, "
                f"not {self.benchmark!r}"
            )
        if workload.name in self._by_name:
            raise ValueError(f"duplicate workload name {workload.name!r}")
        self._workloads.append(workload)
        self._by_name[workload.name] = workload

    def __len__(self) -> int:
        return len(self._workloads)

    def __iter__(self) -> Iterator[Workload]:
        return iter(self._workloads)

    def __getitem__(self, key: int | str) -> Workload:
        if isinstance(key, str):
            try:
                return self._by_name[key]
            except KeyError:
                from .errors import UnknownScenarioError

                raise UnknownScenarioError(
                    f"{self.benchmark} workload", key, self._by_name
                ) from None
        return self._workloads[key]

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def names(self) -> list[str]:
        return [w.name for w in self._workloads]

    def manifest(self) -> list[dict[str, Any]]:
        """Manifest entries for all workloads, in order."""
        return [w.manifest() for w in self._workloads]
