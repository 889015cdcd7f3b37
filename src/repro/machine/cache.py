"""Set-associative cache and TLB geometry and counters.

The paper measures benchmarks on an Intel Core i7-2600.  We cannot use
hardware counters here, so the machine model replays the benchmarks'
memory address streams through a classical set-associative LRU cache
hierarchy (L1I, L1D, unified L2, shared LLC) plus a data TLB.  Miss
counts per level feed the top-down cost model in
:mod:`repro.machine.cost`.

This module holds the hierarchy's shape and its hit/miss counters; the
replay in :mod:`repro.machine.cost` decides every hit and miss with the
LRU kernels of :mod:`repro.machine.kernel` and adds its totals here.

Addresses are abstract byte addresses (plain ints).  Benchmarks lay out
their data structures in whatever address space they like; only
locality relative to line/page granularity matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

__all__ = [
    "CacheConfig",
    "CacheGeometry",
    "Cache",
    "Tlb",
    "CacheHierarchy",
    "HierarchyStats",
]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    size_bytes: int
    line_bytes: int
    associativity: int
    name: str = "cache"

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.associativity <= 0:
            raise ValueError(f"{self.name}: all geometry parameters must be positive")
        n_lines = self.size_bytes // self.line_bytes
        if n_lines * self.line_bytes != self.size_bytes:
            raise ValueError(f"{self.name}: size must be a multiple of the line size")
        if n_lines % self.associativity != 0:
            raise ValueError(f"{self.name}: line count must be a multiple of associativity")

    @property
    def n_sets(self) -> int:
        return (self.size_bytes // self.line_bytes) // self.associativity


@dataclass(frozen=True)
class CacheGeometry:
    """The swept half of a machine's memory system, as plain parameters.

    :class:`~repro.machine.cost.MachineConfig` carries one of these so
    cache geometry participates in config sweeps (and in cache keys —
    ``dataclasses.asdict`` recurses into it).  Defaults match the
    historical hard-coded i7-2600 hierarchy, so a default config is
    bit-identical to every profile produced before geometry became
    sweepable.
    """

    l1d_kib: int = 32
    l1d_assoc: int = 8
    l1i_kib: int = 32
    l1i_assoc: int = 8
    l2_kib: int = 256
    l2_assoc: int = 8
    llc_kib: int = 8192
    llc_assoc: int = 16
    line_bytes: int = 64
    dtlb_entries: int = 64

    def __post_init__(self) -> None:
        for name, value in self.to_dict().items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"CacheGeometry: {name} must be an int, got {value!r}")
        # CacheConfig/Cache validate sizes, multiples, and powers of two;
        # building the configs eagerly surfaces bad geometry at
        # construction instead of first replay.
        for cache in self._configs():
            Cache(cache)
        if self.dtlb_entries < 1:
            raise ValueError("CacheGeometry: dtlb_entries must be >= 1")

    def _configs(self) -> "tuple[CacheConfig, CacheConfig, CacheConfig, CacheConfig]":
        return (
            CacheConfig(self.l1d_kib * 1024, self.line_bytes, self.l1d_assoc, name="L1D"),
            CacheConfig(self.l1i_kib * 1024, self.line_bytes, self.l1i_assoc, name="L1I"),
            CacheConfig(self.l2_kib * 1024, self.line_bytes, self.l2_assoc, name="L2"),
            CacheConfig(self.llc_kib * 1024, self.line_bytes, self.llc_assoc, name="LLC"),
        )

    def hierarchy(self) -> "CacheHierarchy":
        """A fresh, empty :class:`CacheHierarchy` with this geometry."""
        l1d, l1i, l2, llc = self._configs()
        return CacheHierarchy(
            l1d=l1d, l1i=l1i, l2=l2, llc=llc, dtlb_entries=self.dtlb_entries
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "l1d_kib": self.l1d_kib,
            "l1d_assoc": self.l1d_assoc,
            "l1i_kib": self.l1i_kib,
            "l1i_assoc": self.l1i_assoc,
            "l2_kib": self.l2_kib,
            "l2_assoc": self.l2_assoc,
            "llc_kib": self.llc_kib,
            "llc_assoc": self.llc_assoc,
            "line_bytes": self.line_bytes,
            "dtlb_entries": self.dtlb_entries,
        }

    @classmethod
    def from_dict(cls, data: "Mapping[str, Any]") -> "CacheGeometry":
        return cls(**dict(data))


class Cache:
    """One set-associative LRU cache level: geometry plus hit/miss counts.

    The replay decides hits and misses with the LRU kernels and adds
    its totals to :attr:`hits` and :attr:`misses`.
    """

    __slots__ = (
        "config",
        "_set_mask",
        "_line_shift",
        "hits",
        "misses",
    )

    def __init__(self, config: CacheConfig):
        self.config = config
        n_sets = config.n_sets
        if n_sets & (n_sets - 1):
            raise ValueError(f"{config.name}: set count must be a power of two")
        line = config.line_bytes
        if line & (line - 1):
            raise ValueError(f"{config.name}: line size must be a power of two")
        self._set_mask = n_sets - 1
        self._line_shift = line.bit_length() - 1
        self.hits = 0
        self.misses = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


class Tlb:
    """A fully-associative LRU TLB over fixed-size pages: shape plus counts."""

    __slots__ = ("entries", "page_bytes", "hits", "misses", "_page_shift")

    def __init__(self, entries: int = 64, page_bytes: int = 4096):
        if entries <= 0:
            raise ValueError("Tlb: entries must be positive")
        if page_bytes <= 0 or page_bytes & (page_bytes - 1):
            raise ValueError("Tlb: page size must be a positive power of two")
        self.entries = entries
        self.page_bytes = page_bytes
        self._page_shift = page_bytes.bit_length() - 1
        self.hits = 0
        self.misses = 0


@dataclass
class HierarchyStats:
    """Aggregated access/miss counts for one replay."""

    l1d_accesses: int = 0
    l1d_misses: int = 0
    l1i_accesses: int = 0
    l1i_misses: int = 0
    l2_accesses: int = 0
    l2_misses: int = 0
    llc_accesses: int = 0
    llc_misses: int = 0
    dtlb_misses: int = 0


class CacheHierarchy:
    """A three-level hierarchy modelled on the i7-2600.

    Defaults: 32 KiB 8-way L1D and L1I, 256 KiB 8-way unified L2, 8 MiB
    16-way LLC, 64-entry DTLB.  Data and instruction accesses share the
    L2 and LLC, as on the real part.
    """

    def __init__(
        self,
        l1d: CacheConfig | None = None,
        l1i: CacheConfig | None = None,
        l2: CacheConfig | None = None,
        llc: CacheConfig | None = None,
        dtlb_entries: int = 64,
    ):
        self.l1d = Cache(l1d or CacheConfig(32 * 1024, 64, 8, name="L1D"))
        self.l1i = Cache(l1i or CacheConfig(32 * 1024, 64, 8, name="L1I"))
        self.l2 = Cache(l2 or CacheConfig(256 * 1024, 64, 8, name="L2"))
        self.llc = Cache(llc or CacheConfig(8 * 1024 * 1024, 64, 16, name="LLC"))
        self.dtlb = Tlb(entries=dtlb_entries)

    def stats(self) -> HierarchyStats:
        return HierarchyStats(
            l1d_accesses=self.l1d.accesses,
            l1d_misses=self.l1d.misses,
            l1i_accesses=self.l1i.accesses,
            l1i_misses=self.l1i.misses,
            l2_accesses=self.l2.accesses,
            l2_misses=self.l2.misses,
            llc_accesses=self.llc.accesses,
            llc_misses=self.llc.misses,
            dtlb_misses=self.dtlb.misses,
        )
