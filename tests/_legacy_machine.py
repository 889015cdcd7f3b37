"""Frozen pre-columnar machine model, kept verbatim as the golden reference.

This module is a snapshot of ``repro.machine.telemetry.Probe`` (list-of-
tuples event stream), the dict-backed branch predictors, and the scalar
``CostModel.evaluate`` replay loop exactly as they existed before the
columnar/vectorized rewrite.  ``tests/test_golden_equivalence.py`` runs
every benchmark through both implementations and asserts bit-identical
results; do not "improve" this code — its only job is to stay the same.
"""

from __future__ import annotations

import zlib
from collections.abc import Iterable, Sequence

from repro.core.coverage import CoverageProfile
from repro.core.topdown import TopDownVector
from repro.machine.cache import CacheConfig, HierarchyStats
from repro.machine.cost import MachineConfig, MachineReport, MethodCost
from repro.machine.telemetry import EV_BRANCH, EV_CALL, EV_DATA, MethodCounters

__all__ = ["LegacyProbe", "legacy_evaluate"]

_CODE_REGION_BASE = 1 << 40
_DEFAULT_EVENT_CAP = 262_144
_MAX_FETCH_BLOCKS = 256


class LegacyProbe:
    """The pre-columnar probe: events are a list of 4-tuples."""

    def __init__(self, event_cap: int = _DEFAULT_EVENT_CAP):
        if event_cap < 1024:
            raise ValueError("event_cap too small to be representative")
        self._methods: dict[str, MethodCounters] = {}
        self._stack: list[MethodCounters] = []
        self._events: list[tuple[int, int, int, int]] = []
        self._event_cap = event_cap
        self._keep_every = 1
        self._tick = 0

    def register(self, name: str, code_bytes: int = 512) -> MethodCounters:
        mc = self._methods.get(name)
        if mc is None:
            code_base = _CODE_REGION_BASE + (zlib.crc32(name.encode()) << 12)
            mc = MethodCounters(
                name=name,
                index=len(self._methods),
                code_base=code_base,
                code_bytes=code_bytes,
            )
            self._methods[name] = mc
        return mc

    def method(self, name: str, code_bytes: int = 512) -> "_LegacyScope":
        return _LegacyScope(self, self.register(name, code_bytes))

    @property
    def current(self) -> MethodCounters:
        if not self._stack:
            raise RuntimeError("no active method scope; wrap work in probe.method(...)")
        return self._stack[-1]

    def methods(self) -> list[MethodCounters]:
        return list(self._methods.values())

    def _push_event(self, kind: int, a: int, b: int) -> None:
        self._tick += 1
        if self._tick % self._keep_every:
            return
        events = self._events
        events.append((self._stack[-1].index, kind, a, b))
        if len(events) >= self._event_cap:
            self._events = events[::2]
            self._keep_every *= 2

    def ops(self, n: int = 1, kind: str = "int") -> None:
        mc = self.current
        if kind == "int":
            mc.int_ops += n
        elif kind == "fp":
            mc.fp_ops += n
        elif kind == "fpdiv":
            mc.fpdiv_ops += n
        else:
            raise ValueError(f"unknown op kind {kind!r}")

    def branch(self, taken: bool, site: int = 0) -> None:
        mc = self.current
        mc.branches += 1
        if taken:
            mc.branches_taken += 1
        self._push_event(EV_BRANCH, mc.code_base + site * 16, 1 if taken else 0)

    def branches(self, outcomes: Iterable[bool], site: int = 0) -> None:
        mc = self.current
        pc = mc.code_base + site * 16
        taken = 0
        count = 0
        for t in outcomes:
            count += 1
            if t:
                taken += 1
            self._push_event(EV_BRANCH, pc, 1 if t else 0)
        mc.branches += count
        mc.branches_taken += taken

    def load(self, addr: int) -> None:
        mc = self.current
        mc.loads += 1
        self._push_event(EV_DATA, addr, 0)

    def store(self, addr: int) -> None:
        mc = self.current
        mc.stores += 1
        self._push_event(EV_DATA, addr, 1)

    def accesses(self, addrs: Sequence[int], store: bool = False) -> None:
        mc = self.current
        flag = 1 if store else 0
        for addr in addrs:
            self._push_event(EV_DATA, addr, flag)
        if store:
            mc.stores += len(addrs)
        else:
            mc.loads += len(addrs)

    def count(self, key: str, n: int = 1) -> None:
        extra = self.current.extra
        extra[key] = extra.get(key, 0) + n

    @property
    def events(self) -> list[tuple[int, int, int, int]]:
        return self._events

    @property
    def sampling_stride(self) -> int:
        return self._keep_every

    def total_branches(self) -> int:
        return sum(mc.branches for mc in self._methods.values())

    def total_data_accesses(self) -> int:
        return sum(mc.data_accesses for mc in self._methods.values())

    def total_ops(self) -> int:
        return sum(mc.total_ops for mc in self._methods.values())


class _LegacyScope:
    __slots__ = ("_probe", "_mc")

    def __init__(self, probe: LegacyProbe, mc: MethodCounters):
        self._probe = probe
        self._mc = mc

    def __enter__(self) -> MethodCounters:
        mc = self._mc
        mc.calls += 1
        probe = self._probe
        probe._stack.append(mc)
        probe._push_event(EV_CALL, mc.index, 0)
        return mc

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self._probe._stack.pop()


class _LegacyBimodal:
    """Dict-backed 2-bit bimodal predictor (pre-bytearray)."""

    def __init__(self, table_bits: int = 12):
        self._mask = (1 << table_bits) - 1
        self._counters: dict[int, int] = {}

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        idx = pc & self._mask
        counter = self._counters.get(idx, 1)
        prediction = counter >= 2
        correct = prediction == taken
        if taken:
            if counter < 3:
                self._counters[idx] = counter + 1
        else:
            if counter > 0:
                self._counters[idx] = counter - 1
        return correct


class _LegacyGshare:
    """Dict-backed gshare predictor (pre-bytearray)."""

    def __init__(self, table_bits: int = 14, history_bits: int = 12):
        self._mask = (1 << table_bits) - 1
        self._history = 0
        self._history_mask = (1 << history_bits) - 1
        self._counters: dict[int, int] = {}

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        idx = (pc ^ self._history) & self._mask
        counter = self._counters.get(idx, 1)
        prediction = counter >= 2
        correct = prediction == taken
        if taken:
            if counter < 3:
                self._counters[idx] = counter + 1
        else:
            if counter > 0:
                self._counters[idx] = counter - 1
        self._history = ((self._history << 1) | (1 if taken else 0)) & self._history_mask
        return correct


# The scalar cache hierarchy, copied verbatim from repro.machine.cache
# as it was before the replay moved onto the LRU kernels.


class Cache:
    """One set-associative LRU cache level.

    LRU is implemented with per-set insertion-ordered dicts: a hit moves
    the tag to the back, a fill evicts the front.  This is exact LRU,
    deterministic, and fast enough for the sampled event streams the
    harness replays.
    """

    __slots__ = (
        "config",
        "_sets_store",
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
        # The per-set dicts only serve the scalar walk; vectorized
        # replay never touches them, so they materialize on first use
        # (an LLC alone is thousands of dict allocations per level).
        self._sets_store: "list[dict[int, None]] | None" = None
        self._set_mask = n_sets - 1
        self._line_shift = line.bit_length() - 1
        self.hits = 0
        self.misses = 0

    @property
    def _sets(self) -> "list[dict[int, None]]":
        s = self._sets_store
        if s is None:
            s = self._sets_store = [dict() for _ in range(self.config.n_sets)]
        return s

    def access(self, addr: int) -> bool:
        """Access one byte address; returns True on hit, False on miss.

        A miss fills the line (allocate-on-miss, for reads and writes
        alike — the i7 caches are write-allocate).
        """
        tag = addr >> self._line_shift
        line_set = self._sets[tag & self._set_mask]
        if tag in line_set:
            # refresh LRU position
            del line_set[tag]
            line_set[tag] = None
            self.hits += 1
            return True
        self.misses += 1
        if len(line_set) >= self.config.associativity:
            line_set.pop(next(iter(line_set)))
        line_set[tag] = None
        return False

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0


class Tlb:
    """A fully-associative LRU TLB over fixed-size pages."""

    __slots__ = ("entries", "page_bytes", "_map", "hits", "misses", "_page_shift")

    def __init__(self, entries: int = 64, page_bytes: int = 4096):
        if entries <= 0:
            raise ValueError("Tlb: entries must be positive")
        if page_bytes <= 0 or page_bytes & (page_bytes - 1):
            raise ValueError("Tlb: page size must be a positive power of two")
        self.entries = entries
        self.page_bytes = page_bytes
        self._page_shift = page_bytes.bit_length() - 1
        self._map: dict[int, None] = {}
        self.hits = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        page = addr >> self._page_shift
        if page in self._map:
            del self._map[page]
            self._map[page] = None
            self.hits += 1
            return True
        self.misses += 1
        if len(self._map) >= self.entries:
            self._map.pop(next(iter(self._map)))
        self._map[page] = None
        return False

    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0


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

    def access_data(self, addr: int) -> int:
        """Replay one data access; returns the level that served it.

        Return codes: 1 = L1D hit, 2 = L2 hit, 3 = LLC hit, 4 = memory.
        """
        self.dtlb.access(addr)
        if self.l1d.access(addr):
            return 1
        if self.l2.access(addr):
            return 2
        if self.llc.access(addr):
            return 3
        return 4

    def access_code(self, addr: int) -> int:
        """Replay one instruction-fetch access; returns serving level."""
        if self.l1i.access(addr):
            return 1
        if self.l2.access(addr):
            return 2
        if self.llc.access(addr):
            return 3
        return 4

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


class _Replay:
    __slots__ = (
        "branches", "mispredicts",
        "data", "d_l2", "d_llc", "d_mem", "d_tlb",
        "calls", "c_l2", "c_llc", "c_mem",
    )

    def __init__(self) -> None:
        self.branches = 0
        self.mispredicts = 0
        self.data = 0
        self.d_l2 = 0
        self.d_llc = 0
        self.d_mem = 0
        self.d_tlb = 0
        self.calls = 0
        self.c_l2 = 0
        self.c_llc = 0
        self.c_mem = 0


def legacy_evaluate(probe, config: MachineConfig | None = None) -> MachineReport:
    """The pre-columnar scalar replay loop, verbatim.

    Accepts either a :class:`LegacyProbe` or the current columnar probe
    (both expose iterable ``events`` yielding 4-tuples).  The hierarchy
    takes its level sizes and dTLB reach from ``config.geometry``; the
    stepping code is unchanged, and the default geometry is the
    hierarchy it always built.
    """
    cfg = config or MachineConfig()
    if cfg.predictor == "gshare":
        predictor = _LegacyGshare(cfg.predictor_table_bits, cfg.predictor_history_bits)
    else:
        predictor = _LegacyBimodal(cfg.predictor_table_bits)
    geo = cfg.geometry
    hierarchy = CacheHierarchy(
        l1d=CacheConfig(geo.l1d_kib * 1024, geo.line_bytes, geo.l1d_assoc, name="L1D"),
        l1i=CacheConfig(geo.l1i_kib * 1024, geo.line_bytes, geo.l1i_assoc, name="L1I"),
        l2=CacheConfig(geo.l2_kib * 1024, geo.line_bytes, geo.l2_assoc, name="L2"),
        llc=CacheConfig(geo.llc_kib * 1024, geo.line_bytes, geo.llc_assoc, name="LLC"),
        dtlb_entries=geo.dtlb_entries,
    )

    methods = probe.methods()
    replays: dict[int, _Replay] = {mc.index: _Replay() for mc in methods}
    by_index = {mc.index: mc for mc in methods}

    for method_idx, kind, a, b in probe.events:
        rep = replays[method_idx]
        if kind == EV_BRANCH:
            rep.branches += 1
            if not predictor.predict_and_update(a, bool(b)):
                rep.mispredicts += 1
        elif kind == EV_DATA:
            rep.data += 1
            tlb_hit = hierarchy.dtlb.hits
            level = hierarchy.access_data(a)
            if hierarchy.dtlb.hits == tlb_hit:
                rep.d_tlb += 1
            if level == 2:
                rep.d_l2 += 1
            elif level == 3:
                rep.d_llc += 1
            elif level == 4:
                rep.d_mem += 1
        else:  # EV_CALL
            target = by_index[a]
            rep = replays[a]
            rep.calls += 1
            blocks = min(max(1, target.code_bytes // 64), _MAX_FETCH_BLOCKS)
            base = target.code_base
            for i in range(blocks):
                level = hierarchy.access_code(base + i * 64)
                if level == 2:
                    rep.c_l2 += 1
                elif level == 3:
                    rep.c_llc += 1
                elif level == 4:
                    rep.c_mem += 1

    per_method: dict[str, MethodCost] = {}
    for mc in methods:
        rep = replays[mc.index]
        cost = MethodCost(name=mc.name)

        cost.uops = (
            mc.int_ops
            + mc.fp_ops
            + mc.fpdiv_ops
            + mc.branches
            + mc.loads
            + mc.stores
            + mc.calls * cfg.call_overhead_uops
        )
        cost.retiring_cycles = cost.uops / cfg.width

        if rep.branches:
            miss_rate = rep.mispredicts / rep.branches
            cost.est_mispredicts = mc.branches * miss_rate
        cost.bad_spec_cycles = cost.est_mispredicts * cfg.wrongpath_uops / cfg.width

        frontend = cost.est_mispredicts * cfg.refill_cycles
        if rep.calls:
            scale = mc.calls / rep.calls
            frontend += (
                scale
                * (
                    rep.c_l2 * cfg.l2_latency
                    + rep.c_llc * cfg.llc_latency
                    + rep.c_mem * cfg.mem_latency
                )
                / cfg.fetch_overlap
            )
        cost.frontend_cycles = frontend

        backend = (
            mc.fp_ops * cfg.fp_backend_stall
            + mc.fpdiv_ops * cfg.fpdiv_backend_stall
        )
        if rep.data:
            scale = mc.data_accesses / rep.data
            cost.est_data_misses = scale * (rep.d_l2 + rep.d_llc + rep.d_mem)
            backend += (
                scale
                * (
                    rep.d_l2 * cfg.l2_latency
                    + rep.d_llc * cfg.llc_latency
                    + rep.d_mem * cfg.mem_latency
                    + rep.d_tlb * cfg.tlb_walk_cycles
                )
                / cfg.mlp
            )
        cost.backend_cycles = backend

        per_method[mc.name] = cost

    total_ret = sum(c.retiring_cycles for c in per_method.values())
    total_bad = sum(c.bad_spec_cycles for c in per_method.values())
    total_fe = sum(c.frontend_cycles for c in per_method.values())
    total_be = sum(c.backend_cycles for c in per_method.values())
    total = total_ret + total_bad + total_fe + total_be
    if total <= 0:
        raise ValueError("cost model: benchmark recorded no work")

    topdown = TopDownVector.from_cycles(total_fe, total_be, total_bad, total_ret)
    coverage = CoverageProfile.from_times(
        {name: c.total_cycles for name, c in per_method.items() if c.total_cycles > 0}
    )
    seconds = total / (cfg.clock_ghz * 1e9)

    total_sampled_branches = sum(r.branches for r in replays.values())
    total_sampled_miss = sum(r.mispredicts for r in replays.values())
    mispred_rate = (
        total_sampled_miss / total_sampled_branches if total_sampled_branches else 0.0
    )

    return MachineReport(
        topdown=topdown,
        coverage=coverage,
        cycles=total,
        seconds=seconds,
        per_method=per_method,
        cache_stats=hierarchy.stats(),
        branch_misprediction_rate=mispred_rate,
        sampling_stride=probe.sampling_stride,
        counters={
            "uops": sum(c.uops for c in per_method.values()),
            "branches": float(probe.total_branches()),
            "data_accesses": float(probe.total_data_accesses()),
            "est_mispredicts": sum(c.est_mispredicts for c in per_method.values()),
            "est_data_misses": sum(c.est_data_misses for c in per_method.values()),
        },
    )
