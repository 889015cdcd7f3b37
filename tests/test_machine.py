"""Tests for the machine model: caches, predictors, cost model.

Cache levels and predictors have no stepping code of their own: the
replay decides every hit and mispredict with the kernels of
:mod:`repro.machine.kernel`, so the cache tests drive one level
through :func:`~repro.machine.kernel.lru_filter` the way the replay
does, and the hierarchy and predictor tests go through
:meth:`CostModel.evaluate`, the one replay path.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.cache import Cache, CacheConfig, Tlb
from repro.machine.cost import CostModel, MachineConfig
from repro.machine.kernel import lru_filter
from repro.machine.telemetry import Probe


def level_hits(cache: Cache, addrs) -> list[bool]:
    """Per-access hits of one cache level, as the replay decides them."""
    tags = np.asarray(addrs, dtype=np.int64) >> cache._line_shift
    (hits,) = lru_filter(tags, cache._set_mask, [cache.config.associativity])
    return hits.tolist()


def tlb_hits(tlb: Tlb, addrs) -> list[bool]:
    """Per-access hits of a fully associative TLB, as the replay decides them."""
    pages = np.asarray(addrs, dtype=np.int64) >> tlb._page_shift
    (hits,) = lru_filter(pages, 0, [tlb.entries])
    return hits.tolist()


class TestCacheConfig:
    def test_n_sets(self):
        cfg = CacheConfig(32 * 1024, 64, 8)
        assert cfg.n_sets == 64

    def test_rejects_nonmultiple_size(self):
        with pytest.raises(ValueError):
            CacheConfig(1000, 64, 2)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            CacheConfig(0, 64, 2)


class TestCache:
    def test_cold_miss_then_hit(self):
        c = Cache(CacheConfig(1024, 64, 2))
        # cold, same line, same line (last byte), next line
        assert level_hits(c, [0, 0, 63, 64]) == [False, True, True, False]

    def test_lru_eviction(self):
        # 2-way set: third distinct line mapping to the same set evicts LRU
        c = Cache(CacheConfig(1024, 64, 2))
        n_sets = c.config.n_sets
        stride = n_sets * 64  # same set index, different tags
        assert level_hits(c, [0, stride, 2 * stride, 0])[-1] is False

    def test_lru_refresh_on_hit(self):
        c = Cache(CacheConfig(1024, 64, 2))
        stride = c.config.n_sets * 64
        # refresh 0, so `stride` is LRU and the third line evicts it
        hits = level_hits(c, [0, stride, 0, 2 * stride, 0, stride])
        assert hits[-2:] == [True, False]

    def test_sequential_within_working_set_all_hits_second_pass(self):
        c = Cache(CacheConfig(4096, 64, 4))
        addrs = list(range(0, 4096, 64))
        hits = level_hits(c, addrs + addrs)
        assert hits[len(addrs):] == [True] * len(addrs)

    def test_streaming_larger_than_cache_always_misses(self):
        c = Cache(CacheConfig(1024, 64, 2))
        stream = list(range(0, 64 * 1024, 64)) * 3
        hits = level_hits(c, stream)
        # every pass evicts everything before reuse
        assert hits.count(False) / len(hits) > 0.99

    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=500))
    @settings(max_examples=30)
    def test_occupancy_never_exceeds_capacity(self, addrs):
        # a line is resident iff touching it next would hit; no set may
        # hold more resident lines than its associativity (two sets, so
        # short streams already crowd them)
        c = Cache(CacheConfig(512, 64, 4))
        resident: dict[int, int] = {}
        for line in {a >> 6 for a in addrs}:
            if level_hits(c, addrs + [line << 6])[-1]:
                s = line & c._set_mask
                resident[s] = resident.get(s, 0) + 1
        assert all(n <= 4 for n in resident.values())


class TestTlb:
    def test_page_granularity(self):
        t = Tlb(entries=4, page_bytes=4096)
        assert tlb_hits(t, [0, 4095, 4096]) == [False, True, False]

    def test_capacity_eviction(self):
        t = Tlb(entries=2, page_bytes=4096)
        # the third page evicts page 0
        assert tlb_hits(t, [0, 4096, 8192, 0])[-1] is False


def _stats(fill):
    probe = Probe()
    fill(probe)
    return CostModel().evaluate(probe).cache_stats


class TestHierarchy:
    def test_levels(self):
        def fill(p):
            with p.method("m"):
                p.load(0)
                p.load(0)

        st = _stats(fill)
        # cold: memory, then an L1 hit
        assert (st.l1d_accesses, st.l1d_misses, st.dtlb_misses) == (2, 1, 1)
        assert st.l2_misses == st.l2_accesses
        assert st.llc_misses == st.llc_accesses == st.l2_misses

    def test_l2_serves_l1_victim(self):
        def fill(p):
            # fill L1D (32KiB) with a 64KiB stream: early lines fall out
            # of L1 but stay in L2 (256KiB)
            with p.method("m"):
                p.accesses(list(range(0, 64 * 1024, 64)))
                p.load(0)

        st = _stats(fill)
        assert st.l1d_misses == st.l1d_accesses == 1025
        assert st.l2_accesses - st.l2_misses == 1

    def test_code_and_data_separate_l1(self):
        def fill(p):
            callee = p.register("callee")
            with p.method("caller"):
                p.load(callee.code_base)
            with p.method("callee"):
                pass

        st = _stats(fill)
        # the callee's first fetch block misses L1I (a separate array)
        # but hits the unified L2, where the data access put it
        assert st.l1i_misses == st.l1i_accesses
        assert st.l2_accesses - st.l2_misses == 1


def _mispredict_rate(outcomes, predictor="gshare"):
    probe = Probe()
    with probe.method("m"):
        probe.branches(outcomes)
    return CostModel(MachineConfig(predictor=predictor)).evaluate(
        probe
    ).branch_misprediction_rate


class TestPredictors:
    def test_bimodal_learns_bias(self):
        assert _mispredict_rate([True] * 100, "bimodal") < 0.05

    def test_bimodal_alternating_is_hard(self):
        outcomes = [i % 2 == 0 for i in range(200)]
        assert _mispredict_rate(outcomes, "bimodal") > 0.3

    def test_gshare_learns_pattern(self):
        """Gshare captures a repeating pattern bimodal cannot."""
        pattern = [True, True, False, True, False, False]
        outcomes = [pattern[i % len(pattern)] for i in range(3000)]
        gshare = _mispredict_rate(outcomes, "gshare")
        assert gshare < _mispredict_rate(outcomes, "bimodal")
        assert gshare < 0.05

    def test_random_branches_mispredict_heavily(self):
        rng = random.Random(7)
        outcomes = [rng.random() < 0.5 for _ in range(5000)]
        assert _mispredict_rate(outcomes) > 0.3

    def test_invalid_table_bits(self):
        for bits in (0, 25):
            for kind in ("gshare", "bimodal"):
                with pytest.raises(ValueError, match="predictor_table_bits"):
                    MachineConfig(
                        predictor=kind,
                        predictor_table_bits=bits,
                        predictor_history_bits=0,
                    )
        with pytest.raises(ValueError, match="predictor_history_bits"):
            MachineConfig(predictor_table_bits=10, predictor_history_bits=20)

    def test_negative_history_bits_rejected(self):
        with pytest.raises(ValueError, match="predictor_history_bits"):
            MachineConfig(predictor_history_bits=-1)

    def test_valid_predictor_shapes(self):
        # bimodal ignores history bits: the default 12 exceed a 10-bit
        # table, which only a gshare predictor would index with
        cfg = MachineConfig(predictor="bimodal", predictor_table_bits=10)
        assert cfg.predictor_history_bits > cfg.predictor_table_bits
        MachineConfig(predictor="bimodal", predictor_history_bits=-1)
        for tbits, hbits in ((1, 0), (1, 1), (24, 0), (24, 24)):
            MachineConfig(predictor_table_bits=tbits, predictor_history_bits=hbits)


class TestProbe:
    def test_requires_method_scope(self):
        p = Probe()
        with pytest.raises(RuntimeError):
            p.ops(1)

    def test_counters_exact(self):
        p = Probe()
        with p.method("m"):
            p.ops(10)
            p.ops(5, kind="fp")
            p.branch(True)
            p.branch(False)
            p.load(0)
            p.store(8)
        mc = p.methods()[0]
        assert mc.int_ops == 10
        assert mc.fp_ops == 5
        assert mc.branches == 2
        assert mc.branches_taken == 1
        assert mc.loads == 1
        assert mc.stores == 1
        assert mc.calls == 1

    def test_nested_scopes_attribute_to_innermost(self):
        p = Probe()
        with p.method("outer"):
            p.ops(1)
            with p.method("inner"):
                p.ops(100)
        by_name = {m.name: m for m in p.methods()}
        assert by_name["outer"].int_ops == 1
        assert by_name["inner"].int_ops == 100

    def test_unknown_op_kind(self):
        p = Probe()
        with p.method("m"):
            with pytest.raises(ValueError):
                p.ops(1, kind="simd")

    def test_event_decimation_keeps_cap(self):
        p = Probe(event_cap=2048)
        with p.method("m"):
            for i in range(10_000):
                p.load(i * 64)
        assert len(p.events) <= 2048
        assert p.sampling_stride > 1
        # exact counters unaffected by sampling
        assert p.methods()[0].loads == 10_000

    def test_registration_idempotent(self):
        p = Probe()
        with p.method("m"):
            pass
        with p.method("m"):
            pass
        assert len(p.methods()) == 1
        assert p.methods()[0].calls == 2

    def test_deterministic_code_base(self):
        p1, p2 = Probe(), Probe()
        a = p1.register("alpha").code_base
        b = p2.register("alpha").code_base
        assert a == b


class TestCostModel:
    def _profile(self, fill):
        p = Probe()
        fill(p)
        return CostModel().evaluate(p)

    def test_pure_compute_is_retiring_dominated(self):
        def fill(p):
            with p.method("kernel"):
                p.ops(100_000)

        rep = self._profile(fill)
        assert rep.topdown.retiring > 0.9

    def test_random_memory_is_backend_bound(self):
        rng = random.Random(3)

        def fill(p):
            with p.method("chase"):
                p.ops(10_000)
                p.accesses([rng.randrange(0, 1 << 26) & ~7 for _ in range(30_000)])

        rep = self._profile(fill)
        assert rep.topdown.back_end > 0.5

    def test_random_branches_raise_bad_speculation(self):
        rng = random.Random(4)

        def fill(p):
            with p.method("branchy"):
                p.ops(10_000)
                p.branches([rng.random() < 0.5 for _ in range(30_000)])

        rep = self._profile(fill)
        assert rep.topdown.bad_speculation > 0.2

    def test_big_code_footprint_is_frontend_bound(self):
        def fill(p):
            # many large methods called round-robin: L1I thrashing
            for rounds in range(30):
                for m in range(40):
                    with p.method(f"huge_{m}", code_bytes=4096):
                        p.ops(50)

        rep = self._profile(fill)
        assert rep.topdown.front_end > 0.2

    def test_coverage_fractions_sum_to_one(self):
        def fill(p):
            with p.method("a"):
                p.ops(1000)
            with p.method("b"):
                p.ops(3000)

        rep = self._profile(fill)
        assert sum(rep.coverage.fractions.values()) == pytest.approx(1.0)
        assert rep.coverage.fraction("b") > rep.coverage.fraction("a")

    def test_empty_probe_raises(self):
        p = Probe()
        with pytest.raises(ValueError):
            CostModel().evaluate(p)

    def test_seconds_scale_with_clock(self):
        def fill(p):
            with p.method("k"):
                p.ops(50_000)

        p = Probe()
        fill(p)
        slow = CostModel(MachineConfig(clock_ghz=1.0)).evaluate(p)
        p2 = Probe()
        fill(p2)
        fast = CostModel(MachineConfig(clock_ghz=4.0)).evaluate(p2)
        assert slow.seconds == pytest.approx(4 * fast.seconds)

    def test_determinism(self):
        def fill(p):
            rng = random.Random(11)
            with p.method("m"):
                p.ops(5000)
                p.branches([rng.random() < 0.6 for _ in range(5000)])
                p.accesses([rng.randrange(1 << 20) for _ in range(5000)])

        p1, p2 = Probe(), Probe()
        fill(p1)
        fill(p2)
        r1 = CostModel().evaluate(p1)
        r2 = CostModel().evaluate(p2)
        assert r1.cycles == r2.cycles
        assert r1.topdown == r2.topdown

    def test_machine_config_validation(self):
        with pytest.raises(ValueError):
            MachineConfig(width=0)
        with pytest.raises(ValueError):
            MachineConfig(predictor="tage")
        with pytest.raises(ValueError):
            MachineConfig(mlp=0.5)


class TestPresets:
    def test_lookup(self):
        from repro.machine import I7_2600, preset

        assert preset("i7-2600") is I7_2600
        assert preset("I7-2600") is I7_2600

    def test_unknown(self):
        from repro.machine import preset

        with pytest.raises(KeyError):
            preset("threadripper")

    def test_skylake_is_faster(self):
        from repro.machine import I7_2600, I7_6700K

        def fill(p):
            rng = random.Random(8)
            with p.method("k"):
                p.ops(40_000)
                p.accesses([rng.randrange(1 << 22) for _ in range(10_000)])
                p.branches((rng.random() < 0.6 for _ in range(10_000)))

        p1, p2 = Probe(), Probe()
        fill(p1)
        fill(p2)
        sandy = CostModel(I7_2600).evaluate(p1)
        sky = CostModel(I7_6700K).evaluate(p2)
        assert sky.seconds < sandy.seconds

    def test_atom_is_slowest(self):
        from repro.machine import ATOM_LIKE, I7_2600

        def fill(p):
            with p.method("k"):
                p.ops(50_000)

        p1, p2 = Probe(), Probe()
        fill(p1)
        fill(p2)
        atom = CostModel(ATOM_LIKE).evaluate(p1)
        sandy = CostModel(I7_2600).evaluate(p2)
        assert atom.seconds > 2 * sandy.seconds
