"""Parallel/cached characterization engine: equivalence and cache behaviour.

The engine's whole contract is "same numbers, less time": fan-out over
processes and reuse from the on-disk cache must both reproduce the
serial characterization bit-for-bit.  The fast tests here pin that
contract on a couple of benchmarks; the `slow`-marked test sweeps every
registered benchmark (run with ``pytest -m slow``).
"""

import os

import pytest

from repro.core import metrics
from repro.core.artifacts import ArtifactStore
from repro.core.cache import (
    ResultCache,
    cache_key,
    payload_digest,
    profile_from_dict,
    profile_to_dict,
)
from repro.core.characterize import characterize, characterize_suite
from repro.core.engine import CharacterizationEngine, default_workers
from repro.core.registry import alberta_workloads, benchmark_ids, get_benchmark
from repro.core.run import Session
from repro.core.metrics import CACHE_EVENTS_TOTAL, CACHE_IO_BYTES_TOTAL
from repro.machine.profiler import Profiler

# Cheap benchmarks exercised by the fast (tier-1) tests.
FAST_IDS = ("505.mcf_r", "557.xz_r")


class TestParallelEquivalence:
    @pytest.mark.parametrize("bid", FAST_IDS)
    def test_workers4_matches_serial(self, bid):
        serial = characterize(bid, workers=1)
        parallel = characterize(bid, workers=4)
        assert parallel.table2_row() == serial.table2_row()
        assert parallel.seconds_by_workload == serial.seconds_by_workload

    def test_workers_none_means_cpu_count(self):
        engine = CharacterizationEngine(workers=None)
        assert engine.workers == default_workers()

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            CharacterizationEngine(workers=0)

    @pytest.mark.slow
    def test_suite_parallel_matches_serial(self):
        serial = characterize_suite(suite="int", table2_only=True, workers=1)
        parallel = characterize_suite(suite="int", table2_only=True, workers=2)
        assert [c.table2_row() for c in parallel] == [c.table2_row() for c in serial]


class TestInlineWorkloads:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_inline_cells_run_the_parents_workloads(self, workers, monkeypatch):
        """Each Alberta set is generated once, in the parent: it keys the
        cells with it, and inline cells and pool workers alike run on
        those objects.  Forked workers inherit the wrapper, which raises
        outside the parent, so a worker that regenerated would fail."""
        from repro.core import engine

        parent = os.getpid()
        calls = []
        generate = engine.alberta_workloads

        def parent_only(benchmark_id, base_seed=0):
            if os.getpid() != parent:
                raise AssertionError("a pool worker generated a workload set")
            calls.append(benchmark_id)
            return generate(benchmark_id, base_seed)

        monkeypatch.setattr(engine, "alberta_workloads", parent_only)
        characterize("505.mcf_r", workers=workers)
        assert calls == ["505.mcf_r"]

    def test_cold_stores_match_across_worker_counts(self, tmp_path):
        """Inline cells and pool workers encode the captures they store;
        either way the stores hold the same files with the same bytes."""
        stores = {}
        for workers in (1, 2):
            root = tmp_path / f"w{workers}"
            with Session(workers=workers, cache=ArtifactStore(root)) as s:
                s.characterize_suite(ids=list(FAST_IDS))
            stores[workers] = {
                p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()
            }
        assert len(stores[1]) == 2 * sum(len(alberta_workloads(b)) for b in FAST_IDS)
        assert stores[1] == stores[2]


class TestResultCache:
    @pytest.mark.parametrize("bid", FAST_IDS)
    def test_cached_rerun_identical(self, bid, tmp_path):
        cache = ResultCache(tmp_path)
        serial = characterize(bid, workers=1)
        with metrics.collector(metrics.MetricsRegistry()) as reg:
            cold = characterize(bid, cache=cache)
            warm = characterize(bid, cache=cache)
        assert cold.table2_row() == serial.table2_row()
        assert warm.table2_row() == serial.table2_row()
        n = serial.n_workloads
        assert reg.value(CACHE_EVENTS_TOTAL, store="profile", event="miss") == n
        assert reg.value(CACHE_EVENTS_TOTAL, store="profile", event="hit") == n
        assert len(cache) == n

    def test_profile_round_trip_exact(self):
        workloads = alberta_workloads("557.xz_r")
        profile = Profiler().run(get_benchmark("557.xz_r"), workloads[0])
        restored = profile_from_dict(profile_to_dict(profile))
        assert restored.report.topdown == profile.report.topdown
        assert dict(restored.report.coverage.fractions) == dict(
            profile.report.coverage.fractions
        )
        assert restored.report.cycles == profile.report.cycles
        assert restored.report.seconds == profile.report.seconds
        assert restored.report.per_method == profile.report.per_method
        assert restored.report.cache_stats == profile.report.cache_stats
        assert restored.report.counters == profile.report.counters
        assert restored.output is None
        assert restored.verified is profile.verified

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        workloads = alberta_workloads("505.mcf_r")
        key = cache_key("505.mcf_r", workloads[0])
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{not json")
        with metrics.collector(metrics.MetricsRegistry()) as reg:
            assert cache.get(key) is None
        assert reg.value(CACHE_EVENTS_TOTAL, store="profile", event="miss") == 1
        assert reg.value(CACHE_EVENTS_TOTAL, store="profile", event="quarantined") == 1

    @pytest.mark.parametrize("document", ["null", "[1,2]", "3", '"x"'])
    def test_entry_that_is_not_an_object_reads_as_miss(self, tmp_path, document):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(document)
        with metrics.collector(metrics.MetricsRegistry()) as reg:
            assert cache.get(key) is None
        assert reg.value(CACHE_EVENTS_TOTAL, store="profile", event="quarantined") == 1
        assert cache.quarantined_entries() == 1

    def test_wipe(self, tmp_path):
        cache = ResultCache(tmp_path)
        characterize("505.mcf_r", cache=cache)
        assert len(cache) > 0
        removed = cache.wipe()
        assert removed == 7  # mcf's Table II workload count
        assert len(cache) == 0

    def test_key_sensitivity(self, tmp_path):
        """Key changes with workload content and machine config."""
        from repro.machine.cost import MachineConfig

        w0 = alberta_workloads("505.mcf_r", 0)[0]
        w0_again = alberta_workloads("505.mcf_r", 0)[0]
        w1 = alberta_workloads("505.mcf_r", 1)[0]
        assert cache_key("505.mcf_r", w0) == cache_key("505.mcf_r", w0_again)
        assert cache_key("505.mcf_r", w0) != cache_key("505.mcf_r", w1)
        assert cache_key("505.mcf_r", w0) != cache_key(
            "505.mcf_r", w0, MachineConfig(width=2)
        )

    def test_telemetry_counters_surface_cache_traffic(self, tmp_path):
        with metrics.collector(metrics.MetricsRegistry()) as cold:
            characterize("505.mcf_r", cache=ResultCache(tmp_path))
        assert cold.value(CACHE_EVENTS_TOTAL, store="profile", event="miss") == 7
        assert cold.value(CACHE_IO_BYTES_TOTAL, store="profile", direction="write") > 0
        with metrics.collector(metrics.MetricsRegistry()) as warm:
            characterize("505.mcf_r", cache=ResultCache(tmp_path))
        assert warm.value(CACHE_EVENTS_TOTAL, store="profile", event="hit") == 7
        assert warm.value(CACHE_IO_BYTES_TOTAL, store="profile", direction="read") > 0


class TestPayloadDigest:
    def test_insertion_order_does_not_leak(self):
        assert payload_digest({"a": 1, "b": 2}) == payload_digest({"b": 2, "a": 1})
        assert payload_digest({1, 2, 3}) == payload_digest({3, 2, 1})

    def test_type_tags_distinguish_values(self):
        assert payload_digest(1) != payload_digest(1.0)
        assert payload_digest("1") != payload_digest(1)
        assert payload_digest(True) != payload_digest(1)

    def test_rejects_identity_reprs(self):
        with pytest.raises(TypeError):
            payload_digest(object())


@pytest.mark.slow
class TestFullSuiteEquivalence:
    def test_every_benchmark_parallel_serial_and_cached_identical(self, tmp_path):
        """ISSUE satellite: every registered benchmark, workers=4 vs 1,
        plus a cache round-trip, all produce identical table2_row dicts."""
        cache = ResultCache(tmp_path)
        for bid in sorted(benchmark_ids()):
            serial = characterize(bid, workers=1)
            parallel = characterize(bid, workers=4)
            cold = characterize(bid, cache=cache)
            warm = characterize(bid, cache=cache)
            assert parallel.table2_row() == serial.table2_row(), bid
            assert cold.table2_row() == serial.table2_row(), bid
            assert warm.table2_row() == serial.table2_row(), bid
