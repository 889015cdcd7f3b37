"""Parallel/cached characterization engine: equivalence and cache behaviour.

The engine's whole contract is "same numbers, less time": fan-out over
processes and reuse from the on-disk cache must both reproduce the
serial characterization bit-for-bit.  The fast tests here pin that
contract on a couple of benchmarks; the `slow`-marked test sweeps every
registered benchmark (run with ``pytest -m slow``).
"""

import os
import struct
import zlib
from dataclasses import asdict

import pytest

from repro.core import metrics
from repro.core.artifacts import ArtifactStore
from repro.core.cache import (
    PROFILE_MAGIC,
    ProfileEntry,
    ResultCache,
    cache_key,
    capture_key,
    payload_digest,
    profile_from_dict,
    profile_to_dict,
)
from repro.core.characterize import characterize, characterize_suite
from repro.core.engine import CharacterizationEngine, _run_cell, default_workers
from repro.core.registry import alberta_workloads, benchmark_ids, get_benchmark
from repro.core.run import Session
from repro.core.metrics import CACHE_EVENTS_TOTAL, CACHE_IO_BYTES_TOTAL
from repro.core.sweep import MachineGrid, SweepRequest
from repro.machine.profiler import Profiler

# Cheap benchmarks exercised by the fast (tier-1) tests.
FAST_IDS = ("505.mcf_r", "557.xz_r")

#: Workload names whose cells :func:`_interrupting_run_cell` interrupts;
#: forked pool workers inherit it.
INTERRUPT_AT: set = set()


def _interrupting_run_cell(cell, attempt=1, encode=False):
    """The engine's cell entry point, raising ``KeyboardInterrupt`` for
    the cells named in :data:`INTERRUPT_AT` (module level, so a pool can
    pickle it)."""
    if cell.workload_name in INTERRUPT_AT:
        raise KeyboardInterrupt
    return _run_cell(cell, attempt, encode)


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
        # A profile and a capture per workload, a set entry per benchmark.
        n_workloads = sum(len(alberta_workloads(b)) for b in FAST_IDS)
        assert len(stores[1]) == 2 * n_workloads + len(FAST_IDS)
        assert stores[1] == stores[2]

    def test_pooled_sweep_matches_an_inline_one_cold_and_warm(self, tmp_path):
        """A sweep's rows, run summary and store are the same at 1 and 2
        workers, on the cold pass that executes and on the warm one."""
        grid = MachineGrid.from_presets("default", "atom-like")
        runs = {}
        for workers in (1, 2):
            root = tmp_path / f"w{workers}"
            passes = []
            for _ in ("cold", "warm"):
                with Session(workers=workers, cache=ArtifactStore(root)) as s:
                    result = s.characterize_sweep(SweepRequest("505.mcf_r", grid))
                assert result.ok
                counts = asdict(s.summary)
                del counts["duration_s"]
                passes.append(([c.table2_row() for c in result.characterizations], counts))
            files = {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}
            runs[workers] = passes, files
        assert runs[2] == runs[1]
        (cold, warm), files = runs[1]
        n = len(alberta_workloads("505.mcf_r"))
        assert (cold[1]["captures"], cold[1]["replays"], cold[1]["replays_batched"]) == (n, 2 * n, 2 * n)
        assert (warm[1]["captures"], warm[1]["replays"], warm[1]["replay_hits"]) == (0, 0, 2 * n)
        assert warm[0] == cold[0]
        # A profile entry and a capture per workload, one set entry.
        assert len(files) == 2 * n + 1


class TestInterruptedPass:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_cells_settled_before_an_interrupt_stay_stored(
        self, workers, tmp_path, monkeypatch
    ):
        """A cold pass stores each executed cell's capture and profile
        entry as the cell settles, so when the third cell is interrupted
        the first two are kept, inline or pooled (the pool harvests in
        cell order), and a rerun executes only the rest."""
        from repro.core import engine

        bid = "505.mcf_r"
        members = alberta_workloads(bid)
        root = tmp_path / "store"
        monkeypatch.setattr(engine, "_run_cell", _interrupting_run_cell)
        INTERRUPT_AT.add(members[2].name)
        try:
            with pytest.raises(KeyboardInterrupt):
                with Session(workers=workers, cache=ArtifactStore(root)) as s:
                    s.characterize_suite(ids=[bid])
        finally:
            INTERRUPT_AT.clear()
        monkeypatch.undo()

        store = ArtifactStore(root)
        kept = [
            store.captures.get(capture_key(bid, w)) is not None
            and store.profiles.get(cache_key(bid, w)) is not None
            for w in members
        ]
        assert kept == [True, True] + [False] * (len(members) - 2)
        with Session(workers=workers, cache=ArtifactStore(root)) as s:
            s.characterize_suite(ids=[bid])
        assert (s.summary.captures, s.summary.cache_hits) == (len(members) - 2, 2)

    def test_an_interrupted_pool_leaves_no_worker_running(self, monkeypatch):
        """A ``KeyboardInterrupt`` escaping a pooled pass shuts its pool
        down and terminates the workers at once: no garbage collection
        (disabled here) is needed to end them."""
        import gc
        import multiprocessing
        import time

        from repro.core import engine

        refrate = next(w.name for w in alberta_workloads("505.mcf_r")
                       if w.name.endswith(".refrate"))
        before = set(multiprocessing.active_children())
        monkeypatch.setattr(engine, "_run_cell", _interrupting_run_cell)
        INTERRUPT_AT.add(refrate)
        gc.disable()
        try:
            with pytest.raises(KeyboardInterrupt):
                with Session(workers=2) as s:
                    s.characterize_suite(ids=["505.mcf_r"])
            deadline = time.monotonic() + 10.0
            while set(multiprocessing.active_children()) - before:
                if time.monotonic() > deadline:
                    break
                time.sleep(0.05)
            left = set(multiprocessing.active_children()) - before
        finally:
            gc.enable()
            INTERRUPT_AT.clear()
        assert left == set()


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

    @pytest.mark.parametrize("document", [b"null", b"[1,2]", b"3", b'"x"'])
    def test_entry_that_is_not_an_object_reads_as_miss(self, tmp_path, document):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # A valid envelope, so the body's shape is what gets checked.
        length, crc = len(document), zlib.crc32(document)
        path.write_bytes(PROFILE_MAGIC + struct.pack("<II", length, crc) + document)
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
        """The key changes with workload content and build; machine
        configs are members of one entry."""
        from repro.fdo.optimizer import FdoBuild
        from repro.fdo.profile_data import FdoProfile
        from repro.machine.cost import MachineConfig

        w0 = alberta_workloads("505.mcf_r", 0)[0]
        w0_again = alberta_workloads("505.mcf_r", 0)[0]
        w1 = alberta_workloads("505.mcf_r", 1)[0]
        assert cache_key("505.mcf_r", w0) == cache_key("505.mcf_r", w0_again)
        assert cache_key("505.mcf_r", w0) != cache_key("505.mcf_r", w1)
        build = FdoBuild(FdoProfile("505.mcf_r", {}))
        assert cache_key("505.mcf_r", w0) != cache_key("505.mcf_r", w0, build=build)
        other = FdoBuild(FdoProfile("505.mcf_r", {}, training_workloads=("mcf.train",)))
        assert cache_key("505.mcf_r", w0, build=build) != cache_key(
            "505.mcf_r", w0, build=other
        )
        entry = ProfileEntry()
        entry.add(MachineConfig(width=2), "wide")
        assert entry.profile(MachineConfig(width=2)) == "wide"
        assert entry.profile(None) is None and entry.profile(MachineConfig()) is None

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
