"""Fault-tolerance tests: the engine must degrade, not detonate.

Faults are injected through the engine's ``REPRO_FAULT_INJECT``
environment hook (see :mod:`repro.core.engine`): ``raise`` makes the
worker raise, ``exit`` kills the worker process (breaking the pool),
``hang`` sleeps past the per-cell timeout.  Worker processes inherit
the environment, so the hook works across the process boundary, and
the ``max_attempt`` field makes retry-recovery deterministic.
"""

import pytest

from repro.core.artifacts import ArtifactStore
from repro.core.cache import ResultCache, cache_key, capture_key
from repro.core.engine import FAULT_INJECT_ENV
from repro.core.errors import CellFailure
from repro.core.metrics import CACHE_EVENTS_TOTAL
from repro.core.run import Run, Session
from repro.core.registry import alberta_workloads
from repro.core.sweep import MachineGrid, SweepRequest
from repro.core.trace import trace_spans

MCF = "505.mcf_r"
XZ = "557.xz_r"


@pytest.fixture(autouse=True)
def _no_leftover_faults(monkeypatch):
    monkeypatch.delenv(FAULT_INJECT_ENV, raising=False)


@pytest.fixture(scope="module")
def clean_mcf():
    return Run().characterize(MCF).characterization


class TestInjectedException:
    def test_strict_raises_cell_failure(self, monkeypatch):
        monkeypatch.setenv(FAULT_INJECT_ENV, f"raise:{MCF}:mcf.train")
        with pytest.raises(CellFailure) as excinfo:
            Run(workers=2, backoff=0.0).characterize(MCF)
        failure = excinfo.value
        assert failure.benchmark == MCF
        assert failure.workload == "mcf.train"
        assert failure.attempts == 2  # 1 + the default retry
        assert failure.outcome == "failed"
        assert "injected fault" in failure.error

    def test_cell_failure_is_a_value_error_for_now(self):
        # One deprecation cycle of ValueError compatibility.
        assert issubclass(CellFailure, ValueError)

    def test_non_strict_completes_with_failure_reported(self, monkeypatch, clean_mcf):
        monkeypatch.setenv(FAULT_INJECT_ENV, f"raise:{MCF}:mcf.train")
        result = Run(workers=2, backoff=0.0, strict=False).characterize(MCF)
        assert result.failed_cells == [(MCF, "mcf.train")]
        assert result.partial_benchmarks == {MCF}
        char = result.characterization
        assert char.n_workloads == clean_mcf.n_workloads - 1
        # Every surviving cell is bit-identical to the clean run.
        for name, seconds in char.seconds_by_workload.items():
            assert seconds == clean_mcf.seconds_by_workload[name]

    def test_inline_serial_path_also_degrades(self, monkeypatch, clean_mcf):
        monkeypatch.setenv(FAULT_INJECT_ENV, f"raise:{MCF}:mcf.train")
        result = Run(workers=1, backoff=0.0, strict=False).characterize(MCF)
        assert result.failed_cells == [(MCF, "mcf.train")]
        assert result.characterization.n_workloads == clean_mcf.n_workloads - 1


class TestRetry:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_transient_failure_recovers_and_matches_clean_run(
        self, monkeypatch, clean_mcf, workers
    ):
        # Fail only the first attempt; the bounded retry must recover.
        monkeypatch.setenv(FAULT_INJECT_ENV, f"raise:{MCF}:mcf.train:1")
        result = Run(workers=workers, backoff=0.0, retries=1).characterize(MCF)
        assert result.ok
        assert result.summary.retries >= 1
        assert result.characterization.table2_row() == clean_mcf.table2_row()

    def test_retries_zero_means_single_attempt(self, monkeypatch):
        monkeypatch.setenv(FAULT_INJECT_ENV, f"raise:{MCF}:mcf.train:1")
        with pytest.raises(CellFailure) as excinfo:
            Run(workers=2, backoff=0.0, retries=0).characterize(MCF)
        assert excinfo.value.attempts == 1


class TestTimeout:
    def test_hung_cell_times_out_and_rest_complete(self, monkeypatch, clean_mcf):
        monkeypatch.setenv(FAULT_INJECT_ENV, f"hang(5):{MCF}:mcf.train")
        result = Run(
            workers=2, backoff=0.0, retries=0, timeout=1.0, strict=False
        ).characterize(MCF)
        assert result.failed_cells == [(MCF, "mcf.train")]
        assert result.summary.timeouts == 1
        assert result.characterization.n_workloads == clean_mcf.n_workloads - 1

    def test_timeout_with_single_worker_uses_pool_to_enforce(self, monkeypatch):
        # workers=1 + timeout must still preempt: inline execution cannot.
        monkeypatch.setenv(FAULT_INJECT_ENV, f"hang(5):{MCF}:mcf.train")
        result = Run(
            workers=1, backoff=0.0, retries=0, timeout=1.0, strict=False
        ).characterize(MCF)
        assert result.failed_cells == [(MCF, "mcf.train")]

    def test_timeout_must_be_positive(self):
        from repro.core.engine import CharacterizationEngine

        with pytest.raises(ValueError):
            CharacterizationEngine(timeout=0.0)


class TestWorkerCrash:
    def test_broken_pool_recovers_surviving_cells(self, monkeypatch, clean_mcf):
        monkeypatch.setenv(FAULT_INJECT_ENV, f"exit:{MCF}:mcf.train")
        result = Run(workers=2, backoff=0.0, retries=1, strict=False).characterize(MCF)
        assert result.failed_cells == [(MCF, "mcf.train")]
        assert result.summary.crashes >= 1
        char = result.characterization
        assert char.n_workloads == clean_mcf.n_workloads - 1
        for name, seconds in char.seconds_by_workload.items():
            assert seconds == clean_mcf.seconds_by_workload[name]

    def test_strict_crash_raises_cell_failure(self, monkeypatch):
        monkeypatch.setenv(FAULT_INJECT_ENV, f"exit:{MCF}:mcf.train")
        with pytest.raises(CellFailure) as excinfo:
            Run(workers=2, backoff=0.0, retries=0).characterize(MCF)
        assert excinfo.value.workload == "mcf.train"
        assert excinfo.value.outcome == "crashed"


class TestCorruptCache:
    def test_corrupt_entry_quarantined_and_reprofiled(self, tmp_path, clean_mcf):
        cache = ResultCache(tmp_path)
        Run(cache=cache).characterize(MCF)
        key = cache_key(MCF, alberta_workloads(MCF)[0])
        path = cache._path(key)
        path.write_text("{truncated json")

        result = Run(cache=cache).characterize(MCF)
        assert result.ok
        assert result.characterization.table2_row() == clean_mcf.table2_row()
        # Entry moved aside, counted, and re-created by the re-profile.
        assert path.with_name(path.name + ".corrupt").exists()
        assert cache.quarantined_entries() == 1
        assert result.summary.quarantined == 1
        assert (
            result.metrics.value(CACHE_EVENTS_TOTAL, store="profile", event="quarantined")
            == 1
        )
        assert path.exists()

    @pytest.mark.parametrize("call", ["run_cells", "sweep"])
    def test_corrupt_capture_behind_corrupt_profile_counts_twice(self, tmp_path, call):
        store = ArtifactStore(tmp_path)
        Run(cache=store).characterize(MCF)
        workload = alberta_workloads(MCF)[0]
        store.profiles._path(cache_key(MCF, workload)).write_text("{truncated")
        store.captures._path(capture_key(MCF, workload)).write_bytes(b"RTC2 torn")

        with Session(cache=store) as session:
            if call == "run_cells":
                session.characterize(MCF)
            else:
                grid = MachineGrid.from_machines([None])
                session.characterize_sweep(SweepRequest(MCF, grid))
        assert session.summary.quarantined == 2
        assert session.summary.captures == 1  # the cell had to re-execute
        assert store.profiles.quarantined_entries() == 1
        assert store.captures.quarantined_entries() == 1
        for kind in ("profile", "capture"):
            assert (
                session.metrics.value(CACHE_EVENTS_TOTAL, store=kind, event="quarantined")
                == 1
            )

    def test_wipe_removes_quarantined_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        Run(cache=cache).characterize(MCF)
        key = cache_key(MCF, alberta_workloads(MCF)[0])
        cache._path(key).write_text("not json")
        assert cache.get(key) is None  # quarantines
        assert cache.quarantined_entries() == 1
        cache.wipe()
        assert cache.quarantined_entries() == 0
        assert len(cache) == 0


class TestDegradedSuite:
    """The ISSUE acceptance scenario, on a cheap two-benchmark subset."""

    def test_crash_plus_corrupt_cache_degrades_exactly(self, tmp_path, monkeypatch):
        ids = [MCF, XZ]
        reference = {
            c.benchmark_id: c.table2_row()
            for c in Run().characterize_suite(ids=ids).characterizations
        }

        # Warm the cache for xz, then corrupt one of its entries.
        cache = ResultCache(tmp_path / "cache")
        Run(cache=cache).characterize(XZ)
        corrupt_key = cache_key(XZ, alberta_workloads(XZ)[0])
        cache._path(corrupt_key).write_text("{truncated")

        monkeypatch.setenv(FAULT_INJECT_ENV, f"exit:{MCF}:mcf.train")
        trace_path = tmp_path / "run.jsonl"
        result = Run(
            workers=2,
            cache=cache,
            strict=False,
            backoff=0.0,
            retries=1,
            trace=trace_path,
        ).characterize_suite(ids=ids)

        # Exactly the crashed cell is reported failed...
        assert result.failed_cells == [(MCF, "mcf.train")]
        assert result.partial_benchmarks == {MCF}
        by_id = {c.benchmark_id: c for c in result.characterizations}
        # ...the unaffected benchmark is bit-identical to a clean serial
        # run (including the quarantined-and-reprofiled cell)...
        assert by_id[XZ].table2_row() == reference[XZ]
        # ...and the affected benchmark carries every surviving cell.
        assert by_id[MCF].n_workloads == reference[MCF]["n_workloads"] - 1

        # The trace journal tells the same story.
        failed_spans = [s for s in trace_spans(trace_path) if not s.ok]
        assert [(s.benchmark, s.workload) for s in failed_spans] == [(MCF, "mcf.train")]
        assert result.summary.quarantined == 1
        assert result.summary.failed == 1
        assert result.summary.cache_hits == len(alberta_workloads(XZ)) - 1
