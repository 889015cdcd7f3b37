"""Run/Session facade tests.

The load-bearing property: the engine is now the *only* execution path
(``characterize()`` delegates to :class:`Run`), and its
``workers=1, cache=None`` serial special case is bit-identical to the
historical serial loop — reconstructed here directly from
:class:`~repro.machine.profiler.Profiler`.
"""

from dataclasses import replace

import pytest

from repro.core.cache import ResultCache, profile_from_dict
from repro.core.characterize import assemble_characterization, characterize
from repro.core.errors import (
    CacheCorruption,
    CellFailure,
    ReproError,
    WorkloadError,
)
from repro.core.run import Run, RunResult, Session
from repro.core.registry import alberta_workloads, get_benchmark
from repro.machine.profiler import Profiler

MCF = "505.mcf_r"


class TestSerialBitIdentity:
    def test_facade_matches_the_historical_serial_loop(self):
        # The pre-facade characterize(): a Profiler, a plain loop, one
        # assemble_characterization call.  output=None mirrors what the
        # engine strips before crossing process/cache boundaries and
        # does not feed any summary.
        workloads = list(alberta_workloads(MCF))
        benchmark = get_benchmark(MCF)
        profiler = Profiler(None)
        profiles = [
            replace(profiler.run(benchmark, w), output=None) for w in workloads
        ]
        legacy = assemble_characterization(MCF, workloads, profiles)

        via_facade = characterize(MCF)  # workers=1, cache=None

        assert via_facade.table2_row() == legacy.table2_row()
        assert via_facade.seconds_by_workload == legacy.seconds_by_workload
        assert via_facade.topdown.mu_g_v == legacy.topdown.mu_g_v
        assert via_facade.coverage.mu_g_m == legacy.coverage.mu_g_m


class TestRunFacade:
    def test_one_shot_populates_summary_and_result(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        result = Run(trace=trace).characterize(MCF)
        assert isinstance(result, RunResult)
        assert result.ok
        assert result.failed_cells == []
        assert result.partial_benchmarks == set()
        assert result.characterization.benchmark_id == MCF
        assert result.trace_path == trace
        assert result.summary is not None
        assert result.summary.cells == len(alberta_workloads(MCF))
        assert result.summary.ok == result.summary.cells

    def test_run_is_reusable_one_shot_per_call(self, tmp_path):
        run = Run(cache=ResultCache(tmp_path))
        first = run.characterize(MCF)
        second = run.characterize(MCF)
        assert first.summary.cache_misses == len(alberta_workloads(MCF))
        assert second.summary.cache_hits == len(alberta_workloads(MCF))
        assert (
            first.characterization.table2_row()
            == second.characterization.table2_row()
        )

    def test_legacy_wrappers_return_plain_characterizations(self):
        from repro.core.characterize import characterize_suite

        chars = characterize_suite(suite="int")
        direct = Run().characterize_suite(suite="int").characterizations
        assert [c.benchmark_id for c in chars] == [c.benchmark_id for c in direct]
        assert [c.table2_row() for c in chars] == [c.table2_row() for c in direct]


class TestSession:
    def test_session_shares_one_journal_across_calls(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        with Session(trace=trace) as session:
            a = session.characterize(MCF)
            b = session.characterize("557.xz_r")
            assert a.summary is None  # journal still open mid-session
            assert b.summary is None
        summary = session.summary
        assert summary.cells == len(alberta_workloads(MCF)) + len(
            alberta_workloads("557.xz_r")
        )
        from repro.core.trace import summarize_trace

        assert summarize_trace(trace).cells == summary.cells

    def test_close_is_idempotent(self):
        session = Session()
        session.characterize(MCF)
        first = session.close()
        assert session.close() == first

    def test_engine_configuration_is_validated_eagerly(self):
        with pytest.raises(ValueError):
            Session(workers=0)
        with pytest.raises(ValueError):
            Session(timeout=-1.0)


class TestTypedErrors:
    def test_hierarchy_is_value_error_for_one_cycle(self):
        for exc in (ReproError, WorkloadError, CellFailure, CacheCorruption):
            assert issubclass(exc, ValueError)
        assert issubclass(WorkloadError, ReproError)
        assert issubclass(CellFailure, ReproError)
        assert issubclass(CacheCorruption, ReproError)

    def test_empty_workload_set_raises_workload_error(self):
        with pytest.raises(WorkloadError):
            Session().characterize(MCF, workloads=[])
        with pytest.raises(ValueError):  # old callers still catch this
            characterize(MCF, workloads=[])

    def test_cell_failure_carries_structured_fields(self):
        failure = CellFailure(
            MCF, "mcf.train", attempts=3, outcome="timeout", error="cell timed out"
        )
        assert failure.benchmark == MCF
        assert failure.workload == "mcf.train"
        assert failure.attempts == 3
        assert failure.as_dict()["outcome"] == "timeout"
        assert "mcf.train" in str(failure)
        assert "3 attempt" in str(failure)

    def test_foreign_cache_layout_raises_cache_corruption(self):
        with pytest.raises(CacheCorruption):
            profile_from_dict({"format": 999})
        with pytest.raises(ValueError):
            profile_from_dict({})
