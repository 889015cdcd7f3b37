"""The declarative sweep API and the one-pass batched replay behind it.

Covers the :mod:`repro.core.sweep` request values (validation,
serialization), the rejection of any other sweep/replay call form, and
the golden gate of the batched path: a batched sweep must be
bit-identical to per-config replay — checked on the tier-1 trio here
and on all 16 benchmarks under ``-m slow``.
"""

from __future__ import annotations

import json

import pytest

try:
    from tests.test_golden_equivalence import assert_reports_identical
except ImportError:  # running with tests/ itself on sys.path
    from test_golden_equivalence import assert_reports_identical
from repro.core.cache import ResultCache
from repro.core.registry import alberta_workloads, benchmark_ids, get_benchmark
from repro.core.run import Session
from repro.core.sweep import (
    MachineGrid,
    ReplayRequest,
    SweepRequest,
    default_sweep_grid,
)
from repro.core.trace import summarize_trace
from repro.machine.cache import CacheGeometry
from repro.machine.capture import capture_execution
from repro.machine.cost import MachineConfig

TIER1_TRIO = ["505.mcf_r", "519.lbm_r", "557.xz_r"]

#: Small but adversarial grid: both predictors, one sub-L1 sizing
#: change, and a line-size change (which shares nothing level-wise).
TEST_GRID = MachineGrid(
    names=("default", "bimodal", "small-llc", "wide-lines"),
    machines=(
        None,
        MachineConfig(predictor="bimodal", predictor_table_bits=12),
        MachineConfig(geometry=CacheGeometry(llc_kib=2048)),
        MachineConfig(geometry=CacheGeometry(line_bytes=128)),
    ),
)


def _refrate(bid):
    workloads = alberta_workloads(bid)
    return next((w for w in workloads if w.name.endswith(".refrate")), workloads[0])


class TestMachineGrid:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            MachineGrid(names=(), machines=())
        with pytest.raises(ValueError, match="names for"):
            MachineGrid(names=("a", "b"), machines=(None,))
        with pytest.raises(ValueError, match="duplicate"):
            MachineGrid(names=("a", "a"), machines=(None, None))
        with pytest.raises(ValueError, match="non-empty string"):
            MachineGrid(names=("",), machines=(None,))
        with pytest.raises(ValueError, match="expected a MachineConfig"):
            MachineGrid(names=("a",), machines=({"width": 4},))

    def test_none_normalizes_to_default(self):
        grid = MachineGrid(names=("default",), machines=(None,))
        assert grid["default"] == MachineConfig()

    def test_lookup_and_len(self):
        grid = TEST_GRID
        assert len(grid) == 4
        assert grid["bimodal"].predictor == "bimodal"
        with pytest.raises(KeyError, match="no config named 'nope'"):
            grid["nope"]

    def test_from_presets(self):
        grid = MachineGrid.from_presets("default", "i7-6700k")
        assert grid.names == ("default", "i7-6700k")
        assert grid["default"] == MachineConfig()
        # no names: every preset, sorted, stable
        assert MachineGrid.from_presets().names == (
            "atom-like", "i7-2600", "i7-6700k",
        )

    def test_from_machines_autonames(self):
        grid = MachineGrid.from_machines([None, MachineConfig(width=8)])
        assert grid.names == ("cfg0", "cfg1")
        assert grid["cfg1"].width == 8

    def test_dict_roundtrip_through_json(self):
        grid = TEST_GRID
        back = MachineGrid.from_dict(json.loads(json.dumps(grid.to_dict())))
        assert back == grid

    def test_from_dict_rejects_malformed(self):
        with pytest.raises(ValueError, match="non-empty 'configs'"):
            MachineGrid.from_dict({})
        with pytest.raises(ValueError, match="needs a 'name'"):
            MachineGrid.from_dict({"configs": [{"width": 4}]})


class TestSweepRequest:
    def test_validation(self):
        grid = MachineGrid.from_presets("default")
        with pytest.raises(ValueError, match="benchmark"):
            SweepRequest(benchmark="", grid=grid)
        with pytest.raises(ValueError, match="grid must be"):
            SweepRequest(benchmark="505.mcf_r", grid=[None])
        with pytest.raises(ValueError, match="base_seed"):
            SweepRequest(benchmark="505.mcf_r", grid=grid, base_seed="0")
        with pytest.raises(ValueError, match="batched"):
            SweepRequest(benchmark="505.mcf_r", grid=grid, batched="yes")


class TestReplayRequest:
    def test_machine_validation(self):
        with pytest.raises(ValueError, match="machine must be"):
            ReplayRequest(machine="i7-6700k")
        assert ReplayRequest(machine=None).machine is None
        assert ReplayRequest().machine is not None  # the engine sentinel


class TestDefaultSweepGrid:
    def test_shape(self):
        grid = default_sweep_grid()
        assert len(grid) == 8
        assert len(set(grid.names)) == 8
        # the grid must exercise both grouping axes of the batched path
        sigs = {
            (m.predictor, m.predictor_table_bits, m.predictor_history_bits)
            for m in grid.machines
        }
        geos = {m.geometry for m in grid.machines}
        assert len(sigs) > 1
        assert len(geos) > 1


class TestRequestForms:
    """Sweeps and replays take request values; other call forms fail fast."""

    @pytest.fixture(scope="class")
    def capture(self):
        return capture_execution(get_benchmark("519.lbm_r"), _refrate("519.lbm_r"))

    def test_bare_id_and_machine_keyword_raise_type_error(self, capture):
        with Session() as s:
            with pytest.raises(TypeError, match="SweepRequest") as sweep:
                s.characterize_sweep("519.lbm_r", [None])
            with pytest.raises(TypeError, match="ReplayRequest") as replay:
                s.replay(capture, machine=MachineConfig(width=8))
        for exc in (sweep.value, replay.value):
            assert "\n" not in str(exc)

    def test_sweep_rejects_mixed_forms(self, capture):
        req = SweepRequest(benchmark="519.lbm_r", grid=TEST_GRID)
        with Session() as s:
            with pytest.raises(TypeError, match="base_seed"):
                s.characterize_sweep(req, base_seed=3)
            with pytest.raises(TypeError, match="SweepRequest"):
                s.characterize_sweep("519.lbm_r")
            with pytest.raises(TypeError, match="ReplayRequest"):
                s.replay(capture, ReplayRequest(), machine=None)


def _sweep_pair(bid, tmp_path, grid):
    """One batched and one per-config sweep of ``bid`` over ``grid``."""
    results = {}
    for mode, batched in (("batched", None), ("per-config", False)):
        trace = tmp_path / f"{bid}.{mode}.jsonl"
        with Session(
            cache=tmp_path / f"{bid}.{mode}", trace=trace
        ) as s:
            results[mode] = s.characterize_sweep(
                SweepRequest(
                    benchmark=bid,
                    grid=grid,
                    keep_profiles=True,
                    batched=batched,
                )
            )
        results[mode + ".trace"] = summarize_trace(trace)
    return results


class TestGoldenSweepIdentity:
    """Batched multi-config replay == per-config replay, bit for bit."""

    @pytest.mark.parametrize("bid", TIER1_TRIO)
    def test_trio_bit_identical(self, bid, tmp_path):
        res = _sweep_pair(bid, tmp_path, TEST_GRID)
        batched, per_config = res["batched"], res["per-config"]
        assert batched.ok and per_config.ok
        assert batched.config_names == per_config.config_names
        for name in TEST_GRID.names:
            a = batched.profile_for(name)
            b = per_config.profile_for(name)
            assert a.table2_row() == b.table2_row()
            for pa, pb in zip(a.profiles, b.profiles):
                assert_reports_identical(
                    pa.report, pb.report, f"{bid}/{name}/{pa.workload}"
                )
        # the batched run actually batched; the forced run did not
        assert res["batched.trace"].replays_batched == res["batched.trace"].replays
        assert res["per-config.trace"].replays_batched == 0

    @pytest.mark.slow
    @pytest.mark.parametrize("bid", sorted(benchmark_ids()))
    def test_full_suite_bit_identical(self, bid, tmp_path):
        res = _sweep_pair(bid, tmp_path, default_sweep_grid())
        batched, per_config = res["batched"], res["per-config"]
        assert batched.ok and per_config.ok
        for name in default_sweep_grid().names:
            a = batched.profile_for(name)
            b = per_config.profile_for(name)
            for pa, pb in zip(a.profiles, b.profiles):
                assert_reports_identical(
                    pa.report, pb.report, f"{bid}/{name}/{pa.workload}"
                )


class TestSweepResultOrdering:
    def test_profile_for_follows_grid_order(self, tmp_path):
        wl = _refrate("519.lbm_r")
        grid = MachineGrid(
            names=("wide", "default"),
            machines=(MachineConfig(width=8), None),
        )
        with Session(cache=tmp_path / "store") as s:
            result = s.characterize_sweep(
                SweepRequest(benchmark="519.lbm_r", grid=grid)
            )
        assert result.config_names == ["wide", "default"]
        assert result.profile_for("wide") is result.characterizations[0]
        assert result.profile_for("default") is result.characterizations[1]
        with pytest.raises(KeyError, match="no config named 'nope'"):
            result.profile_for("nope")


class TestReplayModeProvenance:
    def test_cache_envelopes_record_replay_mode(self, tmp_path):
        res = _sweep_pair("519.lbm_r", tmp_path, TEST_GRID)
        assert res["batched"].ok and res["per-config"].ok
        n_cells = len(TEST_GRID) * len(alberta_workloads("519.lbm_r"))
        batched_modes = ResultCache(tmp_path / "519.lbm_r.batched").replay_modes()
        assert batched_modes["batched"] == n_cells
        assert batched_modes["per-config"] == 0
        forced_modes = ResultCache(tmp_path / "519.lbm_r.per-config").replay_modes()
        assert forced_modes["batched"] == 0
        assert forced_modes["per-config"] == n_cells

    def test_profiles_round_trip_from_labeled_envelopes(self, tmp_path):
        """A replay_mode-labeled cache entry must still deserialize."""
        wl = _refrate("519.lbm_r")
        with Session(cache=tmp_path / "store", trace=tmp_path / "cold.jsonl") as s:
            cold = s.characterize_sweep(
                SweepRequest(benchmark="519.lbm_r", grid=TEST_GRID)
            )
        with Session(cache=tmp_path / "store", trace=tmp_path / "warm.jsonl") as s:
            warm = s.characterize_sweep(
                SweepRequest(benchmark="519.lbm_r", grid=TEST_GRID)
            )
        assert summarize_trace(tmp_path / "warm.jsonl").replays == 0
        for a, b in zip(cold.characterizations, warm.characterizations):
            assert a.table2_row() == b.table2_row()
