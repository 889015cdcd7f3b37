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
from repro.machine import cost
from repro.machine.batch import replay_capture, replay_capture_batched
from repro.machine.cache import CacheGeometry
from repro.machine.capture import capture_execution
from repro.machine.cost import MachineConfig
from repro.machine.kernel import lru_filter

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

    def test_counts_must_be_ints_but_float_fields_take_ints(self):
        for bad in ({"width": 4.0}, {"geometry": {"llc_assoc": 16.0}}):
            with pytest.raises(ValueError, match="must be an int"):
                MachineGrid.from_dict({"configs": [{"name": "a", **bad}]})
        grid = MachineGrid.from_dict(
            {"configs": [{"name": "a", "mlp": 4, "l2_latency": 12, "clock_ghz": 3}]}
        )
        assert grid["a"] == MachineConfig(mlp=4.0, l2_latency=12.0, clock_ghz=3.0)


class TestSweepRequest:
    def test_validation(self):
        grid = MachineGrid.from_presets("default")
        with pytest.raises(ValueError, match="benchmark"):
            SweepRequest(benchmark="", grid=grid)
        with pytest.raises(ValueError, match="grid must be"):
            SweepRequest(benchmark="505.mcf_r", grid=[None])
        with pytest.raises(ValueError, match="base_seed"):
            SweepRequest(benchmark="505.mcf_r", grid=grid, base_seed="0")


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


def _batched_sweep(bid, tmp_path, grid):
    """A sweep of ``bid`` over ``grid``, its trace summary, and the
    per-config ``replay_capture`` profiles it must equal bit for bit."""
    trace = tmp_path / f"{bid}.jsonl"
    with Session(cache=tmp_path / bid, trace=trace) as s:
        result = s.characterize_sweep(
            SweepRequest(benchmark=bid, grid=grid, keep_profiles=True)
        )
        captures = s.capture_set(bid)
    per_config = {
        name: [replay_capture(c, machine=m) for c in captures]
        for name, m in zip(grid.names, grid.machines)
    }
    return result, summarize_trace(trace), per_config


class TestGoldenSweepIdentity:
    """Batched multi-config replay == per-config replay, bit for bit."""

    @pytest.mark.parametrize("bid", TIER1_TRIO)
    def test_trio_bit_identical(self, bid, tmp_path):
        batched, summary, per_config = _batched_sweep(bid, tmp_path, TEST_GRID)
        assert batched.ok
        for name in TEST_GRID.names:
            profiles = batched.profile_for(name).profiles
            assert [p.workload for p in profiles] == [
                p.workload for p in per_config[name]
            ]
            for pa, pb in zip(profiles, per_config[name]):
                assert_reports_identical(
                    pa.report, pb.report, f"{bid}/{name}/{pa.workload}"
                )
        # the sweep actually batched every replay
        assert summary.replays_batched == summary.replays > 0

    @pytest.mark.slow
    @pytest.mark.parametrize("bid", sorted(benchmark_ids()))
    def test_full_suite_bit_identical(self, bid, tmp_path):
        grid = default_sweep_grid()
        batched, _, per_config = _batched_sweep(bid, tmp_path, grid)
        assert batched.ok
        for name in grid.names:
            profiles = batched.profile_for(name).profiles
            for pa, pb in zip(profiles, per_config[name], strict=True):
                assert_reports_identical(
                    pa.report, pb.report, f"{bid}/{name}/{pa.workload}"
                )


class TestBranchSideHistoryDepths:
    """One gshare history column, at the deepest depth, serves a batch."""

    def test_mixed_depths_match_per_config_replay(self):
        capture = capture_execution(get_benchmark("505.mcf_r"), _refrate("505.mcf_r"))
        machines = [
            MachineConfig(predictor_table_bits=t, predictor_history_bits=h)
            for t, h in ((12, 0), (12, 4), (12, 8), (14, 12), (16, 14), (16, 16))
        ] + [MachineConfig(predictor="bimodal", predictor_table_bits=10)]
        for cfg, got in zip(machines, replay_capture_batched(capture, machines)):
            want = replay_capture(capture, machine=cfg)
            assert_reports_identical(
                got.report,
                want.report,
                f"{cfg.predictor}/{cfg.predictor_table_bits}/{cfg.predictor_history_bits}",
            )


class TestMemorySideAssociativities:
    """One LRU pass per level stream serves every associativity and
    dTLB reach of a batch."""

    @pytest.mark.parametrize("bid", ["505.mcf_r", "520.omnetpp_r"])
    def test_shared_level_streams_match_per_config_replay(self, bid, monkeypatch):
        capture = capture_execution(get_benchmark(bid), _refrate(bid))
        passes = []

        def recorded(tags, set_mask, assocs):
            passes.append((set_mask, sorted(assocs)))
            return lru_filter(tags, set_mask, assocs)

        monkeypatch.setattr(cost, "lru_filter", recorded)
        geometries = (
            # L1D: 2-16 ways at 64 sets; dTLB reach; L2: 4-16 ways at
            # 512 sets; LLC: 8-32 ways at 8,192 sets; then wide lines
            [CacheGeometry(l1d_kib=4 * ways, l1d_assoc=ways) for ways in (2, 4, 8, 16)]
            + [CacheGeometry(dtlb_entries=n) for n in (16, 32, 64, 128)]
            + [CacheGeometry(l2_kib=32 * ways, l2_assoc=ways) for ways in (4, 8, 16)]
            + [CacheGeometry(llc_kib=512 * ways, llc_assoc=ways) for ways in (8, 16, 32)]
            + [CacheGeometry(line_bytes=128)]
        )
        machines = [MachineConfig(geometry=g) for g in geometries]
        batched = replay_capture_batched(capture, machines)
        # one pass each for the dTLB's page stream and the L1D's line stream
        assert (0, [16, 32, 64, 128]) in passes
        assert (63, [2, 4, 8, 16]) in passes
        for cfg, got in zip(machines, batched):
            want = replay_capture(capture, machine=cfg)
            assert_reports_identical(got.report, want.report, f"{bid}/{cfg.geometry}")


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
        n_workloads = len(alberta_workloads("519.lbm_r"))
        batched, _, _ = _batched_sweep("519.lbm_r", tmp_path, TEST_GRID)
        assert batched.ok
        batched_modes = ResultCache(tmp_path / "519.lbm_r").replay_modes()
        assert batched_modes["batched"] == len(TEST_GRID) * n_workloads
        assert batched_modes["per-config"] == 0
        # a workload with one pending config replays on its own
        with Session(cache=tmp_path / "single") as s:
            single = s.characterize_sweep(
                SweepRequest(benchmark="519.lbm_r", grid=MachineGrid.from_presets("default"))
            )
        assert single.ok
        single_modes = ResultCache(tmp_path / "single").replay_modes()
        assert single_modes["batched"] == 0
        assert single_modes["per-config"] == n_workloads

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
