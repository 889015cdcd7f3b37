"""Staged-pipeline tests: codec, capture/replay identity, golden ports.

Three layers of guarantees:

* the telemetry codec round-trips captures exactly (decimation state
  included) and quarantines corrupt artifacts instead of crashing;
* capture -> materialize -> replay is bit-identical to the historical
  fused ``Profiler.run`` path;
* the ported studies (compiler variation, similarity, FDO
  cross-validation) produce byte-identical results to the frozen
  pre-port implementations in ``tests/_legacy_studies.py``, and sweeps
  actually reuse captured telemetry (zero re-executions when warm).
"""

from __future__ import annotations

import re
import shutil
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.core import artifacts
from repro.core.artifacts import ArtifactStore, CaptureStore, decode_capture, encode_capture
from repro.core.cache import capture_key, profile_to_dict
from repro.core.errors import CacheCorruption, MachineMismatch, StudyError
from repro.core.run import Session
from repro.core.registry import alberta_workloads, get_benchmark
from repro.core.sweep import MachineGrid, ReplayRequest, SweepRequest
from repro.core.trace import summarize_trace
from repro.fdo.evaluation import cross_validate, evaluate_pair, train_profile
from repro.machine.batch import replay_capture
from repro.machine.capture import TelemetryCapture, capture_execution
from repro.machine.cost import MachineConfig
from repro.machine.profiler import Profiler
from repro.machine.telemetry import Probe
from repro.studies.compiler_variation import compiler_variation
from repro.studies.similarity import collect_features

try:
    from tests._legacy_studies import (
        legacy_collect_features,
        legacy_compiler_variation,
        legacy_cross_validate,
    )
except ImportError:  # pragma: no cover - direct invocation from tests/
    from _legacy_studies import (
        legacy_collect_features,
        legacy_compiler_variation,
        legacy_cross_validate,
    )


def _workload(benchmark_id: str, suffix: str):
    return next(
        w for w in alberta_workloads(benchmark_id) if w.name.endswith(suffix)
    )


def _capture(benchmark_id: str = "505.mcf_r", suffix: str = ".refrate"):
    wl = _workload(benchmark_id, suffix)
    return capture_execution(get_benchmark(benchmark_id), wl), wl


class TestCaptureCodec:
    def test_round_trip_exact(self):
        cap, _ = _capture()
        blob = encode_capture(cap)
        back = decode_capture(blob)
        assert back.benchmark == cap.benchmark
        assert back.workload == cap.workload
        assert back.verified == cap.verified
        assert back.sampling_stride == cap.sampling_stride
        assert back.event_cap == cap.event_cap
        assert back.tick == cap.tick
        assert back.methods == cap.methods
        for a, b in zip(back.columns, cap.columns):
            assert a.dtype == np.int64
            assert np.array_equal(a, b)

    def test_round_trip_under_decimation(self):
        # A tiny event cap forces the probe to decimate its event
        # stream; the codec must preserve the resulting sampling state.
        bench = get_benchmark("505.mcf_r")
        wl = _workload("505.mcf_r", ".refrate")
        probe = Probe(event_cap=1024)
        bench.run(wl, probe)
        cap = TelemetryCapture.from_probe(bench.name, wl.name, probe)
        assert cap.sampling_stride > 1  # decimation actually happened
        back = decode_capture(encode_capture(cap))
        assert back.sampling_stride == cap.sampling_stride
        assert back.event_cap == cap.event_cap
        assert back.tick == cap.tick
        for a, b in zip(back.columns, cap.columns):
            assert np.array_equal(a, b)

    def test_decode_rejects_damage(self):
        cap, _ = _capture()
        blob = encode_capture(cap)
        with pytest.raises(CacheCorruption):
            decode_capture(blob[:40])  # truncated
        with pytest.raises(CacheCorruption):
            decode_capture(b"XXXX" + blob[4:])  # wrong magic
        flipped = bytearray(blob)
        flipped[-1] ^= 0xFF  # payload damage -> zlib/crc failure
        with pytest.raises(CacheCorruption):
            decode_capture(bytes(flipped))

    def test_store_quarantines_corrupt_artifact(self, tmp_path):
        store = CaptureStore(tmp_path)
        cap, wl = _capture()
        key = capture_key(cap.benchmark, wl)
        store.put(key, encode_capture(cap))
        assert len(store) == 1
        path = next(Path(tmp_path).glob("*/*.bin"))
        path.write_bytes(b"garbage")
        assert store.get(key) is None
        assert store.quarantined_entries() == 1
        assert len(store) == 0  # quarantined entry no longer served


class TestCaptureReplayIdentity:
    @pytest.mark.parametrize("bid", ["505.mcf_r", "557.xz_r", "519.lbm_r"])
    def test_replay_matches_fused_profiler(self, bid):
        wl = _workload(bid, ".refrate")
        machine = MachineConfig(predictor="bimodal", width=2)
        direct = Profiler(machine).run(get_benchmark(bid), wl)
        cap = capture_execution(get_benchmark(bid), wl)
        replayed = replay_capture(cap, machine=machine)
        direct_d = profile_to_dict(direct)
        replayed_d = profile_to_dict(replayed)
        assert direct_d == replayed_d

    def test_replay_is_repeatable(self):
        # Replays must not perturb the capture: N replays, one answer.
        cap, _ = _capture("557.xz_r")
        first = profile_to_dict(replay_capture(cap))
        for _ in range(3):
            assert profile_to_dict(replay_capture(cap)) == first


class TestGoldenPorts:
    def test_compiler_variation_equivalent(self):
        new = compiler_variation("557.xz_r", max_workloads=2)
        old = legacy_compiler_variation("557.xz_r", max_workloads=2)
        assert new == old

    def test_similarity_features_equivalent(self):
        new = collect_features("505.mcf_r")
        old = legacy_collect_features("505.mcf_r")
        assert new.benchmark == old.benchmark
        assert new.workload == old.workload
        assert np.array_equal(new.vector, old.vector)

    def test_cross_validate_equivalent(self):
        new = cross_validate("505.mcf_r", max_workloads=2)
        old = legacy_cross_validate("505.mcf_r", max_workloads=2)
        assert new.benchmark == old.benchmark
        assert new.results == old.results

    def test_cross_validate_combined_equivalent(self):
        new = cross_validate("505.mcf_r", max_workloads=3, combined=True)
        old = legacy_cross_validate("505.mcf_r", max_workloads=3, combined=True)
        assert new.results == old.results

    def test_cross_validate_needs_two_workloads(self):
        # Checked before slicing: wl[:-3] would keep 4 of mcf's 7 workloads.
        for limit in (1, 0, -3):
            with pytest.raises(StudyError):
                cross_validate("505.mcf_r", max_workloads=limit)


class TestMachineMismatch:
    def test_mismatched_profile_rejected(self):
        wl_train = _workload("557.xz_r", ".train")
        wl_ref = _workload("557.xz_r", ".refrate")
        profile = train_profile("557.xz_r", wl_train, MachineConfig(width=2))
        with pytest.raises(MachineMismatch):
            evaluate_pair(
                "557.xz_r",
                wl_train,
                wl_ref,
                machine=MachineConfig(width=8),
                profile=profile,
            )

    def test_default_config_normalized(self):
        # machine=None and an explicit default config are the same
        # machine: normalized, not rejected.
        wl_train = _workload("557.xz_r", ".train")
        wl_ref = _workload("557.xz_r", ".refrate")
        profile = train_profile("557.xz_r", wl_train, MachineConfig())
        result = evaluate_pair(
            "557.xz_r", wl_train, wl_ref, machine=None, profile=profile
        )
        assert result.fdo_seconds > 0

    def test_unstamped_profile_accepted_anywhere(self):
        # Legacy profiles (machine=None) predate the stamp; they replay
        # under any config without complaint.
        wl_train = _workload("557.xz_r", ".train")
        wl_ref = _workload("557.xz_r", ".refrate")
        profile = train_profile("557.xz_r", wl_train, MachineConfig(width=2))
        profile = type(profile)(
            benchmark=profile.benchmark,
            methods=profile.methods,
            training_workloads=profile.training_workloads,
            machine=None,
        )
        result = evaluate_pair(
            "557.xz_r",
            wl_train,
            wl_ref,
            machine=MachineConfig(width=8),
            profile=profile,
        )
        assert result.fdo_seconds > 0


class TestSweepReuse:
    MACHINES = [None, MachineConfig(predictor="bimodal")]

    @classmethod
    def _request(cls) -> SweepRequest:
        return SweepRequest(
            benchmark="505.mcf_r", grid=MachineGrid.from_machines(cls.MACHINES)
        )

    def test_sweep_executes_each_workload_once(self, tmp_path):
        with Session(cache=tmp_path / "store", trace=tmp_path / "cold.jsonl") as s:
            result = s.characterize_sweep(self._request())
        assert result.ok
        summary = summarize_trace(tmp_path / "cold.jsonl")
        n_workloads = len(alberta_workloads("505.mcf_r"))
        assert summary.cells == n_workloads * len(self.MACHINES)
        assert summary.captures == n_workloads  # one execution per workload
        assert summary.replays == summary.cells

    def test_warm_sweep_executes_nothing(self, tmp_path):
        with Session(cache=tmp_path / "store") as s:
            cold = s.characterize_sweep(self._request())
        with Session(cache=tmp_path / "store", trace=tmp_path / "warm.jsonl") as s:
            warm = s.characterize_sweep(self._request())
        summary = summarize_trace(tmp_path / "warm.jsonl")
        assert summary.captures == 0  # zero benchmark re-executions
        assert summary.replays == 0  # every cell is a profile-cache hit
        assert summary.cache_hits == summary.cells
        for a, b in zip(cold.characterizations, warm.characterizations):
            assert a.table2_row() == b.table2_row()

    def test_capture_store_shared_across_machines(self, tmp_path):
        # A new config added to a warm store replays without executing.
        with Session(cache=tmp_path / "store") as s:
            s.characterize("505.mcf_r")
        with Session(
            machine=MachineConfig(width=2),
            cache=tmp_path / "store",
            trace=tmp_path / "new.jsonl",
        ) as s:
            s.characterize("505.mcf_r")
        summary = summarize_trace(tmp_path / "new.jsonl")
        assert summary.captures == 0
        assert summary.capture_hits == summary.cells
        assert summary.replays == summary.cells

    def test_warm_replay_is_served_from_the_profile_store(self, tmp_path):
        wl = _workload("505.mcf_r", ".refrate")
        with Session(cache=tmp_path / "store") as s:
            cold = s.replay(s.capture("505.mcf_r", wl), ReplayRequest(workload=wl))
        with Session(cache=tmp_path / "store") as s:
            warm = s.replay(s.capture("505.mcf_r", wl), ReplayRequest(workload=wl))
        assert profile_to_dict(warm) == profile_to_dict(cold)
        assert (s.summary.captures, s.summary.replays, s.summary.replay_hits) == (0, 0, 1)

    def test_artifact_store_wipe_covers_both_stages(self, tmp_path):
        with Session(cache=tmp_path / "store") as s:
            s.characterize("505.mcf_r")
        store = ArtifactStore(tmp_path / "store")
        assert len(store.profiles) > 0
        assert len(store.captures) > 0
        removed = store.wipe()
        assert removed > 0
        assert len(store.profiles) == 0
        assert len(store.captures) == 0


class TestCaptureLifetime:
    """With a store attached the store is the capture memo.

    A sweep over stored captures decodes and replays them one workload
    at a time and keeps none of them; only a store-less engine memoizes
    captures, because a repeat there would re-execute the benchmark.
    The stores here hold captures only, as the sweep benchmark's
    fixture does: with profiles stored, every cell would be a profile
    hit and no capture would be looked up.
    """

    GRID = MachineGrid.from_machines([None, MachineConfig(predictor="bimodal")])

    @pytest.fixture(scope="class")
    def captures_only(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("captures") / "store"
        with Session(cache=ArtifactStore(root)) as s:
            s.capture_set("505.mcf_r")
        assert len(ArtifactStore(root).profiles) == 0
        return root

    @pytest.fixture
    def store(self, captures_only, tmp_path):
        return shutil.copytree(captures_only, tmp_path / "store")

    def test_sweep_holds_at_most_two_decoded_captures(self, store, monkeypatch):
        decode = artifacts.decode_capture
        alive = peak = decoded = 0

        def release() -> None:
            nonlocal alive
            alive -= 1

        def counting_decode(blob):
            nonlocal alive, peak, decoded
            capture = decode(blob)
            weakref.finalize(capture, release)
            alive += 1
            decoded += 1
            peak = max(peak, alive)
            return capture

        monkeypatch.setattr(artifacts, "decode_capture", counting_decode)
        with Session(cache=store) as s:
            assert s.characterize_sweep(SweepRequest("505.mcf_r", self.GRID)).ok
            memoized = len(s.engine._capture_memo)
        assert decoded == len(alberta_workloads("505.mcf_r"))
        assert peak <= 2
        assert memoized == 0

    def test_mixed_sweep_matches_a_store_less_one(self, store, tmp_path):
        for path in sorted((store / "capture").glob("*/*.bin"))[:2]:
            path.unlink()
        with Session(cache=store, trace=tmp_path / "mixed.jsonl") as s:
            mixed = s.characterize_sweep(SweepRequest("505.mcf_r", self.GRID))
        with Session() as s:
            fresh = s.characterize_sweep(SweepRequest("505.mcf_r", self.GRID))
        assert mixed.ok and fresh.ok
        for a, b in zip(mixed.characterizations, fresh.characterizations):
            assert a.table2_row() == b.table2_row()
        summary = summarize_trace(tmp_path / "mixed.jsonl")
        assert summary.cells == 2 * len(alberta_workloads("505.mcf_r"))
        assert (summary.captures, summary.capture_hits) == (2, 12)

    def test_store_less_repeat_executes_once(self):
        with Session() as s:
            first = s.capture("519.lbm_r", "lbm.test")
            again = s.capture("519.lbm_r", "lbm.test")
        assert again is first
        assert s.summary.captures == 1

    @pytest.mark.parametrize("stored", [False, True], ids=["cold", "warm"])
    def test_store_backed_capture_set_memoizes_nothing(
        self, stored, captures_only, tmp_path
    ):
        root = tmp_path / "store"
        if stored:
            shutil.copytree(captures_only, root)
        with Session(cache=root) as s:
            assert all(s.capture_set("505.mcf_r"))
            assert s.engine._capture_memo == {}
        assert s.summary.captures == (0 if stored else len(alberta_workloads("505.mcf_r")))


GATE_PATTERN = re.compile(r"(?<![\w.])(Probe|CostModel)\s*\(")
GATE_EXEMPT = ("machine/", "fdo/optimizer.py")


def test_no_private_execution_loops_outside_pipeline():
    """Grep gate: only machine/ and the FDO cost model may construct
    Probe or CostModel — everything else must go through the staged
    pipeline (Session/engine)."""
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    offenders = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        if rel.startswith(GATE_EXEMPT[0]) or rel == GATE_EXEMPT[1]:
            continue
        for i, line in enumerate(path.read_text().splitlines(), 1):
            if GATE_PATTERN.search(line):
                offenders.append(f"{rel}:{i}: {line.strip()}")
    assert not offenders, "direct Probe/CostModel construction:\n" + "\n".join(offenders)
