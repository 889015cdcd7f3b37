"""Tests for the FDO framework: profiles, optimizer, evaluation, clustering."""

import hashlib
import json

import pytest

from repro.core import alberta_workloads, get_benchmark
from repro.core.cache import profile_to_dict
from repro.fdo import (
    FdoCostModel,
    FdoProfile,
    MethodProfile,
    cluster_workloads,
    cross_validate,
    evaluate_pair,
    kmeans,
    merge_profiles,
    single_workload_methodology,
    train_profile,
)
from repro.machine import (
    CostModel,
    MachineConfig,
    Probe,
    Profiler,
    capture_execution,
    replay_capture,
)


def _xz_workloads():
    return alberta_workloads("557.xz_r")


class TestProfileCollection:
    def test_train_profile_has_methods(self):
        ws = _xz_workloads()
        profile = train_profile("557.xz_r", ws["xz.train"])
        assert profile.benchmark == "557.xz_r"
        assert "lzma_encode" in profile.methods
        assert profile.training_workloads == ("xz.train",)

    def test_weights_sum_to_one(self):
        ws = _xz_workloads()
        profile = train_profile("557.xz_r", ws["xz.train"])
        assert sum(p.weight for p in profile.methods.values()) == pytest.approx(1.0)

    def test_hot_methods_ranked(self):
        ws = _xz_workloads()
        profile = train_profile("557.xz_r", ws["xz.train"])
        hot = profile.hot_methods(threshold=0.05)
        weights = [profile.methods[m].weight for m in hot]
        assert weights == sorted(weights, reverse=True)


class TestBranchHints:
    def _profile(self, ratio, branches=1000):
        return FdoProfile(
            benchmark="x",
            methods={
                "m": MethodProfile(
                    weight=0.5, branch_taken_ratio=ratio, calls=10, branches=branches
                )
            },
        )

    def test_confident_taken(self):
        assert self._profile(0.95).branch_hint("m") is True

    def test_confident_not_taken(self):
        assert self._profile(0.05).branch_hint("m") is False

    def test_unbiased_no_hint(self):
        assert self._profile(0.5).branch_hint("m") is None

    def test_too_few_branches_no_hint(self):
        assert self._profile(0.99, branches=4).branch_hint("m") is None

    def test_unknown_method_no_hint(self):
        assert self._profile(0.99).branch_hint("other") is None


class TestMergeProfiles:
    def test_opposing_biases_cancel(self):
        a = FdoProfile(
            "x",
            {"m": MethodProfile(weight=0.5, branch_taken_ratio=0.95, calls=1, branches=1000)},
        )
        b = FdoProfile(
            "x",
            {"m": MethodProfile(weight=0.5, branch_taken_ratio=0.05, calls=1, branches=1000)},
        )
        merged = merge_profiles([a, b])
        assert merged.branch_hint("m") is None  # pooled ratio ~0.5

    def test_weights_averaged(self):
        a = FdoProfile("x", {"m": MethodProfile(0.8, None, 1, 0)})
        b = FdoProfile("x", {"m": MethodProfile(0.2, None, 1, 0)})
        assert merge_profiles([a, b]).methods["m"].weight == pytest.approx(0.5)

    def test_mismatched_benchmarks_rejected(self):
        a = FdoProfile("x", {})
        b = FdoProfile("y", {})
        with pytest.raises(ValueError):
            merge_profiles([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_profiles([])


class TestFdoCostModel:
    def test_fdo_speeds_up_matching_workload(self):
        """Training and evaluating on the same workload must not slow
        it down — the overfitting the paper warns about."""
        ws = _xz_workloads()
        target = ws["xz.refrate"]
        profile = train_profile("557.xz_r", target)
        result = evaluate_pair("557.xz_r", target, target, profile=profile)
        assert result.speedup >= 1.0

    def test_layout_shrinks_hot_code(self):
        ws = _xz_workloads()
        profile = train_profile("557.xz_r", ws["xz.train"])
        benchmark = get_benchmark("557.xz_r")
        probe = Probe()
        benchmark.run(ws["xz.train"], probe)
        sizes_before = {m.name: m.code_bytes for m in probe.methods()}
        FdoCostModel(profile).evaluate(probe)
        for hot in profile.hot_methods():
            if hot in sizes_before:
                mc = next(m for m in probe.methods() if m.name == hot)
                assert mc.code_bytes < sizes_before[hot]

    def test_report_still_consistent(self):
        ws = _xz_workloads()
        profile = train_profile("557.xz_r", ws["xz.train"])
        benchmark = get_benchmark("557.xz_r")
        probe = Probe()
        benchmark.run(ws["xz.refrate"], probe)
        report = FdoCostModel(profile).evaluate(probe)
        total = sum(report.topdown.as_tuple())
        assert total == pytest.approx(1.0, abs=1e-4)
        assert sum(report.coverage.fractions.values()) == pytest.approx(1.0)


#: First 16 hex digits of the SHA-256 of ``profile_to_dict`` (sorted-key
#: JSON) of every FdoCostModel replay of xz's seed-0 Alberta set, per
#: predictor, under a profile trained on ``xz.train`` with that predictor.
#: Recorded from the cost model's own stream walk; any replay rewrite must
#: reproduce them exactly.  The training profile hints ``lzma_encode``, so
#: the static-hint rewrite of the event stream is covered too.
FDO_REPLAY_DIGESTS = {
    "gshare": {
        "xz.refrate": "a686d216331f0a05",
        "xz.train": "b4cc6cb2f9154885",
        "xz.test": "4f2951fb1a8363f9",
        "xz.refspeed": "8720078e791430f8",
        "xz.alberta.text-small": "808feb2ea3ee0832",
        "xz.alberta.text-large": "b38f8e8e47354d71",
        "xz.alberta.random-small": "49a14f1c464d84c7",
        "xz.alberta.random-large": "30ffc06a1da7965d",
        "xz.alberta.repeated-small": "55a4f2e5634ca218",
        "xz.alberta.repeated-large": "741031193c011228",
        "xz.alberta.mixed-large": "27b3b79e7767383d",
        "xz.alberta.binary-large": "059eaba202c1ee3a",
    },
    "bimodal": {
        "xz.refrate": "5c1ea21d03d15f10",
        "xz.train": "dc0b5fffb009b71b",
        "xz.test": "d4c6ee24995e3a1f",
        "xz.refspeed": "5a47cca8ec80818b",
        "xz.alberta.text-small": "4a2f4bc7163656b8",
        "xz.alberta.text-large": "70e04b604d6b3b52",
        "xz.alberta.random-small": "0b456f031b421b63",
        "xz.alberta.random-large": "e25b8421f33245d5",
        "xz.alberta.repeated-small": "e6532a480345ee6e",
        "xz.alberta.repeated-large": "0024060bcf7286af",
        "xz.alberta.mixed-large": "f06d7ee0129e91d5",
        "xz.alberta.binary-large": "cef92730079c876d",
    },
}


def _profile_digest(profile):
    blob = json.dumps(profile_to_dict(profile), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class TestFdoReplayGate:
    """FDO replays are byte-stable: no frozen reference covers them."""

    @pytest.fixture(scope="class")
    def captures(self):
        benchmark = get_benchmark("557.xz_r")
        return [capture_execution(benchmark, w) for w in _xz_workloads()]

    @pytest.mark.parametrize("predictor", sorted(FDO_REPLAY_DIGESTS))
    def test_replays_match_recorded_digests(self, captures, predictor):
        machine = MachineConfig(predictor=predictor)
        profile = train_profile("557.xz_r", _xz_workloads()["xz.train"], machine=machine)
        assert profile.branch_hint("lzma_encode") is not None
        got = {
            c.workload: _profile_digest(
                replay_capture(c, cost_model=FdoCostModel(profile, machine))
            )
            for c in captures
        }
        assert got == FDO_REPLAY_DIGESTS[predictor]


class TestEvaluationProtocols:
    def test_single_workload_methodology(self):
        result = single_workload_methodology("557.xz_r")
        assert result.train_workload == "xz.train"
        assert result.eval_workload == "xz.refrate"
        assert result.speedup > 0.5

    @pytest.mark.slow
    def test_cross_validation_spread(self):
        """Cross-validation over diverse workloads shows a speedup
        *distribution*, which single-point evaluation hides."""
        cv = cross_validate("557.xz_r", max_workloads=4)
        summary = cv.summary()
        assert summary["n"] == 12  # 4 x 3
        assert summary["min"] <= summary["mean"] <= summary["max"]

    def test_combined_profile_protocol(self):
        cv = cross_validate("557.xz_r", max_workloads=3, combined=True)
        assert cv.summary()["n"] == 3
        # combined profiles list every training workload
        assert all("," in r.train_workload for r in cv.results)

    def test_too_few_workloads_rejected(self):
        with pytest.raises(ValueError):
            cross_validate("557.xz_r", max_workloads=1)


class TestClustering:
    def test_kmeans_separates_obvious_clusters(self):
        import numpy as np

        pts = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
        labels, centers = kmeans(pts, 2, seed=1)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_kmeans_k_validation(self):
        import numpy as np

        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), 5)

    def test_same_seed_same_clusters_in_process(self):
        import numpy as np

        rng = np.random.default_rng(7)
        vectors = rng.normal(size=(200, 9))
        a1, c1 = kmeans(vectors, 12, seed=0)
        a2, c2 = kmeans(vectors, 12, seed=0)
        assert np.array_equal(a1, a2)
        assert np.array_equal(c1, c2)
        a3, _ = kmeans(vectors, 12, seed=1)
        assert not np.array_equal(a1, a3)  # the seed is actually consulted

    def test_same_seed_same_clusters_across_interpreters(self):
        """A fresh interpreter derives the same clusters as this one."""
        import hashlib
        import os
        import subprocess
        import sys
        from pathlib import Path

        import numpy as np

        import repro

        script = (
            "import hashlib\n"
            "import numpy as np\n"
            "from repro.fdo.clustering import kmeans\n"
            "vectors = np.random.default_rng(11).normal(size=(150, 7))\n"
            "assignments, centroids = kmeans(vectors, 8, seed=0)\n"
            "h = hashlib.sha256()\n"
            "h.update(np.ascontiguousarray(assignments).tobytes())\n"
            "h.update(np.ascontiguousarray(centroids).tobytes())\n"
            "print(h.hexdigest())\n"
        )
        vectors = np.random.default_rng(11).normal(size=(150, 7))
        assignments, centroids = kmeans(vectors, 8, seed=0)
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(assignments).tobytes())
        h.update(np.ascontiguousarray(centroids).tobytes())
        pkg_root = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [pkg_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        assert proc.stdout.strip() == h.hexdigest()

    def test_cluster_workloads_end_to_end(self):
        ws = _xz_workloads()
        benchmark = get_benchmark("557.xz_r")
        profiler = Profiler()
        profiles = [profiler.run(benchmark, w) for w in list(ws)[:6]]
        clusters = cluster_workloads(profiles, k=2, seed=3)
        members = [m for ms in clusters.values() for m in ms]
        assert sorted(members) == sorted(p.workload for p in profiles)
        # representatives belong to their own clusters
        for rep, ms in clusters.items():
            assert rep in ms
