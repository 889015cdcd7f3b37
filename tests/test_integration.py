"""Integration tests: registry, characterization pipeline, validation,
reports, determinism across the whole stack."""

import pytest

from repro.core import (
    alberta_workloads,
    benchmark_ids,
    benchmark_report,
    characterize,
    get_benchmark,
    get_generator,
    validate_workload_set,
)
from repro.machine import MachineConfig, run_benchmark

#: Paper Table II workload counts per benchmark.
TABLE2_COUNTS = {
    "502.gcc_r": 19,
    "505.mcf_r": 7,
    "507.cactuBSSN_r": 11,
    "510.parest_r": 8,
    "511.povray_r": 10,
    "519.lbm_r": 30,
    "520.omnetpp_r": 10,
    "521.wrf_r": 16,
    "523.xalancbmk_r": 8,
    "526.blender_r": 16,
    "531.deepsjeng_r": 12,
    "541.leela_r": 12,
    "544.nab_r": 11,
    "548.exchange2_r": 13,
    "557.xz_r": 12,
}


class TestRegistry:
    def test_sixteen_benchmarks(self):
        assert len(benchmark_ids()) == 16

    def test_fifteen_in_table2(self):
        assert len(benchmark_ids(table2_only=True)) == 15
        assert "525.x264_r" not in benchmark_ids(table2_only=True)

    def test_int_fp_split(self):
        assert len(benchmark_ids("int")) == 9
        assert len(benchmark_ids("fp")) == 7

    def test_benchmark_names_match_registry(self):
        for bid in benchmark_ids():
            assert get_benchmark(bid).name == bid
            assert get_generator(bid).benchmark == bid

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            get_benchmark("999.zzz")
        with pytest.raises(KeyError):
            get_generator("999.zzz")


class TestWorkloadCounts:
    @pytest.mark.parametrize("bid", sorted(TABLE2_COUNTS))
    def test_alberta_set_matches_paper_count(self, bid):
        """Every default workload set has exactly the Table II count."""
        assert len(alberta_workloads(bid)) == TABLE2_COUNTS[bid]

    @pytest.mark.parametrize("bid", sorted(TABLE2_COUNTS))
    def test_every_set_has_spec_trio(self, bid):
        names = alberta_workloads(bid).names()
        assert any(n.endswith(".refrate") for n in names)
        assert any(n.endswith(".train") for n in names)
        assert any(n.endswith(".test") for n in names)


class TestCharacterization:
    def test_characterize_produces_table_row(self):
        char = characterize("557.xz_r")
        row = char.table2_row()
        assert row["benchmark"] == "557.xz_r"
        assert row["n_workloads"] == 12
        assert row["refrate_seconds"] > 0

    def test_deterministic(self):
        a = characterize("548.exchange2_r")
        b = characterize("548.exchange2_r")
        assert a.mu_g_v == b.mu_g_v
        assert a.mu_g_m == b.mu_g_m
        assert a.seconds_by_workload == b.seconds_by_workload

    def test_machine_config_changes_results(self):
        fast_mem = characterize(
            "520.omnetpp_r", machine=MachineConfig(mem_latency=60.0)
        )
        slow_mem = characterize(
            "520.omnetpp_r", machine=MachineConfig(mem_latency=400.0)
        )
        # omnetpp is memory bound: slower memory -> more back-end bound
        assert slow_mem.topdown.mu_g("back_end") > fast_mem.topdown.mu_g("back_end")

    def test_report_renders(self):
        char = characterize("557.xz_r")
        text = benchmark_report(char)
        assert "557.xz_r" in text
        assert "mu_g(V)" in text
        assert "lzma_encode" in text


class TestValidation:
    def test_all_mcf_workloads_valid(self):
        report = validate_workload_set(alberta_workloads("505.mcf_r"))
        assert report.ok, report.summary()

    def test_all_xz_workloads_valid(self):
        report = validate_workload_set(alberta_workloads("557.xz_r"))
        assert report.ok, report.summary()


@pytest.mark.slow
class TestPaperShape:
    """Coarse shape assertions against the paper's Table II."""

    def test_exchange2_is_most_stable(self):
        """exchange2 has sigma_g ~= 1.0 in every category (paper)."""
        char = characterize("548.exchange2_r")
        for cat in ("front_end", "back_end", "bad_speculation", "retiring"):
            assert char.topdown.sigma_g(cat) < 2.0

    def test_leela_bad_speculation_is_large(self):
        """leela has the suite's highest bad-speculation fraction."""
        leela = characterize("541.leela_r")
        lbm = characterize("519.lbm_r")
        assert leela.topdown.mu_g("bad_speculation") > 0.15
        assert lbm.topdown.mu_g("bad_speculation") < 0.01

    def test_omnetpp_is_backend_bound(self):
        char = characterize("520.omnetpp_r")
        assert char.topdown.mu_g("back_end") > 0.5

    def test_xalancbmk_most_method_variation(self):
        """xalancbmk has the largest mu_g(M) in the paper (108)."""
        xalan = characterize("523.xalancbmk_r")
        deepsjeng = characterize("531.deepsjeng_r")
        assert xalan.mu_g_m > 3 * deepsjeng.mu_g_m

    def test_kernel_benchmarks_have_low_mu_g_m(self):
        """mcf/deepsjeng/leela report mu_g(M) = 1 in the paper."""
        for bid in ("505.mcf_r", "531.deepsjeng_r", "541.leela_r"):
            assert characterize(bid).mu_g_m < 2.5, bid

    def test_lbm_mu_g_v_inflated(self):
        """lbm's mu_g(V) is inflated by its tiny bad-speculation mean —
        the paper's central caveat about the summarization."""
        lbm = characterize("519.lbm_r")
        xz = characterize("557.xz_r")
        assert lbm.mu_g_v > 2 * xz.mu_g_v
