"""Resource attribution + stack sampler tests, and the flame/top CLI."""

import time

import pytest

from repro.cli import main
from repro.core.resources import (
    DEFAULT_HZ,
    SAMPLE_ENV,
    StackSampler,
    StageResourceTracker,
    merge_stacks,
    render_collapsed,
    sampler_from_env,
    top_frames,
)


def _busy(seconds):
    """Burn CPU (not sleep) so getrusage and the sampler both see work."""
    deadline = time.perf_counter() + seconds
    x = 0
    while time.perf_counter() < deadline:
        x += 1
    return x


# ------------------------------------------------------------ the tracker


class TestStageResourceTracker:
    def test_lap_reports_cpu_and_rss(self):
        tracker = StageResourceTracker()
        _busy(0.05)
        res = tracker.lap()
        assert set(res) == {"cpu_user_s", "cpu_sys_s", "max_rss_kb"}
        assert res["cpu_user_s"] + res["cpu_sys_s"] > 0.0
        assert res["max_rss_kb"] > 0

    def test_laps_are_deltas(self):
        tracker = StageResourceTracker()
        _busy(0.05)
        first = tracker.lap()
        second = tracker.lap()  # immediately after: near-zero new CPU
        assert second["cpu_user_s"] + second["cpu_sys_s"] < (
            first["cpu_user_s"] + first["cpu_sys_s"] + 0.02
        )

    def test_samples_key_only_when_nonzero(self):
        tracker = StageResourceTracker()
        assert "samples" not in tracker.lap()
        assert tracker.lap(samples=3)["samples"] == 3


# ------------------------------------------------------------ the sampler


class TestStackSampler:
    def test_samples_a_busy_region(self):
        with StackSampler(hz=500) as sampler:
            _busy(0.1)
        assert sampler.total_samples > 0
        assert sampler.stacks
        # this test function is on every captured stack
        assert any("_busy" in key for key in sampler.stacks)

    def test_samples_between_windows(self):
        t0 = time.perf_counter()
        with StackSampler(hz=500) as sampler:
            _busy(0.08)
            t1 = time.perf_counter()
            _busy(0.08)
        t2 = time.perf_counter()
        n_first = sampler.samples_between(t0, t1)
        n_second = sampler.samples_between(t1, t2)
        assert n_first + n_second == sampler.total_samples
        assert n_first > 0 and n_second > 0

    def test_stop_is_idempotent_and_halts_sampling(self):
        sampler = StackSampler(hz=500).start()
        _busy(0.03)
        sampler.stop()
        sampler.stop()
        n = sampler.total_samples
        _busy(0.05)
        assert sampler.total_samples == n

    def test_bad_hz_rejected(self):
        with pytest.raises(ValueError):
            StackSampler(hz=0)

    def test_sampler_from_env(self):
        assert sampler_from_env({}) is None
        for off in ("0", "false", "off", "no", ""):
            assert sampler_from_env({SAMPLE_ENV: off}) is None
        on = sampler_from_env({SAMPLE_ENV: "1"})
        assert on is not None and on.interval == pytest.approx(1.0 / DEFAULT_HZ)
        fast = sampler_from_env({SAMPLE_ENV: "250"})
        assert fast is not None and fast.interval == pytest.approx(1.0 / 250.0)
        assert sampler_from_env({SAMPLE_ENV: "-5"}) is None


# ----------------------------------------------------- collapsed stacks


class TestCollapsedStacks:
    STACKS = {"a.py:main;b.py:work": 3, "a.py:main;c.py:idle": 1}

    def test_merge_accumulates(self):
        acc = {}
        merge_stacks(acc, self.STACKS)
        merge_stacks(acc, {"a.py:main;b.py:work": 2})
        assert acc["a.py:main;b.py:work"] == 5
        assert acc["a.py:main;c.py:idle"] == 1

    def test_render_collapsed_format(self):
        text = render_collapsed(self.STACKS)
        assert "a.py:main;b.py:work 3" in text.splitlines()
        assert text.endswith("\n")
        assert render_collapsed({}) == ""

    def test_top_frames_ranks_leaves(self):
        top = top_frames(self.STACKS)
        assert top[0] == ("b.py:work", 3)
        assert top_frames(self.STACKS, limit=1) == [("b.py:work", 3)]


# ------------------------------------------- pipeline stage attribution


class TestPipelineAttribution:
    @pytest.fixture(scope="class")
    def journal(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("res") / "t.jsonl"
        rc = main(
            ["suite", "519.lbm_r", "--no-cache", "--workers", "1",
             "--trace", str(path)]
        )
        assert rc == 0
        return path

    def test_stage_spans_carry_resources(self, journal):
        from repro.core.trace import trace_stages

        stages = [st for st in trace_stages(journal) if st.resources]
        assert stages, "no stage carried resource attribution"
        for st in stages:
            assert st.resources["cpu_user_s"] >= 0.0
            assert st.resources["max_rss_kb"] > 0

    def test_replay_stages_carry_event_counts(self, journal):
        from repro.core.trace import trace_stages

        replays = [
            st for st in trace_stages(journal)
            if st.name == "replay" and st.resources
        ]
        assert replays
        assert any(st.resources.get("replay_events", 0) > 0 for st in replays)

    def test_cpu_metrics_families_populated(self, tmp_path):
        from repro.core import metrics
        from repro.core.run import Session

        with Session(workers=1) as s:
            cap = s.capture("519.lbm_r", "lbm.test")
            s.replay(cap)
            snap = s.metrics.to_dict()
        fams = snap["metrics"]
        assert "repro_stage_cpu_seconds" in fams
        assert "repro_peak_rss_kb" in fams
        labels = fams["repro_stage_cpu_seconds"]["labels"]
        assert list(labels) == ["benchmark", "stage", "cpu"]

    def test_sampling_env_folds_stacks_into_session(self, monkeypatch):
        from repro.core.run import Session

        monkeypatch.setenv(SAMPLE_ENV, "2000")
        with Session(workers=1) as s:
            cap = s.capture("519.lbm_r", "lbm.refrate")
            s.replay(cap)
            counts = dict(s.stack_counts)
        assert counts, "sampler enabled but no stacks were folded"
        assert all(isinstance(n, int) and n > 0 for n in counts.values())

    def test_sampling_off_by_default(self, monkeypatch):
        from repro.core.run import Session

        monkeypatch.delenv(SAMPLE_ENV, raising=False)
        with Session(workers=1) as s:
            cap = s.capture("519.lbm_r", "lbm.test")
            s.replay(cap)
            assert s.stack_counts == {}


# ---------------------------------------------------------------- the CLI


class TestFlameCli:
    def test_flame_writes_collapsed_stacks(self, tmp_path, capsys):
        out = tmp_path / "lbm.folded"
        rc = main(
            ["flame", "519.lbm_r", "--hz", "2000", "--seconds", "0.05",
             "--out", str(out)]
        )
        assert rc == 0
        text = out.read_text()
        assert text, "flame wrote an empty profile"
        for line in text.splitlines():
            frames, count = line.rsplit(" ", 1)
            assert ";" in frames and int(count) > 0
        assert "%" in capsys.readouterr().out  # top-frames summary printed

    def test_flame_unknown_benchmark_exits_2(self, capsys):
        assert main(["flame", "999.nope_r"]) == 2
        assert "flame" in capsys.readouterr().err

    def test_flame_unknown_workload_exits_2(self, capsys):
        assert main(["flame", "519.lbm_r", "--workload", "nope"]) == 2
        assert "no workload" in capsys.readouterr().err

    def test_suite_flame_flag_reports_sample_count(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv(SAMPLE_ENV, "2000")
        out = tmp_path / "suite.folded"
        rc = main(
            ["suite", "519.lbm_r", "--no-cache", "--workers", "1",
             "--flame", str(out)]
        )
        assert rc == 0
        assert out.exists()
        assert "flamegraph:" in capsys.readouterr().err


class TestTopCli:
    @pytest.fixture(scope="class")
    def journal(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("top") / "t.jsonl"
        assert main(
            ["suite", "519.lbm_r", "--no-cache", "--workers", "1",
             "--trace", str(path)]
        ) == 0
        return path

    def test_top_once_renders_cells(self, journal, capsys):
        assert main(["top", str(journal), "--once"]) == 0
        out = capsys.readouterr().out
        assert "519.lbm_r" in out
        assert "run" in out

    def test_top_once_missing_journal_exits_2(self, tmp_path, capsys):
        # missing, a directory, and a journal whose lines are not objects
        missing, directory = tmp_path / "nope.jsonl", tmp_path / "dir.jsonl"
        not_objects = tmp_path / "list.jsonl"
        directory.mkdir()
        not_objects.write_text("[1,2]\n3\n")
        for path in (missing, directory, not_objects):
            assert main(["top", str(path), "--once"]) == 2
            assert capsys.readouterr().err == f"top: no records at {path}\n"

    def test_top_tail_limits_rows(self, journal, capsys):
        assert main(["top", str(journal), "--once", "--tail", "3"]) == 0
        out = capsys.readouterr().out
        cells = [ln for ln in out.splitlines() if "519.lbm_r/" in ln]
        assert len(cells) <= 3
