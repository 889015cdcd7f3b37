"""Run-ledger tests: durability, retention, diffing, CLI.

The durability cases mirror the trace-journal ones (torn tails,
concurrent writers) because the ledger makes the same crash-tolerance
promise across *runs* that the journal makes across *spans*.
"""

import json
import re
import threading

import pytest

from repro.cli import main
from repro.core.ledger import (
    LEDGER_ENV,
    DiffReport,
    LedgerError,
    RunLedger,
    build_record,
    classify_metric,
    derive_throughput,
    diff_records,
    render_record,
    render_runs_table,
)

# ---------------------------------------------------------------- helpers


def snapshot(bench="505.mcf_r", *, events=1_000_000, eps=5e6, stage_s=None):
    """A minimal but schema-correct MetricsRegistry.to_dict() snapshot."""
    metrics = {
        "repro_replay_events_total": {
            "kind": "counter",
            "labels": ["benchmark"],
            "series": [{"labels": [bench], "value": events}],
        },
        "repro_replay_ns_total": {
            "kind": "counter",
            "labels": ["benchmark"],
            "series": [{"labels": [bench], "value": events / eps * 1e9}],
        },
        "repro_replay_eps": {
            "kind": "histogram",
            "labels": ["benchmark"],
            "series": [{"labels": [bench], "sum": eps, "count": 1}],
        },
        # An info-class family the diff must record but never flag.
        "repro_cache_lookups_total": {
            "kind": "counter",
            "labels": ["result"],
            "series": [{"labels": ["miss"], "value": 7}],
        },
    }
    if stage_s is not None:
        metrics["repro_stage_seconds"] = {
            "kind": "histogram",
            "labels": ["benchmark", "stage"],
            "series": [
                {"labels": [bench, "replay"], "sum": stage_s, "count": 1}
            ],
        }
    return {"schema": 1, "metrics": metrics}


def make_record(run_id, started=1_000.0, *, ok=2, failed=0, quarantined=0,
                bench="505.mcf_r", events=1_000_000, eps=5e6, stage_s=None):
    summary = {
        "cells": ok + failed,
        "ok": ok,
        "failed": failed,
        "quarantined": quarantined,
        "captures": ok,
    }
    return build_record(
        run_id=run_id,
        started_at=started,
        finished_at=started + 1.0,
        summary=summary,
        metrics_snapshot=snapshot(bench, events=events, eps=eps, stage_s=stage_s),
        benchmarks=[bench],
        scenarios={bench: "f" * 12},
    )


# ------------------------------------------------------------- the record


class TestBuildRecord:
    def test_outcome_ok(self):
        assert make_record("r1")["outcome"] == "ok"

    def test_outcome_degraded_on_any_failure(self):
        assert make_record("r1", ok=3, failed=1)["outcome"] == "degraded"
        assert make_record("r1", quarantined=1)["outcome"] == "degraded"

    def test_outcome_failed_when_nothing_succeeded(self):
        assert make_record("r1", ok=0, failed=2)["outcome"] == "failed"

    def test_throughput_derived_per_benchmark(self):
        t = make_record("r1", eps=4e6)["throughput"]["505.mcf_r"]
        assert t["eps"] == pytest.approx(4e6)
        assert t["events"] == 1_000_000

    def test_injected_slowdown_shows_in_recorded_eps(self, monkeypatch):
        monkeypatch.setenv("REPRO_INJECT_SLOWDOWN", "4")
        t = derive_throughput(snapshot(eps=4e6))["505.mcf_r"]
        assert t["eps"] == pytest.approx(1e6)

    def test_schema_enforced_on_append(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        with pytest.raises(LedgerError):
            ledger.append({"schema": 99, "run_id": "r1"})
        with pytest.raises(LedgerError):
            ledger.append({"schema": 1})


# ------------------------------------------------------------ durability


class TestDurability:
    def test_round_trip_and_index(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        ledger.append(make_record("r1"))
        ledger.append(make_record("r2", started=2_000.0))
        assert [r["run_id"] for r in ledger.records()] == ["r1", "r2"]
        assert [e["run_id"] for e in ledger.index()] == ["r1", "r2"]
        assert ledger.index()[0]["cells"] == 2

    def test_truncated_tail_is_skipped(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        ledger.append(make_record("r1"))
        ledger.append(make_record("r2"))
        with ledger.path.open("a", encoding="utf-8") as fh:
            fh.write('{"schema":1,"run_id":"r3","torn')  # crash mid-append
        assert [r["run_id"] for r in ledger.records()] == ["r1", "r2"]

    def test_append_after_torn_tail_survives(self, tmp_path):
        # A torn tail has no newline; the next append must not weld its
        # record onto the garbage.
        ledger = RunLedger(tmp_path / "led")
        ledger.append(make_record("r1"))
        with ledger.path.open("a", encoding="utf-8") as fh:
            fh.write('{"schema":1,"run_id":"r2","torn')
        ledger.append(make_record("r3"))
        assert [r["run_id"] for r in ledger.records()] == ["r1", "r3"]

    def test_index_self_heals_after_damage(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        ledger.append(make_record("r1"))
        ledger.append(make_record("r2"))
        ledger.index_path.write_text("not json at all\n", encoding="utf-8")
        assert [e["run_id"] for e in ledger.index()] == ["r1", "r2"]
        # and the rebuild was persisted
        raw = ledger.index_path.read_text(encoding="utf-8").splitlines()
        assert len(raw) == 2

    def test_index_can_simply_be_deleted(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        ledger.append(make_record("r1"))
        ledger.index_path.unlink()
        assert [e["run_id"] for e in ledger.index()] == ["r1"]

    def test_concurrent_appends_lose_nothing(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        n_threads, per_thread = 4, 25

        def appender(t):
            for i in range(per_thread):
                ledger.append(make_record(f"t{t}-{i}", started=1_000.0 + i))

        threads = [
            threading.Thread(target=appender, args=(t,)) for t in range(n_threads)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        records = ledger.records()
        assert len(records) == n_threads * per_thread
        assert len({r["run_id"] for r in records}) == n_threads * per_thread

    def test_two_concurrent_sessions_both_record(self, tmp_path):
        from repro.core.run import Session

        led = tmp_path / "led"
        errors = []

        def run_one():
            try:
                with Session(workers=1, ledger=led) as s:
                    s.capture("519.lbm_r", "lbm.test")
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=run_one) for _ in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert errors == []
        records = RunLedger(led).records()
        assert len(records) == 2
        assert len({r["run_id"] for r in records}) == 2
        assert all(r["benchmarks"] == ["519.lbm_r"] for r in records)


# ---------------------------------------------------------------- queries


class TestResolveAndQuery:
    @pytest.fixture
    def ledger(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        ledger.append(make_record("abc-1", started=1_000.0))
        ledger.append(make_record("abd-2", started=2_000.0, ok=0, failed=2))
        ledger.append(make_record("xyz-3", started=3_000.0, bench="519.lbm_r"))
        return ledger

    def test_latest_and_prev(self, ledger):
        assert ledger.resolve("latest")["run_id"] == "xyz-3"
        assert ledger.resolve("prev")["run_id"] == "abd-2"

    def test_exact_and_unique_prefix(self, ledger):
        assert ledger.resolve("abc-1")["run_id"] == "abc-1"
        assert ledger.resolve("xy")["run_id"] == "xyz-3"

    def test_ambiguous_prefix_raises(self, ledger):
        with pytest.raises(LedgerError, match="ambiguous"):
            ledger.resolve("ab")

    def test_unknown_ref_raises(self, ledger):
        with pytest.raises(LedgerError, match="not in ledger"):
            ledger.resolve("nope")

    def test_empty_ledger_raises(self, tmp_path):
        with pytest.raises(LedgerError, match="empty"):
            RunLedger(tmp_path / "fresh").resolve("latest")

    def test_query_filters(self, ledger):
        assert [r["run_id"] for r in ledger.query(benchmark="519.lbm_r")] == ["xyz-3"]
        assert [r["run_id"] for r in ledger.query(outcome="failed")] == ["abd-2"]
        assert [r["run_id"] for r in ledger.query(limit=2)] == ["abd-2", "xyz-3"]
        assert [r["run_id"] for r in ledger.query(since=1_500.0, until=2_500.0)] == [
            "abd-2"
        ]


# -------------------------------------------------------------- retention


class TestGC:
    def test_keeps_n_most_recent(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        for i in range(5):
            ledger.append(make_record(f"r{i}", started=1_000.0 + i))
        removed = ledger.gc(keep=2)
        assert removed == ["r0", "r1", "r2"]
        assert [r["run_id"] for r in ledger.records()] == ["r3", "r4"]
        assert [e["run_id"] for e in ledger.index()] == ["r3", "r4"]

    def test_pinned_runs_survive_keep_zero(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        for i in range(3):
            ledger.append(make_record(f"r{i}", started=1_000.0 + i))
        ledger.pin("r0")
        removed = ledger.gc(keep=0)
        assert removed == ["r1", "r2"]
        assert [r["run_id"] for r in ledger.records()] == ["r0"]

    def test_unpin_releases(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        ledger.append(make_record("r0"))
        ledger.append(make_record("r1"))
        ledger.pin("r0")
        ledger.unpin("r0")
        assert ledger.gc(keep=1) == ["r0"]

    def test_max_age_protects_young_runs(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        ledger.append(make_record("old", started=1_000.0))
        ledger.append(make_record("new", started=9_000.0))
        removed = ledger.gc(keep=0, max_age_s=5_000.0, now=10_000.0)
        assert removed == ["old"]

    def test_negative_keep_raises(self, tmp_path):
        with pytest.raises(LedgerError):
            RunLedger(tmp_path / "led").gc(keep=-1)


# ---------------------------------------------------------------- diffing


class TestDiff:
    def test_identical_records_are_clean(self):
        rep = diff_records(make_record("a"), make_record("b"))
        assert rep.ok and rep.exit_code == 0
        assert rep.entries  # something was actually compared
        assert rep.ignored >= 1  # the info family was recorded, not diffed

    def test_exact_mismatch_is_flagged(self):
        rep = diff_records(
            make_record("a", events=1_000_000), make_record("b", events=999_999)
        )
        assert not rep.ok and rep.exit_code == 1
        flagged = {e.metric for e in rep.out_of_tolerance}
        assert "repro_replay_events_total" in flagged

    def test_timing_within_tolerance_is_ok(self):
        rep = diff_records(make_record("a", eps=5e6), make_record("b", eps=4.2e6))
        assert all(e.ok for e in rep.entries if e.metric == "throughput.eps")

    def test_timing_out_of_tolerance_is_flagged(self):
        rep = diff_records(make_record("a", eps=5e6), make_record("b", eps=2e6))
        flagged = {e.metric for e in rep.out_of_tolerance}
        assert "throughput.eps" in flagged

    def test_timing_noise_floor_swallows_micro_jitter(self):
        # 0.1ms vs 0.5ms is a 5x relative difference but far below the
        # 10ms absolute floor for stage seconds — never a finding.
        rep = diff_records(
            make_record("a", stage_s=0.0001), make_record("b", stage_s=0.0005)
        )
        assert all(e.ok for e in rep.entries if e.metric == "repro_stage_seconds")

    # B replays 2.5x faster than A and its replay stage takes 0.4x as
    # long, so every timing family moves far beyond tolerance and floor.
    SLOW = {"eps": 4e6, "stage_s": 1.0}
    FAST = {"eps": 1e7, "stage_s": 0.4}
    TIMING = [
        "throughput.eps",
        "repro_replay_eps",
        "repro_stage_seconds",
        "repro_replay_ns_total",
    ]

    @pytest.mark.parametrize("metric", TIMING)
    def test_faster_b_is_never_a_finding(self, metric):
        rep = diff_records(make_record("a", **self.SLOW), make_record("b", **self.FAST))
        entry, = [e for e in rep.entries if e.metric == metric]
        assert entry.ok and abs(entry.ratio - 1.0) > 0.5

    @pytest.mark.parametrize("metric", TIMING)
    def test_slower_b_beyond_tolerance_is_flagged(self, metric):
        rep = diff_records(make_record("a", **self.FAST), make_record("b", **self.SLOW))
        entry, = [e for e in rep.entries if e.metric == metric]
        assert not entry.ok and rep.exit_code == 1

    def test_faster_b_still_flags_exact_mismatches(self):
        rep = diff_records(
            make_record("a", **self.SLOW),
            make_record("b", **self.FAST, events=999_999),
        )
        assert rep.exit_code == 1
        assert {e.cls for e in rep.out_of_tolerance} == {"exact"}

    def test_cli_diff_is_one_sided(self, tmp_path, capsys):
        ledger = RunLedger(tmp_path / "led")
        ledger.append(make_record("slow", started=1_000.0, **self.SLOW))
        ledger.append(make_record("fast", started=2_000.0, **self.FAST))
        root = str(tmp_path / "led")
        assert main(["runs", "diff", "slow", "fast", "--ledger", root]) == 0
        assert main(["runs", "diff", "fast", "slow", "--ledger", root]) == 1
        assert "throughput.eps" in capsys.readouterr().out

    def test_injected_slowdown_run_is_flagged(self, monkeypatch):
        fast = make_record("a", eps=5e6)
        monkeypatch.setenv("REPRO_INJECT_SLOWDOWN", "2")
        slow = make_record("b", eps=5e6)
        rep = diff_records(fast, slow)
        assert not rep.ok
        assert any(
            e.metric == "throughput.eps" and not e.ok for e in rep.entries
        )

    def test_series_on_one_side_only_is_a_finding(self):
        rep = diff_records(
            make_record("a", bench="505.mcf_r"), make_record("b", bench="519.lbm_r")
        )
        assert not rep.ok

    def test_render_and_to_dict(self):
        rep = diff_records(make_record("a", eps=5e6), make_record("b", eps=2e6))
        text = rep.render()
        assert "OUT OF TOLERANCE" in text
        verbose = rep.render(verbose=True)
        assert len(verbose.splitlines()) > len(text.splitlines())
        data = rep.to_dict()
        assert data["ok"] is False
        assert data["compared"] == len(rep.entries)

    def test_bad_tolerance_raises(self):
        with pytest.raises(LedgerError):
            diff_records(make_record("a"), make_record("b"), tolerance=1.5)

    def test_classify_metric(self):
        assert classify_metric("repro_cells_total") == "exact"
        assert classify_metric("repro_stage_seconds") == "timing"
        assert classify_metric("repro_peak_rss_kb") == "info"

    def test_pre_removal_record_diffs_clean(self, tmp_path, capsys):
        """A record written before phase-sampled replay was removed still
        diffs clean against a current one: its retired count and metric
        family are not compared."""
        old = make_record("old", started=1_000.0)
        old["counts"]["replays_sampled"] = 0
        old["metrics"]["metrics"]["repro_sampled_replays_total"] = {
            "kind": "counter",
            "labels": ["benchmark"],
            "series": [{"labels": ["505.mcf_r"], "value": 0}],
        }
        ledger = RunLedger(tmp_path / "led")
        ledger.append(old)
        ledger.append(make_record("new", started=1_010.0))
        root = str(tmp_path / "led")
        assert main(["runs", "diff", "prev", "latest", "--ledger", root]) == 0
        assert main(["runs", "show", "prev", "--ledger", root]) == 0
        assert "cells=2" in capsys.readouterr().out


# ------------------------------------------------------------- rendering


class TestRendering:
    def test_runs_table_accepts_index_entries_and_records(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        ledger.append(make_record("r1"))
        by_index = render_runs_table(ledger.index())
        by_record = render_runs_table(ledger.records())
        assert "r1" in by_index and "r1" in by_record
        # full records report cell counts from under ``counts``
        assert by_index.splitlines()[-1] == by_record.splitlines()[-1]

    def test_empty_table(self):
        assert "no recorded runs" in render_runs_table([])

    def test_record_detail_view(self):
        text = render_record(make_record("r1"))
        assert "run r1" in text and "[ok]" in text
        assert "505.mcf_r" in text


# ----------------------------------------------------- session end-to-end


class TestSessionEndToEnd:
    """Two real suite runs into one ledger + the CLI on top of them."""

    @pytest.fixture(scope="class")
    def led(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("ledger")
        for _ in range(2):
            rc = main(
                ["suite", "519.lbm_r", "--no-cache", "--workers", "1",
                 "--ledger", str(root / "led")]
            )
            assert rc == 0
        return root / "led"

    def test_session_records_scope_and_outcome(self, led):
        records = RunLedger(led).records()
        assert len(records) == 2
        rec = records[-1]
        assert rec["outcome"] == "ok"
        assert rec["benchmarks"] == ["519.lbm_r"]
        assert rec["scenarios"]["519.lbm_r"]  # registry fingerprint
        assert rec["counts"]["cells"] > 0
        assert rec["throughput"]["519.lbm_r"]["eps"] > 0
        assert rec["metrics"]["metrics"]  # full snapshot rides along

    def test_identical_runs_diff_clean(self, led, capsys):
        # 60% timing tolerance: the signal here is the exact counter
        # families (which must match to the event), not sub-second stage
        # walls, which drift cold-vs-warm under full-suite load.
        rc = main(["runs", "diff", "prev", "latest", "--ledger", str(led),
                   "--tolerance", "0.6"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "all within tolerance" in out

    def test_injected_slowdown_run_is_flagged(self, led, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_INJECT_SLOWDOWN", "2")
        assert main(
            ["suite", "519.lbm_r", "--no-cache", "--workers", "1",
             "--ledger", str(led)]
        ) == 0
        monkeypatch.delenv("REPRO_INJECT_SLOWDOWN")
        capsys.readouterr()
        rc = main(["runs", "diff", "prev", "latest", "--ledger", str(led)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "OUT OF TOLERANCE" in out
        assert re.search(r"timing\s+throughput\.eps\s+519\.lbm_r .*OUT-OF-TOL", out), out
        # restore a clean tail for later tests in this class
        RunLedger(led).gc(keep=2)

    def test_runs_list_and_show(self, led, capsys):
        assert main(["runs", "list", "--ledger", str(led)]) == 0
        assert "519.lbm_r" in capsys.readouterr().out
        assert main(["runs", "show", "--ledger", str(led)]) == 0
        assert "[ok]" in capsys.readouterr().out

    def test_runs_show_json_round_trips(self, led, capsys):
        assert main(["runs", "show", "latest", "--ledger", str(led), "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["schema"] == 1 and record["outcome"] == "ok"

    def test_runs_list_json_omits_heavy_metrics(self, led, capsys):
        assert main(["runs", "list", "--ledger", str(led), "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert entries and all("metrics" not in e for e in entries)

    def test_env_var_enables_ledger(self, led, monkeypatch, tmp_path):
        from repro.core.run import Session

        env_led = tmp_path / "env-led"
        monkeypatch.setenv(LEDGER_ENV, str(env_led))
        with Session(workers=1) as s:
            s.capture("519.lbm_r", "lbm.test")
        assert len(RunLedger(env_led).records()) == 1

    def test_missing_ledger_dir_exits_2(self, monkeypatch, capsys):
        monkeypatch.delenv(LEDGER_ENV, raising=False)
        assert main(["runs", "list"]) == 2
        assert LEDGER_ENV in capsys.readouterr().err

    def test_diff_needs_two_refs(self, led, capsys):
        assert main(["runs", "diff", "latest", "--ledger", str(led)]) == 2
        assert "two run references" in capsys.readouterr().err
