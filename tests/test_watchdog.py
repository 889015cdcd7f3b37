"""Watchdog tests: baseline parsing, gate semantics, CLI exit codes."""

import json

import pytest

from repro.cli import main
from repro.core.watchdog import (
    EXIT_OK,
    EXIT_REGRESSION,
    EXIT_USAGE,
    WatchdogError,
    load_baseline,
    measure_replay,
    run_watchdog,
)

BID = "519.lbm_r"


@pytest.fixture(scope="module")
def measured():
    """One real capture+replay measurement, shared by every test."""
    workload, events, best_ns, eps = measure_replay(BID, rounds=2)
    return {"workload": workload, "events": events, "ns": best_ns, "eps": eps}


def _write_baseline(path, measured, eps_scale):
    path.write_text(
        json.dumps(
            {
                "schema": 1,
                "benchmarks": {
                    BID: {
                        "workload": measured["workload"],
                        "events_per_sec": measured["eps"] * eps_scale,
                        "replay_seconds": measured["ns"] / 1e9,
                    }
                },
            }
        )
    )
    return path


@pytest.fixture()
def baseline(tmp_path, measured):
    """A baseline this machine comfortably meets (30% headroom)."""
    return _write_baseline(tmp_path / "BENCH_machine.json", measured, 0.7)


@pytest.fixture()
def strict_baseline(tmp_path, measured):
    """A baseline at exactly the measured throughput — a 2x injected
    slowdown lands at ~0.5x, safely below any reasonable tolerance."""
    return _write_baseline(tmp_path / "BENCH_machine.json", measured, 1.0)


class TestBaselineParsing:
    def test_missing_file(self, tmp_path):
        with pytest.raises(WatchdogError, match="baseline"):
            load_baseline(tmp_path / "nope.json")

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(WatchdogError, match="not valid JSON"):
            load_baseline(path)

    def test_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 99, "benchmarks": {"x": {}}}')
        with pytest.raises(WatchdogError, match="unsupported schema"):
            load_baseline(path)

    def test_no_rows(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 1, "benchmarks": {}}')
        with pytest.raises(WatchdogError, match="no per-benchmark rows"):
            load_baseline(path)


class TestGate:
    def test_healthy_run_passes(self, baseline, monkeypatch):
        monkeypatch.delenv("REPRO_WATCHDOG_INJECT_SLOWDOWN", raising=False)
        report = run_watchdog(baseline, tolerance=0.5, rounds=2)
        assert report.ok
        assert report.exit_code == EXIT_OK
        assert "within tolerance" in report.render()

    def test_injected_2x_regression_fails(self, strict_baseline, monkeypatch):
        monkeypatch.setenv("REPRO_WATCHDOG_INJECT_SLOWDOWN", "2.0")
        report = run_watchdog(strict_baseline, tolerance=0.25, rounds=2)
        assert not report.ok
        assert report.exit_code == EXIT_REGRESSION
        rendered = report.render()
        assert "REGRESSED" in rendered
        assert "injected slowdown x2" in rendered

    def test_unknown_benchmarks_are_skipped_not_failed(self, baseline, monkeypatch):
        monkeypatch.delenv("REPRO_WATCHDOG_INJECT_SLOWDOWN", raising=False)
        report = run_watchdog(baseline, [BID, "999.nope_r"], tolerance=0.5, rounds=1)
        assert report.skipped == ["999.nope_r"]
        assert report.ok

    def test_all_unknown_is_a_usage_error(self, baseline):
        with pytest.raises(WatchdogError, match="none of"):
            run_watchdog(baseline, ["999.nope_r"], rounds=1)

    def test_bad_tolerance_is_a_usage_error(self, baseline):
        with pytest.raises(WatchdogError, match="tolerance"):
            run_watchdog(baseline, tolerance=1.5)

    def test_bad_injection_value_is_a_usage_error(self, baseline, monkeypatch):
        monkeypatch.setenv("REPRO_WATCHDOG_INJECT_SLOWDOWN", "banana")
        with pytest.raises(WatchdogError, match="not a number"):
            run_watchdog(baseline, rounds=1)


class TestCli:
    def test_healthy_exit_0(self, baseline, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_WATCHDOG_INJECT_SLOWDOWN", raising=False)
        rc = main(
            ["watchdog", "--baseline", str(baseline), "--tolerance", "0.5",
             "--rounds", "2"]
        )
        assert rc == EXIT_OK
        assert "within tolerance" in capsys.readouterr().out

    def test_regression_exit_1(self, strict_baseline, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_WATCHDOG_INJECT_SLOWDOWN", "2.0")
        rc = main(["watchdog", "--baseline", str(strict_baseline), "--rounds", "2"])
        assert rc == EXIT_REGRESSION
        assert "REGRESSED" in capsys.readouterr().out

    def test_missing_baseline_exit_2(self, tmp_path, capsys):
        rc = main(["watchdog", "--baseline", str(tmp_path / "nope.json")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("watchdog:")
        assert err.count("\n") == 1  # one-line diagnostic

    def test_json_output(self, baseline, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_WATCHDOG_INJECT_SLOWDOWN", raising=False)
        rc = main(
            ["watchdog", "--baseline", str(baseline), "--tolerance", "0.5",
             "--rounds", "2", "--json"]
        )
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True and report["exit_code"] == EXIT_OK
        check, = [c for c in report["checks"] if c["benchmark"] == BID]
        assert check["regressed"] is False
        assert check["eps_ratio"] > 0

    def test_ledger_baseline_mode(self, tmp_path, measured, capsys):
        from repro.core.ledger import RunLedger
        from tests.test_ledger import make_record

        led = tmp_path / "led"
        ledger = RunLedger(led)
        # two recorded runs at 70% of this machine's throughput
        for i in range(2):
            ledger.append(
                make_record(
                    f"r{i}", started=1_000.0 + i, bench=BID,
                    events=measured["events"],
                    eps=measured["eps"] * 0.7,
                )
            )
        rc = main(
            ["watchdog", BID, "--baseline", str(led),
             "--tolerance", "0.5", "--rounds", "2"]
        )
        assert rc == EXIT_OK
        assert "within tolerance" in capsys.readouterr().out

    def test_bare_watchdog_defaults_to_baseline_file(self, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)  # no BENCH_machine.json here
        assert main(["watchdog"]) == EXIT_USAGE
        assert "BENCH_machine.json" in capsys.readouterr().err

    def test_empty_ledger_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "led").mkdir()
        rc = main(["watchdog", "--baseline", str(tmp_path / "led")])
        assert rc == EXIT_USAGE
        assert "watchdog: ledger" in capsys.readouterr().err

    def test_zero_rounds_exits_2(self, baseline, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["watchdog", "--baseline", str(baseline), "--rounds", "0"])
        assert exc.value.code == EXIT_USAGE
        assert "argument --rounds" in capsys.readouterr().err
