"""Tests for the command-line interface."""

import json
import re
import struct
import zlib
from collections import Counter

import pytest

from repro.cli import build_parser, main
from repro.core.cache import PROFILE_MAGIC, ResultCache


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table2_accepts_ids(self):
        args = build_parser().parse_args(["table2", "557.xz_r", "505.mcf_r"])
        assert args.benchmarks == ["557.xz_r", "505.mcf_r"]

    def test_generate_seed(self):
        args = build_parser().parse_args(["generate", "505.mcf_r", "--seed", "9"])
        assert args.seed == 9

    @pytest.mark.parametrize(
        "argv",
        [
            ["suite", "--workers", "0"],
            ["suite", "--timeout", "-1"],
            ["suite", "--timeout", "0"],
            ["sweep", "505.mcf_r", "--workers", "0"],
            ["table2", "--workers", "x"],
            ["suite", "--retries", "-2"],
            ["flame", "505.mcf_r", "--hz", "0"],
            ["flame", "505.mcf_r", "--hz", "-5"],
            ["flame", "505.mcf_r", "--seconds", "-1"],
            ["runs", "list", "--limit", "0"],
            ["runs", "list", "--limit", "-1"],
            ["runs", "gc", "--max-age-days", "-1"],
            ["top", "trace.jsonl", "--interval", "-1"],
            ["top", "trace.jsonl", "--tail", "0"],
            ["fdo", "505.mcf_r", "--max-workloads", "1"],
            ["fdo", "505.mcf_r", "--max-workloads", "0"],
            ["fdo", "505.mcf_r", "--max-workloads", "-3"],
        ],
    )
    def test_bad_engine_values_exit_2_with_one_error_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        last = err.strip().splitlines()[-1]
        assert last.startswith(f"repro {argv[0]}: error: argument {argv[-2]}")

    def test_good_engine_values_parse(self):
        args = build_parser().parse_args(["suite", "--workers", "2", "--timeout", "1.5"])
        assert (args.workers, args.timeout) == (2, 1.5)
        assert build_parser().parse_args(["suite", "--retries", "0"]).retries == 0
        assert build_parser().parse_args(["runs", "list", "--limit", "1"]).limit == 1


class TestObservability:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("obs")
        paths = {
            "metrics": root / "metrics.json",
            "prom": root / "metrics.prom",
            "chrome": root / "trace.chrome.json",
            "trace": root / "trace.jsonl",
        }
        rc = main(
            ["suite", "505.mcf_r", "--no-cache",
             "--metrics", str(paths["metrics"]),
             "--prom", str(paths["prom"]),
             "--chrome-trace", str(paths["chrome"]),
             "--trace", str(paths["trace"])]
        )
        assert rc == 0
        return paths

    def test_suite_writes_all_three_artifacts(self, artifacts):
        for path in artifacts.values():
            assert path.exists() and path.stat().st_size > 0

    def test_prom_snapshot_is_text_exposition(self, artifacts):
        text = artifacts["prom"].read_text()
        assert "# TYPE repro_stage_seconds histogram" in text
        assert "repro_cells_total" in text

    def test_chrome_trace_loads_as_trace_event_json(self, artifacts):
        import json

        doc = json.loads(artifacts["chrome"].read_text())
        cats = {e.get("cat") for e in doc["traceEvents"] if e["ph"] == "X"}
        assert cats == {"run", "cell", "stage"}

    def test_metrics_show_renders_stage_percentiles(self, artifacts, capsys):
        assert main(["metrics", "show", str(artifacts["metrics"])]) == 0
        out = capsys.readouterr().out
        assert "p50" in out and "p95" in out and "p99" in out
        assert "repro_stage_seconds" in out

    def test_metrics_prom_matches_suite_export(self, artifacts, capsys):
        assert main(["metrics", "prom", str(artifacts["metrics"])]) == 0
        assert capsys.readouterr().out.strip() == artifacts["prom"].read_text().strip()

    def test_metrics_show_json(self, artifacts, capsys):
        import json

        assert main(["metrics", "show", str(artifacts["metrics"]), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        hist = {h["metric"] for h in data["histograms"]}
        assert "repro_stage_seconds" in hist
        for h in data["histograms"]:
            assert {"metric", "labels", "count", "p50", "p95", "p99"} <= set(h)
        assert any(s["metric"] == "repro_cells_total" for s in data["scalars"])

    def test_trace_summary_json(self, artifacts, capsys):
        import json

        assert main(["trace", "summary", str(artifacts["trace"]), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["cells"] > 0 and data["failed"] == 0
        assert data["captures"] > 0 and data["replays"] > 0
        assert data["failed_cells"] == []

    def test_trace_summary_json_lists_failed_cells(self, tmp_path, capsys):
        import json

        from repro.core.trace import CellSpan, TraceWriter

        path = tmp_path / "t.jsonl"
        writer = TraceWriter(path)
        writer.start()
        writer.span(CellSpan("505.mcf_r", "mcf.test", "off", 2, 0.1,
                             "failed", "boom"))
        writer.finish()
        writer.close()
        assert main(["trace", "summary", str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        cell, = data["failed_cells"]
        assert cell["workload"] == "mcf.test" and cell["error"] == "boom"

    def test_metrics_missing_snapshot_exits_2(self, tmp_path, capsys):
        missing, directory = tmp_path / "nope.json", tmp_path / "dir.json"
        directory.mkdir()
        for path in (missing, directory):
            assert main(["metrics", "show", str(path)]) == 2
            assert capsys.readouterr().err == f"metrics: no snapshot at {path}\n"

    def test_metrics_garbage_snapshot_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        for document in ("{broken", "null", "3", "[1,2]", '{"schema":1,"metrics":[1]}'):
            path.write_text(document)
            for action in ("show", "prom"):
                assert main(["metrics", action, str(path)]) == 2
                err = capsys.readouterr().err
                assert err.startswith(f"metrics: {path}: unreadable snapshot ("), err
                assert err.count("\n") == 1


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "505.mcf_r" in out
        assert "no Table II row" in out  # x264

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Arithmetic Average" in out

    def test_generate(self, capsys):
        assert main(["generate", "548.exchange2_r", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "verified : yes" in out
        assert "exchange2" in out

    def test_report(self, capsys):
        assert main(["report", "548.exchange2_r"]) == 0
        out = capsys.readouterr().out
        assert "mu_g(V)" in out

    def test_validate(self, capsys):
        assert main(["validate", "505.mcf_r"]) == 0
        out = capsys.readouterr().out
        assert "0 failed" in out

    def test_table2_single(self, capsys):
        assert main(["table2", "548.exchange2_r"]) == 0
        out = capsys.readouterr().out
        assert "548.exchange2_r" in out
        assert "mu_g(V)" in out

    def test_fig1(self, capsys):
        assert main(["fig1", "548.exchange2_r"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_fig2(self, capsys):
        assert main(["fig2", "548.exchange2_r"]) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_verbose_replay_line_covers_pooled_workers(self, capsys):
        assert main(["report", "505.mcf_r", "--no-cache", "--workers", "2", "--verbose"]) == 0
        err = capsys.readouterr().err
        assert re.search(
            r"^replay: [1-9]\d* events over 7 evaluations, stride<=[1-9]\d*, "
            r"\d+\.\d\dM events/s$",
            err,
            re.MULTILINE,
        ), err

    @pytest.mark.parametrize("document", [b"null", b"[1,2]", b"3", b'"x"'])
    def test_cache_info_skips_an_entry_that_is_not_an_object(
        self, tmp_path, capsys, document
    ):
        shard = tmp_path / "ab"
        shard.mkdir()
        # A valid envelope around the document, so its shape is what is read.
        envelope = PROFILE_MAGIC + struct.pack("<II", len(document), zlib.crc32(document))
        (shard / ("ab" + "0" * 62 + ResultCache.suffix)).write_bytes(envelope + document)
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "  entries : 1\n  profiles: 0\n" in out
        assert "  source  : 0 batched, 0 per-config, 0 unlabeled replays\n" in out

    def test_cache_info_counts_one_entry_per_capture(self, tmp_path, capsys):
        argv = ["sweep", "505.mcf_r", "--machines", "default,atom-like"]
        assert main([*argv, "--cache-dir", str(tmp_path)]) == 0
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "  entries : 7\n  profiles: 14\n" in out
        assert "  source  : 14 batched, 0 per-config, 0 unlabeled replays\n" in out

    @pytest.mark.parametrize("via", ["flag", "env"])
    @pytest.mark.parametrize(
        "argv", [["suite", "505.mcf_r"], ["sweep", "505.mcf_r"], ["cache", "info"]]
    )
    def test_cache_dir_that_is_a_file_exits_2(
        self, tmp_path, capsys, monkeypatch, argv, via
    ):
        path = tmp_path / "not-a-dir"
        path.write_text("keep\n")
        if via == "flag":
            argv = [*argv, "--cache-dir", str(path)]
        else:
            monkeypatch.setenv("REPRO_CACHE_DIR", str(path))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"{argv[0]}: cache dir {path} is not a directory\n"
        assert path.read_text() == "keep\n"

    @pytest.mark.parametrize("via", ["flag", "env"])
    @pytest.mark.parametrize(
        "argv", [["suite", "505.mcf_r"], ["sweep", "505.mcf_r"], ["runs", "list"]]
    )
    def test_ledger_dir_that_is_a_file_exits_2(
        self, tmp_path, capsys, monkeypatch, argv, via
    ):
        path = tmp_path / "not-a-dir"
        path.write_text("keep\n")
        if via == "flag":
            argv = [*argv, "--ledger", str(path)]
        else:
            monkeypatch.setenv("REPRO_LEDGER_DIR", str(path))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"{argv[0]}: ledger dir {path} is not a directory\n"
        assert path.read_text() == "keep\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["table2", "505.mcf_r", "--no-cache"],
            ["report", "505.mcf_r", "--no-cache"],
            ["fig1", "505.mcf_r", "--no-cache"],
            ["fig2", "505.mcf_r", "--no-cache"],
            ["export", "OUT", "505.mcf_r", "--no-cache"],
            ["fdo", "505.mcf_r"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_ledger_env_that_is_a_file_exits_2_wherever_a_session_opens_it(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        path = tmp_path / "not-a-dir"
        path.write_text("keep\n")
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(path))
        argv = [str(tmp_path / "out") if a == "OUT" else a for a in argv]
        assert main(argv) == 2
        *progress, last = capsys.readouterr().err.splitlines()
        assert last == f"{argv[0]}: ledger dir {path} is not a directory"
        assert all(line.startswith("characterizing ") for line in progress)
        assert path.read_text() == "keep\n"

    @pytest.mark.parametrize(
        "grid, message",
        [
            (None, "no grid file at {path}"),
            ("[1,2]", "{path}: bad grid ("),
            ("null", "{path}: bad grid ("),
        ],
        ids=["directory", "list", "null"],
    )
    def test_sweep_unusable_grid_exits_2(self, tmp_path, capsys, grid, message):
        path = tmp_path / "grid.json"
        if grid is None:
            path.mkdir()
        else:
            path.write_text(grid)
        assert main(["sweep", "505.mcf_r", "--grid", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("sweep: " + message.format(path=path))
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "configs",
        [
            [{"name": "default"}, {"name": "zero-table", "predictor_table_bits": 0}],
            [{"name": "zero-table", "predictor_table_bits": 0}],
            [{"name": "default"}, {"name": "neg-history", "predictor_history_bits": -1}],
        ],
        ids=["two-configs", "one-config", "negative-history"],
    )
    def test_sweep_grid_with_a_bad_predictor_shape_exits_2(
        self, tmp_path, capsys, configs
    ):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"configs": configs}))
        store = tmp_path / "store"
        argv = ["sweep", "505.mcf_r", "--grid", str(path), "--cache-dir", str(store)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"sweep: {path}: bad grid (predictor_")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not list(store.rglob("*" + ResultCache.suffix))  # no profile was stored

    @pytest.mark.parametrize(
        "config, field",
        [
            ({"predictor_table_bits": 14.0}, "predictor_table_bits"),
            ({"predictor_history_bits": 4.0}, "predictor_history_bits"),
            ({"width": True}, "width"),
            ({"geometry": {"dtlb_entries": 2.5}}, "dtlb_entries"),
            ({"geometry": {"l1d_kib": True}}, "l1d_kib"),
            ({"geometry": []}, "geometry"),
            ({"geometry": None}, "geometry"),
        ],
        ids=[
            "float-table-bits", "float-history-bits", "bool-width",
            "fractional-tlb", "bool-l1d", "list-geometry", "null-geometry",
        ],
    )
    def test_sweep_grid_with_a_non_integer_count_exits_2(
        self, tmp_path, capsys, config, field
    ):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"configs": [{"name": "a", **config}]}))
        store = tmp_path / "store"
        argv = ["sweep", "505.mcf_r", "--grid", str(path), "--cache-dir", str(store)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"sweep: {path}: bad grid (")
        assert field in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not store.exists()  # nothing executed, nothing stored

    def test_table2_is_one_run_in_the_ledger(self, tmp_path, capsys, monkeypatch):
        from repro.analysis.sensitivity import sensitivity_report
        from repro.analysis.tables import render_table2
        from repro.core.characterize import characterize

        ids = ["505.mcf_r", "557.xz_r"]
        ledger = tmp_path / "ledger"
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(ledger))
        assert main(["table2", *ids, "--no-cache"]) == 0
        out = capsys.readouterr().out
        records = (ledger / "runs.jsonl").read_text().splitlines()
        assert len(records) == 1
        assert json.loads(records[0])["benchmarks"] == ids
        # The same table as characterizing each row on its own.
        monkeypatch.delenv("REPRO_LEDGER_DIR")
        chars = [characterize(bid) for bid in ids]
        assert out == f"{render_table2(chars)}\n\n{sensitivity_report(chars)}\n"

    def test_fdo_is_one_run(self, tmp_path, capsys, monkeypatch):
        from repro.core import engine
        from repro.core.registry import alberta_workloads

        executed: Counter = Counter()
        run_cell = engine._run_cell

        def counted(cell, *args):
            executed[cell.workload_name] += 1
            return run_cell(cell, *args)

        monkeypatch.setattr(engine, "_run_cell", counted)
        ledger = tmp_path / "ledger"
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(ledger))
        assert main(["fdo", "505.mcf_r", "--max-workloads", "3"]) == 0
        assert len((ledger / "runs.jsonl").read_text().splitlines()) == 1
        first3 = alberta_workloads("505.mcf_r").names()[:3]
        assert executed == Counter({*first3, "mcf.train", "mcf.refrate"})
        # What each protocol printed in its own session.
        assert capsys.readouterr().out == (
            "single train->refrate speedup: 1.0418\n"
            "cross-validated (6 pairs): mean=1.0884 range=[1.0418, 1.1908] regressions=0\n"
        )

    def test_table2_cache_line_counts_this_command_only(self, tmp_path, capsys):
        argv = ["table2", "505.mcf_r", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert "cache: 0 hits, 7 misses, 0 B read, " in capsys.readouterr().err
        assert main(argv) == 0
        assert re.search(
            r"cache: 7 hits, 0 misses, [1-9]\d* B read, 0 B written",
            capsys.readouterr().err,
        )

    def test_export_is_one_run_in_the_ledger(self, tmp_path, capsys, monkeypatch):
        from repro.analysis.figures import render_figure1, render_figure2
        from repro.analysis.tables import render_table2
        from repro.core.characterize import characterize
        from repro.core.reports import benchmark_report

        ids = ["505.mcf_r", "557.xz_r"]
        ledger = tmp_path / "ledger"
        out = tmp_path / "bundle"
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(ledger))
        assert main(["export", str(out), *ids, "--no-cache"]) == 0
        records = (ledger / "runs.jsonl").read_text().splitlines()
        assert len(records) == 1
        assert json.loads(records[0])["benchmarks"] == ids
        # The same bundle as characterizing each row on its own.
        monkeypatch.delenv("REPRO_LEDGER_DIR")
        chars = [characterize(bid, keep_profiles=True) for bid in ids]
        assert (out / "table2.txt").read_text() == render_table2(chars) + "\n"
        for char in chars:
            stem = char.benchmark_id
            assert (out / "reports" / f"{stem}.txt").read_text() == (
                benchmark_report(char) + "\n"
            )
            assert (out / "figures" / f"{stem}.fig1.txt").read_text() == (
                render_figure1(char) + "\n"
            )
            assert (out / "figures" / f"{stem}.fig2.txt").read_text() == (
                render_figure2(char) + "\n"
            )

    @pytest.mark.slow
    def test_export_bundle(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        assert main(["export", str(out), "548.exchange2_r", "557.xz_r", "541.leela_r"]) == 0
        assert (out / "table1.txt").exists()
        assert (out / "table2.txt").exists()
        assert (out / "table2.json").exists()
        assert (out / "sensitivity.txt").exists()
        assert (out / "comparison.json").exists()
        assert (out / "reports" / "548.exchange2_r.txt").exists()
        assert (out / "figures" / "557.xz_r.fig1.txt").exists()
        assert (out / "figures" / "557.xz_r.fig2.txt").exists()
