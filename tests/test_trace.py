"""Run-trace journal tests: writer, readers, CLI, per-session metrics."""

import json

import pytest

from repro.cli import main
from repro.core.trace import (
    CellSpan,
    RunSummary,
    TraceWriter,
    read_trace,
    summarize_trace,
    trace_spans,
)

SPANS = [
    CellSpan("505.mcf_r", "mcf.refrate", "miss", 1, 0.05, "ok"),
    CellSpan("505.mcf_r", "mcf.train", "hit", 0, 0.0, "ok"),
    CellSpan("505.mcf_r", "mcf.test", "miss", 3, 0.21, "failed", "boom"),
    CellSpan("557.xz_r", "xz.refrate", "off", 2, 0.40, "timeout", "cell timed out"),
]


def write_journal(path, spans=SPANS, finish=True):
    writer = TraceWriter(path)
    writer.start({"workers": 2, "strict": False})
    for span in spans:
        writer.span(span)
    if finish:
        writer.finish()
    writer.close()
    return writer


class TestWriter:
    def test_journal_round_trips(self, tmp_path):
        path = tmp_path / "run.jsonl"
        writer = write_journal(path)

        records = read_trace(path)
        assert [r["type"] for r in records] == ["run_start"] + ["span"] * 4 + ["summary"]
        assert records[0]["workers"] == 2
        assert trace_spans(path) == SPANS

        summary = summarize_trace(path)
        assert summary == writer.summary
        assert summary.cells == 4
        assert summary.ok == 2
        assert summary.failed == 2
        assert summary.cache_hits == 1
        assert summary.cache_misses == 2
        assert summary.retries == (3 - 1) + (2 - 1)  # attempts beyond the first
        assert summary.timeouts == 1
        assert summary.crashes == 0

    def test_finish_is_idempotent(self, tmp_path):
        path = tmp_path / "run.jsonl"
        writer = TraceWriter(path)
        writer.start()
        writer.span(SPANS[0])
        first = writer.finish()
        assert writer.finish() is first
        writer.close()
        assert sum(1 for r in read_trace(path) if r["type"] == "summary") == 1

    def test_tally_only_writer_has_no_path(self):
        writer = TraceWriter(None)
        writer.start()
        writer.span(SPANS[0])
        summary = writer.finish()
        assert writer.path is None
        assert summary.cells == 1

    def test_quarantine_tally_reaches_summary(self, tmp_path):
        writer = TraceWriter(tmp_path / "run.jsonl")
        writer.start()
        writer.quarantine(2)
        assert writer.finish().quarantined == 2
        writer.close()


class TestTruncatedJournal:
    def test_readers_survive_a_killed_run(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_journal(path, finish=False)  # no summary record
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"type":"span","benchmark":"999.trunc')  # torn write

        spans = trace_spans(path)
        assert spans == SPANS  # torn tail skipped
        summary = summarize_trace(path)  # recomputed from spans
        assert summary.cells == 4
        assert summary.failed == 2
        assert summary.timeouts == 1

    def test_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text("\n" + json.dumps(SPANS[0].to_dict()) + "\n\n")
        assert trace_spans(path) == [SPANS[0]]

    def test_lines_that_are_not_objects_are_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text("[1,2]\n3\n" + json.dumps(SPANS[0].to_dict()) + '\n"x"\n')
        assert read_trace(path) == [SPANS[0].to_dict()]
        assert trace_spans(path) == [SPANS[0]]


class TestSessionMetrics:
    def test_session_scope_is_per_session(self):
        from repro.core.metrics import CELLS_TOTAL
        from repro.core.run import Session

        with Session(workers=1, cache=None) as first:
            first.characterize("505.mcf_r")
        with Session(workers=1, cache=None) as second:
            second.characterize("505.mcf_r")
        # Each session's registry holds its own 7 cells, never the other's.
        for session in (first, second):
            assert sum(i.value for i in session.metrics.series(CELLS_TOTAL)) == 7


class TestConcurrentAppend:
    """Readers must tolerate a journal that is still being appended."""

    def test_reader_mid_torn_write_sees_a_clean_prefix(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_journal(path, spans=SPANS[:2], finish=False)
        # Simulate a writer caught mid-line: no trailing newline yet.
        with path.open("a", encoding="utf-8") as fh:
            line = json.dumps(SPANS[2].to_dict())
            fh.write(line[: len(line) // 2])
            fh.flush()
            assert trace_spans(path) == SPANS[:2]  # torn tail skipped
            fh.write(line[len(line) // 2 :] + "\n")
        assert trace_spans(path) == SPANS[:3]  # completed line now visible

    def test_reader_races_a_writer_thread(self, tmp_path):
        import threading
        import time as _time

        path = tmp_path / "run.jsonl"
        path.touch()
        n = 50
        done = threading.Event()

        def append_spans():
            with path.open("a", encoding="utf-8") as fh:
                for i in range(n):
                    span = CellSpan("505.mcf_r", f"w{i}", "off", 1, 0.01, "ok")
                    fh.write(json.dumps(span.to_dict()) + "\n")
                    fh.flush()
                    _time.sleep(0.001)
            done.set()

        writer = threading.Thread(target=append_spans)
        writer.start()
        counts = []
        try:
            while not done.is_set():
                counts.append(len(trace_spans(path)))  # must never raise
        finally:
            writer.join()
        counts.append(len(trace_spans(path)))
        assert counts[-1] == n
        assert counts == sorted(counts)  # reads only ever grow


class TestSpanTree:
    """Engine runs journal a run -> cell -> stage tree."""

    @pytest.fixture(scope="class")
    def journal(self, tmp_path_factory):
        from repro.core.run import Session

        path = tmp_path_factory.mktemp("tree") / "run.jsonl"
        with Session(workers=1, cache=None, trace=path) as session:
            session.characterize("505.mcf_r")
        return path

    def test_cells_parent_on_the_run_root(self, journal):
        from repro.core.trace import RUN_SPAN_ID

        spans = trace_spans(journal)
        assert spans and all(s.parent_id == RUN_SPAN_ID for s in spans)
        assert len({s.span_id for s in spans}) == len(spans)  # unique ids

    def test_stages_parent_on_their_cell(self, journal):
        from repro.core.trace import STAGE_NAMES, trace_stages

        spans = trace_spans(journal)
        stages = trace_stages(journal)
        cell_ids = {s.span_id for s in spans}
        assert stages
        for stage in stages:
            assert stage.name in STAGE_NAMES
            assert stage.parent_id in cell_ids or stage.parent_id == "run"
        # Every fresh cell ran generate/capture/replay.
        by_parent = {}
        for stage in stages:
            by_parent.setdefault(stage.parent_id, set()).add(stage.name)
        for span in spans:
            if span.cache != "hit":
                assert {"generate", "capture", "replay"} <= by_parent[span.span_id]

    def test_chrome_export_nests_stages_inside_cells(self, journal):
        from repro.core.trace import export_chrome_trace

        doc = export_chrome_trace(journal)
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        cells = [e for e in events if e["cat"] == "cell"]
        stages = [e for e in events if e["cat"] == "stage"]
        assert cells and stages
        tids = {e["tid"] for e in cells}
        for stage in stages:
            # Cell stages render on their cell's lane; run-level stages
            # (summarize) render on the run root's track 0.
            assert stage["tid"] in tids or (
                stage["name"] == "summarize" and stage["tid"] == 0
            )
        assert doc["displayTimeUnit"] == "ms"


#: A journal as written before phase-sampled replay was removed: a
#: sampled span, a ``sample`` stage, and the retired summary counter.
#: The CLI must still read it.
PRE_REMOVAL_JOURNAL = [
    {"type": "run_start", "run_id": "1a1-1-1", "started_at": 1.0, "version": "1.0.0",
     "workers": 2, "cache": False, "strict": True, "timeout": None, "retries": 1},
    {"type": "span", "benchmark": "505.mcf_r", "workload": "mcf.refrate",
     "cache": "off", "attempts": 1, "duration_s": 0.39, "outcome": "ok",
     "error": None, "capture": "run", "replay": "run", "build": None,
     "span_id": "s1", "parent_id": "run", "start_s": 0.02, "sampled": True,
     "batched": False},
    {"type": "stage", "name": "sample", "benchmark": "505.mcf_r",
     "workload": "mcf.refrate", "start_s": 0.58, "duration_s": 0.19,
     "span_id": "s2", "parent_id": "s1",
     "resources": {"cpu_user_s": 0.17, "cpu_sys_s": 0.01, "max_rss_kb": 74872,
                   "replay_events": 6048, "replay_ns": 189252622}},
    {"type": "summary", "cells": 1, "ok": 1, "failed": 0, "cache_hits": 0,
     "cache_misses": 0, "retries": 0, "timeouts": 0, "crashes": 0,
     "quarantined": 0, "duration_s": 0.6, "captures": 1, "capture_hits": 0,
     "replays": 1, "replay_hits": 0, "replays_sampled": 1, "replays_batched": 0},
]


class TestPreRemovalJournal:
    @pytest.fixture
    def journal(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in PRE_REMOVAL_JOURNAL))
        return path

    def test_summary_decodes_and_drops_the_retired_counter(self, journal):
        summary = summarize_trace(journal)
        assert (summary.cells, summary.replays) == (1, 1)
        assert RunSummary.from_dict(summary.to_dict()) == summary

    def test_cli_renders_without_traceback(self, journal, capsys):
        for argv in (
            ["trace", "summary", str(journal)],
            ["trace", "summary", "--json", str(journal)],
            ["trace", "show", str(journal)],
            ["trace", "chrome", str(journal)],
            ["top", "--once", str(journal)],
        ):
            assert main(argv) == 0, argv
        out = capsys.readouterr().out
        assert "└─ sample" in out  # the old stage still renders, by its name
        assert "1 replays (0 cached, 0 batched)" in out


class TestCli:
    @pytest.fixture(scope="class")
    def journal(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "run.jsonl"
        rc = main(["suite", "505.mcf_r", "--no-cache", "--trace", str(path)])
        assert rc == 0
        return path

    def test_suite_writes_a_complete_journal(self, journal):
        summary = summarize_trace(journal)
        assert summary.cells == 7  # the mcf Alberta set
        assert summary.failed == 0

    def test_trace_summary_renders(self, journal, capsys):
        assert main(["trace", "summary", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "cells      : 7  (7 ok, 0 failed)" in out

    def test_trace_show_lists_every_cell(self, journal, capsys):
        assert main(["trace", "show", str(journal)]) == 0
        out = capsys.readouterr().out
        assert out.count("505.mcf_r") == 7
        assert "mcf.alberta.sparse" in out

    def test_trace_summary_names_failed_cells(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        write_journal(path)
        assert main(["trace", "summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "failed cells:" in out
        assert "505.mcf_r/mcf.test: failed after 3 attempt(s) — boom" in out

    def test_missing_journal_exits_2(self, tmp_path, capsys):
        missing, directory = tmp_path / "nope.jsonl", tmp_path / "dir.jsonl"
        directory.mkdir()
        for path in (missing, directory):
            for action in ("summary", "show", "chrome"):
                assert main(["trace", action, str(path)]) == 2
                assert capsys.readouterr().err == f"trace: no journal at {path}\n"

    def test_empty_journal_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        for content in ("", "[1,2]\n3\nnull\n"):
            path.write_text(content)
            for action in ("summary", "show", "chrome"):
                assert main(["trace", action, str(path)]) == 2
                err = capsys.readouterr().err
                assert err == f"trace: journal {path} has no records\n"

    def test_span_record_without_members_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type":"span"}\n')
        for action in ("summary", "show", "chrome"):
            assert main(["trace", action, str(path)]) == 2
            err = capsys.readouterr().err
            assert err == "trace: malformed span record (KeyError: 'benchmark')\n"

    def test_summary_record_with_wrong_types_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        for record, member in (
            ('{"type":"summary","cells":"x","duration_s":"y"}', "cells is str"),
            ('{"type":"summary","cells":1,"duration_s":"y"}', "duration_s is str"),
            ('{"type":"summary","ok":true}', "ok is bool"),
            ('{"type":"summary","replays":1.5}', "replays is float"),
        ):
            path.write_text(record + "\n")
            for argv in (["trace", "summary", str(path)], ["top", "--once", str(path)]):
                assert main(argv) == 2, argv
                err = capsys.readouterr().err
                assert err == f"{argv[0]}: malformed summary record ({member})\n"

    def test_summary_duration_may_be_an_integer(self):
        summary = RunSummary.from_dict({"type": "summary", "cells": 2, "duration_s": 3})
        assert (summary.cells, summary.duration_s) == (2, 3)

    def test_non_utf8_line_ends_the_journal(self, tmp_path, capsys):
        path = tmp_path / "bytes.jsonl"
        path.write_bytes(b'\xff\xfe{"type":"span"}\n')
        assert read_trace(path) == []
        assert main(["trace", "summary", str(path)]) == 2
        assert capsys.readouterr().err == f"trace: journal {path} has no records\n"
        # Records before the damage survive, as before a torn tail.
        write_journal(path)
        good = read_trace(path)
        path.write_bytes(path.read_bytes() + b'{"type":"sp\xc3"}\n')
        assert read_trace(path) == good

    def test_trace_chrome_writes_perfetto_json(self, journal, tmp_path, capsys):
        out = tmp_path / "chrome.json"
        assert main(["trace", "chrome", str(journal), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"X", "M"}
        cats = {e["cat"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert cats == {"run", "cell", "stage"}

    def test_suite_strict_flag_aborts_on_failure(self, tmp_path, monkeypatch, capsys):
        from repro.core.engine import FAULT_INJECT_ENV

        monkeypatch.setenv(FAULT_INJECT_ENV, "raise:505.mcf_r:mcf.train")
        path = tmp_path / "run.jsonl"
        rc = main(
            ["suite", "505.mcf_r", "--no-cache", "--strict", "--retries", "0",
             "--trace", str(path)]
        )
        assert rc == 1
        assert "aborted (strict)" in capsys.readouterr().err
        # The journal still records every settled cell.
        assert any(not s.ok for s in trace_spans(path))

    def test_suite_degraded_run_reports_and_exits_nonzero(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.core.engine import FAULT_INJECT_ENV

        monkeypatch.setenv(FAULT_INJECT_ENV, "raise:505.mcf_r:mcf.train")
        rc = main(["suite", "505.mcf_r", "--no-cache", "--retries", "0"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "505.mcf_r" in captured.out  # degraded row still printed
        assert "failed cells:" in captured.err
        assert "mcf.train" in captured.err
