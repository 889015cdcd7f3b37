"""Tests of the benchmark itself: its declaration, checks and accounting.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import one_pass  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert "\n" not in w["why"] and len(w["why"]) <= 200


def test_workloads_and_layer_metrics_match_the_code():
    assert tuple(w["name"] for w in SPEC["workloads"]) == one_pass.WORKLOADS
    # Every layer metric records which end-to-end metric it should move.
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers.MOVES)
    assert all(moves.strip() for moves in layers.MOVES.values())
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])


def test_attribution_shares_overlapping_workers_and_sums_to_wall():
    spans = [
        ("replay.s", 1, 1.0, 3.0, ""),  # parent, with a nested child
        ("cache.key_s", 1, 1.5, 2.0, "replay.s"),
        ("benchmarks.execute_s", 2, 4.0, 8.0, ""),  # two workers overlap 5..6
        ("benchmarks.execute_s", 3, 5.0, 6.0, ""),
    ]
    share, busy = layers.attribute(spans, 0.0, 10.0)
    assert share["replay.s"] == pytest.approx(1.5)
    assert share["cache.key_s"] == pytest.approx(0.5)
    assert share["benchmarks.execute_s"] == pytest.approx(4.0)
    assert share[layers.UNATTRIBUTED] == pytest.approx(4.0)
    assert sum(share.values()) == pytest.approx(10.0)
    assert busy["benchmarks.execute_s"] == pytest.approx(5.0)


@pytest.mark.parametrize("workload", one_pass.WORKLOADS)
def test_committed_traced_run_sums_to_its_wall(workload):
    result = json.loads((HERE / "results" / f"{workload}.trace.json").read_text())
    assert result["correct"] and result["failed"] == 0
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert list(m) == [spec["name"] for spec in SPEC["per_layer"]]
    parts = [m[n] for n in layers.TIME_LAYERS] + [m[layers.UNATTRIBUTED]]
    assert sum(parts) == pytest.approx(m["trace.wall_s"], rel=1e-9)


@pytest.mark.parametrize("workers", [1, 2])
def test_traced_pass_layers_sum_to_traced_wall(tmp_path, workers):
    from repro.core.registry import get_benchmark

    ids = ["505.mcf_r"]
    tracer = layers.Tracer()
    layers.install(tracer, [type(get_benchmark(b)) for b in ids])
    try:
        start = time.perf_counter()
        out = one_pass.table2_pass(tmp_path / "store", 0, workers, ids)
        end = time.perf_counter()
    finally:
        layers.uninstall()
    m = layers.layer_metrics(tracer, start, end)
    parts = [m[n] for n in layers.TIME_LAYERS] + [m[layers.UNATTRIBUTED]]
    assert sum(parts) == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert min(parts) >= 0.0
    n = one_pass.PAPER_COUNTS["505.mcf_r"]
    assert m["benchmarks.executions"] == n and m["cache.misses"] == n
    assert m["capture.events"] == m["replay.events"] > 0
    assert (m["engine.transport_mb"] > 0) == (workers > 1)
    assert one_pass.check(out["rows"], out["engine_failed"], ids, {})[:2] == (n, 0)


def test_check_fails_every_cell_of_a_benchmark_that_disagrees():
    ids = ["505.mcf_r", "557.xz_r"]
    rows = {"default": {b: {"n_workloads": one_pass.PAPER_COUNTS[b]} for b in ids}}
    good = {c: {b: one_pass.row_digest(r) for b, r in by.items()} for c, by in rows.items()}
    assert one_pass.check(rows, {}, ids, good)[:2] == (19, 0)
    wrong = {"default": {**good["default"], "557.xz_r": "0" * 16}}
    assert one_pass.check(rows, {}, ids, wrong)[:2] == (19, 12)
    assert one_pass.check(rows, {"505.mcf_r": 2}, ids, good)[:2] == (19, 2)
    rows["default"]["505.mcf_r"] = {"n_workloads": 6}
    assert one_pass.check(rows, {}, ids, {})[:2] == (19, 7)


def test_reference_covers_the_default_and_a_held_out_seed():
    ref = json.loads(one_pass.REFERENCE.read_text())
    assert ref["default_seed"] == one_pass.DEFAULT_SEED != ref["held_out_seed"]
    for configs in ref["seeds"].values():
        assert len(configs) == 8 and "default" in configs
        assert all(set(by) == set(one_pass.PAPER_COUNTS) for by in configs.values())
    recorded = {int(s) for s in ref["seeds"]}
    assert {ref["default_seed"], ref["held_out_seed"]} <= recorded
    # Every --seed selects a recorded seed; only itself selects the held-out one.
    assert all(one_pass.base_seed(s) == s for s in recorded)
    picked = {one_pass.base_seed(s) for s in range(-20, 200) if s not in recorded}
    assert picked == recorded - {ref["held_out_seed"]}


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table2-cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
