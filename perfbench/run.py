"""End-to-end benchmark of the Alberta-workloads pipeline.

Runs one workload of ``BENCHMARK.json`` from the root of a checkout::

    python3 perfbench/run.py --workload table2-cold --seed 0 --seconds 35 --trace 0

``--seed`` selects one of the Alberta base seeds recorded in
``reference.json`` (see ``one_pass.base_seed``), whose outputs are
checked against the digests recorded there.  Each run finds or builds
the workload's pristine artifact store for that seed, then runs as
many timed passes as fit in ``--seconds`` (at least one), each in a
fresh interpreter on its own copy of that store (``one_pass.py``).
The passes of a run are timed as one unit of work (``wall_s``,
``cells_per_s`` and ``cpu_s`` are per-pass means), ``peak_rss_mb`` is
the largest pass and ``setup_s`` the median of at least three set-ups.
With ``--trace 1`` untraced and traced
passes alternate and the per-layer metrics of the median traced pass
are printed instead, with ``trace.overhead_s`` the difference of the
two medians.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (cells) and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import one_pass

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
#: A run must end within 180 s; leave room for clean-up.
DEADLINE_S = 170.0
MIN_SETUP_SAMPLES = 3


def source_digest() -> str:
    """Identity of the program's sources, naming cached fixtures."""
    h = hashlib.sha256()
    src = ROOT / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class Runner:
    """Starts ``one_pass.py`` children under one working directory."""

    def __init__(self, args: argparse.Namespace, work: Path, deadline: float):
        self.args = args
        self.work = work
        self.deadline = deadline
        self.pristine: Path | None = None
        # REPRO_* variables switch on fault injection, ledgers and stack
        # sampling; the benchmark always measures the plain configuration.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.n = 0

    def child(self, *extra: str) -> dict:
        """Run one child to completion and return its JSON result line."""
        cmd = [
            sys.executable, str(HERE / "one_pass.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed), *extra,
            "--spawned-at", repr(time.monotonic()),
        ]
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        finally:
            try:  # pool workers share the child's process group
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"{cmd[1]} {' '.join(extra)} exited {proc.returncode}")
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else {}

    def fixture(self) -> None:
        """Find or build the sweep's pristine store; the others start empty.

        Built stores are kept per base seed and program source, so runs
        that select the same seed skip the build.  Passes never write to
        it: each repetition copies it first.
        """
        if self.args.workload != "sweep8-replay":
            return
        seed = one_pass.base_seed(self.args.seed)
        self.pristine = STATE / "fixtures" / f"sweep-{seed}-{source_digest()}"
        if not self.pristine.is_dir():
            built = self.work / "fixture"
            self.child("--fixture", "--store", str(built))
            self.pristine.parent.mkdir(parents=True, exist_ok=True)
            try:
                os.rename(built, self.pristine)
            except OSError:  # a concurrent run stored it first
                pass

    def rep(self, *flags: str) -> dict:
        self.n += 1
        store = self.work / f"store{self.n}"
        pristine = ("--pristine", str(self.pristine)) if self.pristine else ()
        try:
            return self.child("--store", str(store), *pristine, *flags)
        finally:
            shutil.rmtree(store, ignore_errors=True)


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
    """As many whole passes as fit in ``seconds``, at least one.

    Returns the untraced and the traced passes; with ``trace`` they
    alternate, so both see the same machine conditions.
    """
    untraced: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        untraced.append(runner.rep())
        if trace:
            traced.append(runner.rep("--trace"))
        now = time.monotonic()
        if now - start + (now - began) > seconds:
            return untraced, traced


def end_to_end(runner: Runner, reps: list[dict]) -> dict[str, float]:
    setups = [r["setup_s"] for r in reps]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(runner.rep("--setup-only")["setup_s"])

    # The host's speed drifts over tens of seconds, so the passes of a run
    # are timed as one unit of work (mean per pass) rather than by their
    # median; a median of three passes followed the drift more closely.
    passes = len(reps)
    wall = sum(r["wall_s"] for r in reps)
    return {
        "wall_s": wall / passes,
        "cells_per_s": sum(r["attempted"] - r["failed"] for r in reps) / wall,
        "setup_s": statistics.median(setups),
        "cpu_s": sum(r["cpu_s"] for r in reps) / passes,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reps),
        "store_mb": statistics.median(r["store_mb"] for r in reps),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    walls = sorted(r["wall_s"] for r in traced)
    middle = next(r for r in traced if r["wall_s"] == walls[(len(walls) - 1) // 2])
    out = dict(middle["layers"])
    out["trace.overhead_s"] = statistics.median(walls) - statistics.median(
        r["wall_s"] for r in untraced
    )
    return out


def main(argv: "list[str] | None" = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=one_pass.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    started = time.monotonic()
    work = STATE / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(args, work, started + DEADLINE_S)
        runner.fixture()
        untraced, traced = measure(runner, args.seconds, bool(args.trace))
        values = per_layer(untraced, traced) if args.trace else end_to_end(runner, untraced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reps = untraced + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for r in reps:
        print(f"perfbench: pass {r['wall_s']:.3f} s, {r['failed']}/{r['attempted']} cells failed",
              file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
