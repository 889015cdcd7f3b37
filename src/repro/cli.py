"""Command-line interface: ``python -m repro <command>``.

Commands mirror the deliverables:

* ``table1``                       — print Table I;
* ``table2 [IDS...]``              — characterize and print Table II rows;
* ``suite``                        — fault-tolerant full-suite run with
  an optional ``--trace`` JSONL journal;
* ``sweep BENCH --machines ...``   — machine-config sweep that captures
  telemetry once and replays it per config;
* ``trace summary|show|chrome PATH`` — inspect a run-trace journal, or
  export it as Chrome ``trace_event`` JSON (load in Perfetto);
* ``metrics show|prom PATH``       — render a ``--metrics`` snapshot as
  a latency table or Prometheus text;
* ``runs list|show|diff|gc|pin``   — query the persistent run ledger
  (``suite/sweep --ledger DIR`` or ``REPRO_LEDGER_DIR`` record runs);
  ``runs diff A B`` is the perf-regression check: it flags every stage
  in which run B is slower than run A beyond tolerance;
* ``flame BENCH``                  — stack-sample one capture+replay and
  write collapsed stacks (flamegraph.pl / speedscope format);
* ``top PATH``                     — live tail of an in-flight trace
  journal (per-cell stage states, replay eps, cache-hit rates);
* ``fig1 BENCH`` / ``fig2 BENCH``  — render a figure panel;
* ``report BENCH``                 — the per-benchmark Alberta report;
* ``generate BENCH --seed N``      — mint one workload and validate it;
* ``validate BENCH``               — run the whole Alberta set;
* ``fdo BENCH``                    — single-workload vs cross-validated FDO;
* ``list``                         — registered benchmarks.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Any, Callable

__all__ = ["main", "build_parser", "default_cache_dir"]


def default_cache_dir() -> Path:
    """Where the CLI keeps its characterization result cache."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def _at_least(
    kind: type, low: Any, wanted: str, *, inclusive: bool = True
) -> "Callable[[str], Any]":
    """An argparse ``type=`` parsing ``kind`` and rejecting values below
    ``low`` (at or below it unless ``inclusive``).

    Misuse such as ``--workers 0`` then exits 2 with argparse's one-line
    error instead of surfacing the engine's ``ValueError`` traceback or
    being silently clamped.
    """

    def parse(text: str) -> Any:
        value = kind(text)  # ValueError: argparse reports "invalid int value"
        if not (value >= low if inclusive else value > low):  # rejects NaN too
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text!r}")
        return value

    parse.__name__ = kind.__name__
    return parse


def _positive(kind: type) -> "Callable[[str], Any]":
    return _at_least(kind, 0, "positive", inclusive=False)


def _non_negative(kind: type) -> "Callable[[str], Any]":
    return _at_least(kind, 0, "non-negative")


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    """Flags shared by every command that runs characterizations."""
    parser.add_argument(
        "--workers",
        type=_positive(int),
        default=None,
        metavar="N",
        help="process-pool size for characterization (default: all CPUs)",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help=f"result cache directory (default: {default_cache_dir()})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache for this run",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="print a replay-throughput summary after the run",
    )


def _cache_dir(args: argparse.Namespace) -> Path | None:
    """The cache directory this command opens; ``None`` if it opens none."""
    if not hasattr(args, "cache_dir") or getattr(args, "no_cache", False):
        return None
    return args.cache_dir or default_cache_dir()


def _ledger_dir(args: argparse.Namespace) -> Path | None:
    """The run-ledger directory this command opens; ``None`` if none."""
    if not hasattr(args, "ledger"):
        return None
    from .core.ledger import LEDGER_ENV

    env = os.environ.get(LEDGER_ENV, "").strip()
    return args.ledger or (Path(env) if env else None)


def _engine_kwargs(args: argparse.Namespace) -> dict:
    """Translate the engine flags into characterize() keyword arguments."""
    return {"workers": args.workers, "cache": _cache_dir(args)}


def _write_observability(session, args: argparse.Namespace) -> None:
    """Write the ``--metrics`` / ``--prom`` / ``--chrome-trace`` outputs.

    Called on failed runs too — a degraded suite's metrics are exactly
    when you want the snapshot.
    """
    import json

    if args.metrics:
        args.metrics.write_text(
            json.dumps(session.metrics.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
        print(f"metrics snapshot: {args.metrics}", file=sys.stderr)
    if args.prom:
        args.prom.write_text(session.prometheus(), encoding="utf-8")
        print(f"prometheus snapshot: {args.prom}", file=sys.stderr)
    if args.chrome_trace:
        args.chrome_trace.write_text(
            json.dumps(session.chrome_trace()) + "\n", encoding="utf-8"
        )
        print(
            f"chrome trace: {args.chrome_trace} (load at https://ui.perfetto.dev)",
            file=sys.stderr,
        )
    if getattr(args, "flame", None):
        session.write_flamegraph(args.flame)
        n = sum(session.stack_counts.values())
        hint = "" if n else " (empty; set REPRO_STACK_SAMPLE=1 to profile)"
        print(f"flamegraph: {args.flame} ({n} samples){hint}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="The Alberta Workloads for SPEC CPU 2017 — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print Table I (2006 -> 2017 evolution)")

    p = sub.add_parser("table2", help="characterize benchmarks, print Table II")
    p.add_argument("benchmarks", nargs="*", help="benchmark ids (default: all Table II rows)")
    _add_engine_options(p)

    for name in ("fig1", "fig2"):
        p = sub.add_parser(name, help=f"render Figure {name[-1]} for one benchmark")
        p.add_argument("benchmark")
        _add_engine_options(p)

    p = sub.add_parser("report", help="per-benchmark Alberta report")
    p.add_argument("benchmark")
    _add_engine_options(p)

    p = sub.add_parser(
        "suite",
        help="characterize the whole suite, tolerating failed cells",
    )
    p.add_argument(
        "benchmarks", nargs="*", help="benchmark ids (default: all Table II rows)"
    )
    p.add_argument("--suite", choices=("int", "fp"), default=None, help="restrict to one suite")
    p.add_argument(
        "--all-benchmarks",
        action="store_true",
        help="include benchmarks without a Table II row",
    )
    _add_engine_options(p)
    p.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="write a JSONL run-trace journal (see `repro trace`)",
    )
    p.add_argument(
        "--timeout",
        type=_positive(float),
        default=None,
        metavar="SECONDS",
        help="per-cell wall-clock budget (needs a worker pool to enforce)",
    )
    p.add_argument(
        "--retries",
        type=_non_negative(int),
        default=1,
        metavar="N",
        help="extra attempts per failed cell (default: 1)",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="abort on the first failed cell instead of completing degraded",
    )
    p.add_argument(
        "--metrics",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the run's metrics registry as a JSON snapshot "
        "(render later with `repro metrics show`)",
    )
    p.add_argument(
        "--prom",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the run's metrics in Prometheus text exposition format",
    )
    p.add_argument(
        "--chrome-trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the run's span tree as Chrome trace_event JSON "
        "(load at https://ui.perfetto.dev)",
    )
    p.add_argument(
        "--flame",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the run's collapsed profiler stacks "
        "(needs REPRO_STACK_SAMPLE=1; see `repro flame`)",
    )
    p.add_argument(
        "--ledger",
        type=Path,
        default=None,
        metavar="DIR",
        help="record the run in a persistent ledger directory "
        "(default: $REPRO_LEDGER_DIR when set; see `repro runs`)",
    )

    p = sub.add_parser(
        "sweep",
        help="characterize one benchmark across machine configs, "
        "capturing telemetry once and replaying it per config",
    )
    p.add_argument("benchmark")
    p.add_argument(
        "--machines",
        default="i7-2600,i7-6700k,atom-like",
        metavar="PRESETS",
        help="comma-separated machine presets, or 'default' for the "
        "baseline config (default: i7-2600,i7-6700k,atom-like)",
    )
    p.add_argument(
        "--config",
        action="append",
        dest="configs",
        default=None,
        metavar="NAME",
        help="add one named preset to the grid (repeatable; 'default' "
        "for the baseline config; overrides --machines)",
    )
    p.add_argument(
        "--grid",
        type=Path,
        default=None,
        metavar="FILE",
        help="JSON MachineGrid file ({\"configs\": [{\"name\": ..., "
        "<MachineConfig fields>}, ...]}); overrides --machines/--config",
    )
    _add_engine_options(p)
    p.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="write a JSONL run-trace journal (see `repro trace`)",
    )
    p.add_argument(
        "--ledger",
        type=Path,
        default=None,
        metavar="DIR",
        help="record the run in a persistent ledger directory "
        "(default: $REPRO_LEDGER_DIR when set; see `repro runs`)",
    )

    p = sub.add_parser("trace", help="inspect a run-trace JSONL journal")
    p.add_argument("action", choices=("summary", "show", "chrome"))
    p.add_argument("path", type=Path)
    p.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="PATH",
        help="for `chrome`: write the trace_event JSON here instead of stdout",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="for `summary`: print machine-readable JSON instead of the table",
    )

    p = sub.add_parser(
        "metrics", help="render a --metrics JSON snapshot from a run"
    )
    p.add_argument("action", choices=("show", "prom"))
    p.add_argument("path", type=Path, help="snapshot written by `suite --metrics`")
    p.add_argument(
        "--json",
        action="store_true",
        help="for `show`: print machine-readable JSON instead of the table",
    )

    p = sub.add_parser(
        "runs", help="query the persistent run ledger (see suite --ledger)"
    )
    p.add_argument(
        "action", choices=("list", "show", "diff", "gc", "pin", "unpin")
    )
    p.add_argument(
        "refs",
        nargs="*",
        help="run references: an id, a unique id prefix, 'latest', or "
        "'prev' (`diff` takes two; `show`/`pin`/`unpin` take one, "
        "default latest)",
    )
    p.add_argument(
        "--ledger",
        type=Path,
        default=None,
        metavar="DIR",
        help="ledger directory (default: $REPRO_LEDGER_DIR)",
    )
    p.add_argument(
        "--benchmark", default=None, help="for `list`: filter by benchmark id"
    )
    p.add_argument(
        "--outcome",
        choices=("ok", "degraded", "failed"),
        default=None,
        help="for `list`: filter by run outcome",
    )
    p.add_argument(
        "--limit", type=_positive(int), default=20, metavar="N",
        help="for `list`: show the newest N runs (default: 20)",
    )
    p.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        metavar="FRACTION",
        help="for `diff`: relative tolerance for timing-class metrics "
        "(default: 0.25)",
    )
    p.add_argument(
        "--all",
        action="store_true",
        help="for `diff`: list every compared series, not just findings",
    )
    p.add_argument(
        "--keep", type=int, default=10, metavar="N",
        help="for `gc`: never delete the N most recent runs (default: 10)",
    )
    p.add_argument(
        "--max-age-days",
        type=_non_negative(float),
        default=None,
        metavar="DAYS",
        help="for `gc`: only delete runs older than this many days",
    )
    p.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    p = sub.add_parser(
        "flame",
        help="stack-sample one capture+replay, write collapsed stacks",
    )
    p.add_argument("benchmark")
    p.add_argument(
        "--workload", default=None, help="workload name (default: the refrate one)"
    )
    p.add_argument(
        "--hz", type=_positive(float), default=1000.0, metavar="N",
        help="sampling rate (default: 1000)",
    )
    p.add_argument(
        "--seconds", type=_positive(float), default=1.0, metavar="S",
        help="keep replaying until this much wall time is profiled "
        "(default: 1.0)",
    )
    p.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="PATH",
        help="collapsed-stack output (default: BENCH.folded); feed to "
        "flamegraph.pl or speedscope",
    )

    p = sub.add_parser(
        "top", help="live tail of an in-flight run-trace journal"
    )
    p.add_argument("path", type=Path, help="journal written by suite/sweep --trace")
    p.add_argument(
        "--interval", type=_positive(float), default=1.0, metavar="S",
        help="refresh period in seconds (default: 1.0)",
    )
    p.add_argument(
        "--tail", type=_positive(int), default=12, metavar="N",
        help="how many recent cells to show (default: 12)",
    )
    p.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (no screen clearing)",
    )

    p = sub.add_parser("cache", help="inspect or wipe the result cache")
    p.add_argument("action", choices=("info", "wipe"))
    p.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help=f"result cache directory (default: {default_cache_dir()})",
    )

    p = sub.add_parser("generate", help="mint and validate one workload")
    p.add_argument("benchmark")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("validate", help="run every workload in the Alberta set")
    p.add_argument("benchmark")

    p = sub.add_parser("fdo", help="FDO evaluation study")
    p.add_argument("benchmark")
    # Leave-one-out cross-validation needs two workloads at least.
    p.add_argument("--max-workloads", type=_at_least(int, 2, "at least 2"), default=5)

    p = sub.add_parser("export", help="write the full result bundle to a directory")
    p.add_argument("out_dir")
    p.add_argument("benchmarks", nargs="*", help="benchmark ids (default: all Table II rows)")
    _add_engine_options(p)

    p = sub.add_parser("list", help="list registered benchmarks")
    p.add_argument(
        "--plugins",
        action="store_true",
        help="list loaded plugins and the descriptors they registered",
    )
    return parser


def _print_cache_summary(registry) -> None:
    """The ``table2`` profile-store traffic line, if the store was used."""
    from .core import metrics

    def total(spec, **labels: str) -> int:
        return sum(i.value for i in registry.series(spec, store="profile", **labels))

    if registry.series(metrics.CACHE_EVENTS_TOTAL, store="profile"):
        print(
            f"cache: {total(metrics.CACHE_EVENTS_TOTAL, event='hit')} hits, "
            f"{total(metrics.CACHE_EVENTS_TOTAL, event='miss')} misses, "
            f"{total(metrics.CACHE_IO_BYTES_TOTAL, direction='read')} B read, "
            f"{total(metrics.CACHE_IO_BYTES_TOTAL, direction='write')} B written",
            file=sys.stderr,
        )


def _print_replay_summary(registry) -> None:
    """One-line replay-throughput summary of what the command replayed.

    Pooled cells merge their worker snapshots into every active
    collector, so the line covers any ``--workers``.  One evaluation is
    one replay-kernel call; a batched sweep pass counts once.
    """
    from .core import metrics

    events = sum(i.value for i in registry.series(metrics.REPLAY_EVENTS_TOTAL))
    ns = sum(i.value for i in registry.series(metrics.REPLAY_NS_TOTAL))
    evals = sum(i.count for i in registry.series(metrics.REPLAY_EPS))
    stride = max(
        (i.value for i in registry.series(metrics.SAMPLING_STRIDE_MAX)), default=0
    )
    rate = events / (ns / 1e9) if ns else 0.0
    print(
        f"replay: {events} events over {evals} evaluations, "
        f"stride<={stride}, {rate / 1e6:.2f}M events/s",
        file=sys.stderr,
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from .core.errors import UnknownScenarioError
    from .core.ledger import LedgerError
    from .core.metrics import MetricsRegistry, collector
    from .core.trace import TraceError

    cache_dir = _cache_dir(args)
    if cache_dir is not None and cache_dir.exists() and not cache_dir.is_dir():
        print(f"{args.command}: cache dir {cache_dir} is not a directory", file=sys.stderr)
        return 2
    # The stderr summaries below read what this command recorded, never
    # process-wide totals.
    command = MetricsRegistry()
    try:
        with collector(command):
            status = _dispatch(args)
    except (UnknownScenarioError, LedgerError, TraceError) as exc:
        # Usage errors, not pipeline failures: an unknown benchmark /
        # workload / machine id anywhere in the command, a ledger
        # (--ledger or REPRO_LEDGER_DIR) that cannot be opened or read,
        # or a malformed journal record.
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    if args.command == "table2":
        _print_cache_summary(command)
    if getattr(args, "verbose", False):
        _print_replay_summary(command)
    return status


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "table1":
        from .analysis.tables import render_table1

        print(render_table1())
        return 0

    if args.command == "table2":
        from .analysis.sensitivity import sensitivity_report
        from .analysis.tables import render_table2
        from .core.registry import benchmark_ids
        from .core.run import Session

        ids = args.benchmarks or sorted(benchmark_ids(table2_only=True))
        chars = []
        # One session for the whole table: one journal, one ledger record.
        with Session(**_engine_kwargs(args)) as session:
            for bid in ids:
                print(f"characterizing {bid} ...", file=sys.stderr)
                chars.append(session.characterize(bid).characterization)
        print(render_table2(chars))
        print()
        print(sensitivity_report(chars))
        return 0

    if args.command == "suite":
        from .analysis.tables import render_table2
        from .core.errors import CellFailure
        from .core.run import Session

        kwargs = _engine_kwargs(args)
        session = Session(
            workers=kwargs["workers"],
            cache=kwargs["cache"],
            timeout=args.timeout,
            retries=args.retries,
            strict=args.strict,
            trace=args.trace,
            ledger=args.ledger,
        )
        try:
            with session:
                result = session.characterize_suite(
                    suite=args.suite,
                    table2_only=not args.all_benchmarks,
                    ids=args.benchmarks or None,
                )
        except CellFailure as failure:
            print(f"aborted (strict): {failure}", file=sys.stderr)
            if args.trace:
                print(f"trace journal: {args.trace}", file=sys.stderr)
            _write_observability(session, args)
            return 1
        print(render_table2(result.characterizations))
        summary = session.summary
        print(
            f"cells: {summary.cells} ({summary.ok} ok, {summary.failed} failed, "
            f"{summary.cache_hits} cached) captures={summary.captures} "
            f"replays={summary.replays} retries={summary.retries} "
            f"timeouts={summary.timeouts} crashes={summary.crashes} "
            f"quarantined={summary.quarantined} in {summary.duration_s:.2f}s",
            file=sys.stderr,
        )
        if result.failures:
            print("failed cells:", file=sys.stderr)
            for failure in result.failures:
                print(f"  {failure}", file=sys.stderr)
        if args.trace:
            print(f"trace journal: {args.trace}", file=sys.stderr)
        _write_observability(session, args)
        return 1 if result.failures else 0

    if args.command == "sweep":
        import json

        from .core.errors import CellFailure
        from .core.run import Session
        from .core.sweep import MachineGrid, SweepRequest

        kwargs = _engine_kwargs(args)
        if args.grid is not None and args.configs:
            print("sweep: pass --grid or --config, not both", file=sys.stderr)
            return 2
        if args.grid is not None:
            if not args.grid.is_file():
                print(f"sweep: no grid file at {args.grid}", file=sys.stderr)
                return 2
            try:
                grid = MachineGrid.from_dict(
                    json.loads(args.grid.read_text(encoding="utf-8"))
                )
            except (ValueError, TypeError, KeyError) as exc:
                print(f"sweep: {args.grid}: bad grid ({exc})", file=sys.stderr)
                return 2
        else:
            names = args.configs or [
                n.strip() for n in args.machines.split(",") if n.strip()
            ]
            try:
                grid = MachineGrid.from_presets(*names)
            except (ValueError, KeyError) as exc:
                print(f"sweep: {exc}", file=sys.stderr)
                return 2
        session = Session(
            workers=kwargs["workers"], cache=kwargs["cache"], trace=args.trace,
            ledger=args.ledger,
        )
        request = SweepRequest(benchmark=args.benchmark, grid=grid)
        try:
            with session:
                result = session.characterize_sweep(request)
        except CellFailure as failure:
            print(f"sweep failed: {failure}", file=sys.stderr)
            return 1
        for name, char in zip(result.config_names, result.characterizations):
            if char is None:
                print(f"{name:<12} (all cells failed)")
                continue
            td = char.topdown
            print(
                f"{name:<12} f={td.mu_g('front_end') * 100:5.1f}% "
                f"b={td.mu_g('back_end') * 100:5.1f}% "
                f"s={td.mu_g('bad_speculation') * 100:5.1f}% "
                f"r={td.mu_g('retiring') * 100:5.1f}% "
                f"refrate={char.refrate_seconds if char.refrate_seconds is not None else float('nan'):.6f}s"
            )
        summary = session.summary
        if summary is not None:
            print(
                f"stages: {summary.captures} captures "
                f"({summary.capture_hits} reused), {summary.replays} replays "
                f"({summary.replay_hits} cached, "
                f"{summary.replays_batched} batched) for {summary.cells} cells "
                f"in {summary.duration_s:.2f}s",
                file=sys.stderr,
            )
        if args.trace:
            print(f"trace journal: {args.trace}", file=sys.stderr)
        return 1 if result.failures else 0

    if args.command == "trace":
        import json

        from .core.trace import (
            export_chrome_trace,
            read_trace,
            render_trace_spans,
            render_trace_summary,
        )

        if not args.path.is_file():
            print(f"trace: no journal at {args.path}", file=sys.stderr)
            return 2
        records = read_trace(args.path)
        if not records:
            print(f"trace: journal {args.path} has no records", file=sys.stderr)
            return 2
        if args.action == "chrome":
            text = json.dumps(export_chrome_trace(records))
            if args.out:
                args.out.write_text(text + "\n", encoding="utf-8")
                print(
                    f"chrome trace: {args.out} (load at https://ui.perfetto.dev)",
                    file=sys.stderr,
                )
            else:
                print(text)
            return 0
        if args.action == "summary" and args.json:
            import json
            from dataclasses import asdict

            from .core.trace import summarize_trace, trace_spans

            data = asdict(summarize_trace(args.path))
            data["failed_cells"] = [
                {
                    "benchmark": sp.benchmark,
                    "workload": sp.workload,
                    "outcome": sp.outcome,
                    "attempts": sp.attempts,
                    "error": sp.error,
                }
                for sp in trace_spans(args.path)
                if not sp.ok
            ]
            print(json.dumps(data, indent=2))
            return 0
        render = render_trace_summary if args.action == "summary" else render_trace_spans
        print(render(args.path))
        return 0

    if args.command == "metrics":
        import json

        from .core.metrics import (
            load_snapshot,
            metrics_table_data,
            render_metrics_table,
            render_prometheus,
        )

        if not args.path.is_file():
            print(f"metrics: no snapshot at {args.path}", file=sys.stderr)
            return 2
        try:
            reg = load_snapshot(args.path)
        except (ValueError, KeyError, TypeError) as exc:
            print(f"metrics: {args.path}: unreadable snapshot ({exc})", file=sys.stderr)
            return 2
        if args.action == "show" and args.json:
            print(json.dumps(metrics_table_data(reg), indent=2))
            return 0
        print(
            render_metrics_table(reg)
            if args.action == "show"
            else render_prometheus(reg)
        )
        return 0

    if args.command == "runs":
        import json

        from .core.ledger import (
            LEDGER_ENV,
            LedgerError,
            RunLedger,
            diff_records,
            render_record,
            render_runs_table,
        )

        root = _ledger_dir(args)
        if root is None:
            print(
                f"runs: no ledger directory (pass --ledger or set {LEDGER_ENV})",
                file=sys.stderr,
            )
            return 2
        ledger = RunLedger(root)
        try:
            if args.action == "list":
                records = ledger.query(
                    benchmark=args.benchmark,
                    outcome=args.outcome,
                    limit=args.limit,
                )
                if args.json:
                    print(
                        json.dumps(
                            [
                                {k: v for k, v in r.items() if k != "metrics"}
                                for r in records
                            ],
                            indent=2,
                        )
                    )
                else:
                    print(render_runs_table(records))
                return 0
            if args.action == "show":
                record = ledger.resolve(args.refs[0] if args.refs else "latest")
                print(
                    json.dumps(record, indent=2)
                    if args.json
                    else render_record(record)
                )
                return 0
            if args.action == "diff":
                if len(args.refs) != 2:
                    print(
                        "runs diff: needs exactly two run references "
                        "(e.g. `repro runs diff prev latest`)",
                        file=sys.stderr,
                    )
                    return 2
                report = diff_records(
                    ledger.resolve(args.refs[0]),
                    ledger.resolve(args.refs[1]),
                    tolerance=args.tolerance,
                )
                if args.json:
                    print(json.dumps(report.to_dict(), indent=2))
                else:
                    print(report.render(verbose=args.all))
                return report.exit_code
            if args.action == "gc":
                removed = ledger.gc(
                    keep=args.keep,
                    max_age_s=(
                        args.max_age_days * 86400.0
                        if args.max_age_days is not None
                        else None
                    ),
                )
                if args.json:
                    print(json.dumps({"removed": removed}))
                else:
                    print(
                        f"runs gc: removed {len(removed)} run(s)"
                        + (": " + ", ".join(removed) if removed else "")
                    )
                return 0
            # pin / unpin
            ref = args.refs[0] if args.refs else "latest"
            run_id = (
                ledger.pin(ref) if args.action == "pin" else ledger.unpin(ref)
            )
            print(f"runs: {args.action}ned {run_id}")
            return 0
        except LedgerError as exc:
            print(f"runs: {exc}", file=sys.stderr)
            return 2

    if args.command == "flame":
        import time as time_mod

        from .core.registry import get_benchmark, refrate_workload
        from .core.resources import StackSampler, render_collapsed, top_frames
        from .machine.batch import replay_capture
        from .machine.capture import capture_execution

        workload = refrate_workload(args.benchmark, args.workload)
        benchmark = get_benchmark(args.benchmark)
        replays = 0
        started = time_mod.perf_counter()
        with StackSampler(hz=args.hz) as sampler:
            capture = capture_execution(benchmark, workload)
            while (
                replays == 0
                or time_mod.perf_counter() - started < args.seconds
            ):
                replay_capture(capture)
                replays += 1
        out = args.out or Path(f"{args.benchmark}.folded")
        out.write_text(render_collapsed(sampler.stacks), encoding="utf-8")
        print(
            f"flame: {args.benchmark}/{workload.name}: {sampler.total_samples} "
            f"samples over 1 capture + {replays} replays -> {out}",
            file=sys.stderr,
        )
        for frame, n in top_frames(sampler.stacks, limit=10):
            share = n / sampler.total_samples * 100.0 if sampler.total_samples else 0.0
            print(f"  {share:5.1f}%  {frame}")
        return 0

    if args.command == "top":
        import time as time_mod

        from .core.trace import read_trace, render_top

        while True:
            records = read_trace(args.path) if args.path.is_file() else []
            if not records:
                if args.once:
                    print(f"top: no records at {args.path}", file=sys.stderr)
                    return 2
            else:
                frame = render_top(records, tail=args.tail)
                if args.once:
                    print(frame)
                    return 0
                # Clear + home, like watch(1); journal re-read each frame.
                print("\x1b[2J\x1b[H" + frame, flush=True)
                if any(r.get("type") == "summary" for r in records):
                    return 0
            time_mod.sleep(args.interval)

    if args.command in ("fig1", "fig2"):
        from .analysis.figures import render_figure1, render_figure2
        from .core.characterize import characterize

        char = characterize(args.benchmark, keep_profiles=True, **_engine_kwargs(args))
        render = render_figure1 if args.command == "fig1" else render_figure2
        print(render(char))
        return 0

    if args.command == "report":
        from .core.characterize import characterize
        from .core.reports import benchmark_report

        print(benchmark_report(characterize(args.benchmark, **_engine_kwargs(args))))
        return 0

    if args.command == "cache":
        from .core.artifacts import ArtifactStore

        store = ArtifactStore(_cache_dir(args))
        if args.action == "wipe":
            n = store.wipe()
            print(f"removed {n} cached artifacts from {store.root}")
        else:
            profiles, captures = store.profiles, store.captures
            modes = profiles.replay_modes()
            print(f"cache dir : {store.root}")
            print("stage: replay (machine-dependent profiles)")
            print(f"  entries : {len(profiles)}")
            print(f"  bytes   : {profiles.total_bytes()}")
            print(f"  corrupt : {profiles.quarantined_entries()} (quarantined *.corrupt)")
            print(
                f"  source  : {modes['batched']} batched, "
                f"{modes['per-config']} per-config, "
                f"{modes['unlabeled']} unlabeled replays"
            )
            for heading, entries in (
                ("stage: capture (machine-independent telemetry)", captures),
                ("stage: set (Alberta set member names)", store.sets),
            ):
                print(heading)
                print(f"  entries : {len(entries)}")
                print(f"  bytes   : {entries.total_bytes()}")
                print(f"  corrupt : {entries.quarantined_entries()} (quarantined *.corrupt)")
        return 0

    if args.command == "generate":
        from .core.registry import get_benchmark, get_generator
        from .machine.profiler import run_benchmark

        generator = get_generator(args.benchmark)
        workload = generator.generate(args.seed)
        profile = run_benchmark(get_benchmark(args.benchmark), workload)
        print(f"workload : {workload.name}")
        print(f"manifest : {workload.manifest()}")
        td = profile.topdown
        print(
            f"profile  : f={td.front_end:.3f} b={td.back_end:.3f} "
            f"s={td.bad_speculation:.3f} r={td.retiring:.3f} "
            f"time={profile.seconds:.6f}s"
        )
        print("verified : yes")
        return 0

    if args.command == "validate":
        from .core.registry import alberta_workloads
        from .core.validation import validate_workload_set

        report = validate_workload_set(alberta_workloads(args.benchmark))
        print(report.summary())
        return 0 if report.ok else 1

    if args.command == "fdo":
        from .fdo import cross_validate, single_workload_methodology

        single = single_workload_methodology(args.benchmark)
        print(f"single train->refrate speedup: {single.speedup:.4f}")
        cv = cross_validate(args.benchmark, max_workloads=args.max_workloads)
        s = cv.summary()
        print(
            f"cross-validated ({s['n']} pairs): mean={s['mean']:.4f} "
            f"range=[{s['min']:.4f}, {s['max']:.4f}] "
            f"regressions={s['n_regressions']}"
        )
        return 0

    if args.command == "export":
        from .analysis.export import export_bundle

        counts = export_bundle(args.out_dir, args.benchmarks or None, **_engine_kwargs(args))
        print(f"wrote {counts['tables']} tables, {counts['reports']} reports, "
              f"{counts['figures']} figures to {args.out_dir}")
        return 0

    if args.command == "list":
        from .core.registry import CAP_IN_TABLE2, REGISTRY

        if args.plugins:
            infos = REGISTRY.plugins()
            if not infos:
                print("no plugins loaded")
                return 0
            for info in infos:
                print(f"plugin {info.name} ({info.source})")
                for ref in info.descriptors:
                    print(f"  {ref}")
            return 0
        for d in REGISTRY.descriptors("benchmark"):
            table2 = "" if CAP_IN_TABLE2 in d.capabilities else "  (no Table II row)"
            origin = "" if d.origin == "builtin" else f"  [{d.origin}]"
            print(f"{d.id:<18} {d.suite or '?'}{table2}{origin}")
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover
