"""Persistent, crash-tolerant run ledger: the cross-run observability store.

A single run's journal (:mod:`repro.core.trace`) answers "what happened
inside this run"; the ledger answers "what changed *between* runs".
Every :class:`~repro.core.run.Session` appends one JSON record at
completion to ``runs.jsonl`` in the ledger directory (opt-in via
``Session(ledger=...)`` or ``REPRO_LEDGER_DIR``), carrying:

* identity — run id, start/finish timestamps, wall duration;
* scope — benchmark ids, registry fingerprints of the scenario set
  (benchmark + machine descriptors), the machine config / sweep grids,
  and any FDO build digests replayed;
* outcome — ``ok`` / ``degraded`` / ``failed`` plus the full stage
  tallies from the run summary (cells, captures, replays, hits,
  retries, quarantined);
* measurements — per-benchmark replay throughput derived from the
  replay counters, and the complete lossless
  :meth:`~repro.core.metrics.MetricsRegistry.to_dict` snapshot.

Durability model: records are appended with a single ``O_APPEND``
``os.write`` — concurrent Sessions sharing one ledger directory never
interleave bytes on a local filesystem, and a crash mid-append leaves
at most one torn tail line, which the reader skips.  A compact
``index.jsonl`` (one small line per run) makes listing cheap without
parsing full metric snapshots; it is self-healing — any disagreement
with ``runs.jsonl`` triggers a rebuild — so it can always be deleted.
``pins.json`` holds run ids that :meth:`RunLedger.gc` must never
delete; GC also always protects the N most recent runs and rewrites
files atomically (``tmp`` + ``os.replace``).

Diffing (``repro runs diff A B``) compares two records
metric-by-metric under per-family *tolerance classes*:

* **exact** — deterministic work counters (cells, emitted/replayed
  events).  Any difference is a finding.  Series are
  aggregated over the ``cache`` label first, so a warm run and a cold
  run of the same scenario set agree on totals.
* **timing** — wall-clock and throughput measurements (stage/cell
  seconds, replay ns, eps, stage CPU seconds, derived per-benchmark
  throughput).  One-sided: a B that is faster than A is never a
  finding; a slower B is one once it exceeds both the family's noise
  floor and a relative tolerance (default 25%).  Faster means higher
  for eps and lower for every seconds or ns family.
* **info** — everything else (cache/worker/RSS/sampling internals):
  recorded, never diffed.

This makes ``repro runs diff`` the project's perf-regression check;
its timing families cover every stage of a pass.  The derived
throughput honors ``REPRO_INJECT_SLOWDOWN=<factor>`` (measured eps
divided by the factor), the test hook that proves the diff flags a
slowed run without a genuinely slow machine.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from .errors import ReproError

__all__ = [
    "LEDGER_ENV",
    "LEDGER_SCHEMA",
    "LedgerError",
    "RunLedger",
    "build_record",
    "classify_metric",
    "diff_records",
    "DiffEntry",
    "DiffReport",
    "render_record",
    "render_runs_table",
]

#: Default ledger directory for every Session when set in the environment.
LEDGER_ENV = "REPRO_LEDGER_DIR"

LEDGER_SCHEMA = 1

#: Test hook: recorded throughput is divided by this factor, so an
#: injected run is visibly slower in the ledger without a slow machine.
_INJECT_ENV = "REPRO_INJECT_SLOWDOWN"

_RUNS_FILE = "runs.jsonl"
_INDEX_FILE = "index.jsonl"
_PINS_FILE = "pins.json"

#: Deterministic work counters: any cross-run difference is a finding.
EXACT_FAMILIES = frozenset(
    {
        "repro_cells_total",
        "repro_events_emitted_total",
        "repro_replay_events_total",
    }
)

#: Wall-clock / throughput measurements: only a slower B beyond the noise
#: floor and the relative tolerance is a finding.
TIMING_FAMILIES = frozenset(
    {
        "repro_stage_seconds",
        "repro_cell_seconds",
        "repro_replay_ns_total",
        "repro_replay_eps",
        "repro_stage_cpu_seconds",
    }
)

#: Timing series in which the faster run reads higher; every other
#: timing family is seconds or ns, where the faster run reads lower.
_HIGHER_IS_FASTER = frozenset({"throughput.eps", "repro_replay_eps"})

#: Labels aggregated away before exact comparison: a warm and a cold run
#: disagree per cache state but must agree on totals; worker pids are
#: never stable across runs.
_AGGREGATE_LABELS = frozenset({"cache", "worker"})

#: Absolute noise floor per timing family: differences at or below the
#: floor are never findings, however large in relative terms — a 30µs
#: generate stage doubling is scheduler jitter, not a regression.
_TIMING_FLOORS = {
    "repro_stage_seconds": 0.01,
    "repro_cell_seconds": 0.01,
    "repro_stage_cpu_seconds": 0.01,
    "repro_replay_ns_total": 1e7,  # 10ms, same floor in ns
}


class LedgerError(ReproError):
    """Unusable ledger directory, record, or run reference."""


def classify_metric(family: str) -> str:
    """Tolerance class for one metric family: exact | timing | info."""
    if family in EXACT_FAMILIES:
        return "exact"
    if family in TIMING_FAMILIES:
        return "timing"
    return "info"


def _injected_slowdown() -> float:
    raw = os.environ.get(_INJECT_ENV, "").strip()
    try:
        factor = float(raw) if raw else 1.0
    except ValueError:
        return 1.0
    return factor if factor > 0 else 1.0


def _counter_by_benchmark(snapshot: Mapping[str, Any], family: str) -> dict[str, float]:
    """Sum a counter family's series per ``benchmark`` label value."""
    fam = (snapshot.get("metrics") or {}).get(family)
    out: dict[str, float] = {}
    if not fam or "benchmark" not in fam.get("labels", ()):
        return out
    idx = list(fam["labels"]).index("benchmark")
    for s in fam.get("series", ()):
        bench = s["labels"][idx]
        out[bench] = out.get(bench, 0.0) + float(s.get("value", 0.0))
    return out


def derive_throughput(snapshot: Mapping[str, Any]) -> dict[str, dict[str, float]]:
    """Per-benchmark replay throughput from the metrics snapshot.

    ``{bench: {"events", "ns", "eps"}}``; eps is divided by any injected
    slowdown so the record reflects the (possibly simulated) speed the
    run actually achieved.
    """
    events = _counter_by_benchmark(snapshot, "repro_replay_events_total")
    ns = _counter_by_benchmark(snapshot, "repro_replay_ns_total")
    slowdown = _injected_slowdown()
    out: dict[str, dict[str, float]] = {}
    for bench, ev in sorted(events.items()):
        n = ns.get(bench, 0.0)
        out[bench] = {
            "events": ev,
            "ns": n * slowdown,
            "eps": (ev / (n / 1e9)) / slowdown if n else 0.0,
        }
    return out


def build_record(
    *,
    run_id: str,
    started_at: float,
    finished_at: float,
    summary: Mapping[str, Any],
    metrics_snapshot: Mapping[str, Any],
    benchmarks: Sequence[str] = (),
    machine: Any = None,
    grids: Sequence[str] = (),
    scenarios: Mapping[str, str] | None = None,
    builds: Mapping[str, str] | None = None,
    trace_path: str | None = None,
) -> dict[str, Any]:
    """Assemble one schema-1 ledger record from a finished run's state.

    ``summary`` is a :class:`~repro.core.trace.RunSummary` dict (its
    ``type``/``duration_s`` bookkeeping keys are dropped); the outcome
    is derived from it: every cell failed → ``failed``, any failure or
    quarantine → ``degraded``, else ``ok``.
    """
    counts = {
        k: v for k, v in summary.items() if k not in ("type", "duration_s")
    }
    cells = int(counts.get("cells", 0))
    ok = int(counts.get("ok", 0))
    failed = int(counts.get("failed", 0))
    quarantined = int(counts.get("quarantined", 0))
    if cells and ok == 0:
        outcome = "failed"
    elif failed or quarantined:
        outcome = "degraded"
    else:
        outcome = "ok"
    return {
        "schema": LEDGER_SCHEMA,
        "run_id": str(run_id),
        "started_at": float(started_at),
        "finished_at": float(finished_at),
        "duration_s": max(0.0, float(finished_at) - float(started_at)),
        "outcome": outcome,
        "benchmarks": sorted(set(benchmarks)),
        "machine": machine,
        "grids": sorted(set(grids)),
        "scenarios": dict(scenarios or {}),
        "builds": dict(builds or {}),
        "counts": counts,
        "throughput": derive_throughput(metrics_snapshot),
        "trace_path": trace_path,
        "metrics": dict(metrics_snapshot),
    }


def _index_entry(record: Mapping[str, Any]) -> dict[str, Any]:
    return {
        "run_id": record["run_id"],
        "started_at": record["started_at"],
        "duration_s": record["duration_s"],
        "outcome": record["outcome"],
        "benchmarks": record.get("benchmarks", []),
        "cells": (record.get("counts") or {}).get("cells", 0),
    }


def _read_jsonl(path: Path) -> list[dict[str, Any]]:
    """Every decodable object line; torn/corrupt lines are skipped.

    Crash-mid-append leaves a partial final line; a reader racing a
    writer can see the same thing.  Either way the damage is confined
    to lines that fail to parse — complete records always survive.
    """
    try:
        raw = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return []
    out: list[dict[str, Any]] = []
    for line in raw.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict):
            out.append(obj)
    return out


def _append_line(path: Path, obj: Mapping[str, Any]) -> None:
    """Append one JSON line with a single ``O_APPEND`` write.

    If a previous writer crashed mid-append the file can end on a torn
    line with no newline; writing straight after it would weld the new
    record onto the garbage and lose both.  Prefixing a newline in that
    case sacrifices only the already-torn tail.
    """
    data = (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()
    try:
        with open(path, "rb") as fh:
            fh.seek(0, os.SEEK_END)
            if fh.tell():
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    data = b"\n" + data
    except FileNotFoundError:
        pass
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, data)
    finally:
        os.close(fd)


def _rewrite_jsonl(path: Path, objs: Iterable[Mapping[str, Any]]) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
    os.replace(tmp, path)


class RunLedger:
    """Append-only run history in one directory (see module docstring)."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / _RUNS_FILE
        self.index_path = self.root / _INDEX_FILE
        self.pins_path = self.root / _PINS_FILE

    # ---------------------------------------------------------- writing

    def append(self, record: Mapping[str, Any]) -> dict[str, Any]:
        """Durably append one record; returns its compact index entry."""
        if record.get("schema") != LEDGER_SCHEMA:
            raise LedgerError(
                f"ledger record schema {record.get('schema')!r} != {LEDGER_SCHEMA}"
            )
        if not record.get("run_id"):
            raise LedgerError("ledger record has no run_id")
        _append_line(self.path, record)
        entry = _index_entry(record)
        _append_line(self.index_path, entry)
        return entry

    # ---------------------------------------------------------- reading

    def records(self) -> list[dict[str, Any]]:
        """Full records in append order (oldest first)."""
        return [r for r in _read_jsonl(self.path) if r.get("run_id")]

    def index(self) -> list[dict[str, Any]]:
        """Compact per-run entries; rebuilt whenever stale or damaged."""
        entries = [e for e in _read_jsonl(self.index_path) if e.get("run_id")]
        records = self.records()
        if [e["run_id"] for e in entries] != [r["run_id"] for r in records]:
            entries = [_index_entry(r) for r in records]
            if records or self.index_path.exists():
                _rewrite_jsonl(self.index_path, entries)
        return entries

    def get(self, run_id: str) -> dict[str, Any]:
        for record in self.records():
            if record["run_id"] == run_id:
                return record
        raise LedgerError(f"run {run_id!r} not in ledger {self.root}")

    def resolve(self, ref: str) -> dict[str, Any]:
        """A record by reference: ``latest``, ``prev``, id, or unique prefix."""
        records = self.records()
        if not records:
            raise LedgerError(f"ledger {self.root} is empty")
        if ref == "latest":
            return records[-1]
        if ref == "prev":
            if len(records) < 2:
                raise LedgerError(f"ledger {self.root} has no previous run")
            return records[-2]
        matches = [r for r in records if r["run_id"].startswith(ref)]
        exact = [r for r in matches if r["run_id"] == ref]
        if exact:
            return exact[-1]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise LedgerError(f"run {ref!r} not in ledger {self.root}")
        raise LedgerError(
            f"run prefix {ref!r} is ambiguous: "
            + ", ".join(r["run_id"] for r in matches)
        )

    def query(
        self,
        *,
        benchmark: str | None = None,
        outcome: str | None = None,
        since: float | None = None,
        until: float | None = None,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """Filtered records, oldest first; ``limit`` keeps the newest N."""
        out = []
        for record in self.records():
            if benchmark is not None and benchmark not in record.get("benchmarks", []):
                continue
            if outcome is not None and record.get("outcome") != outcome:
                continue
            started = record.get("started_at", 0.0)
            if since is not None and started < since:
                continue
            if until is not None and started > until:
                continue
            out.append(record)
        if limit is not None and limit >= 0:
            out = out[len(out) - min(limit, len(out)):]
        return out

    # ------------------------------------------------------------- pins

    def pins(self) -> set[str]:
        try:
            raw = json.loads(self.pins_path.read_text(encoding="utf-8"))
        except (FileNotFoundError, ValueError):
            return set()
        return {str(r) for r in raw} if isinstance(raw, list) else set()

    def _write_pins(self, pins: set[str]) -> None:
        tmp = self.pins_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(sorted(pins)) + "\n", encoding="utf-8")
        os.replace(tmp, self.pins_path)

    def pin(self, ref: str) -> str:
        """Protect one run from GC; returns the resolved run id."""
        run_id = self.resolve(ref)["run_id"]
        self._write_pins(self.pins() | {run_id})
        return run_id

    def unpin(self, ref: str) -> str:
        run_id = self.resolve(ref)["run_id"]
        self._write_pins(self.pins() - {run_id})
        return run_id

    # --------------------------------------------------------- retention

    def gc(
        self,
        *,
        keep: int = 10,
        max_age_s: float | None = None,
        now: float | None = None,
    ) -> list[str]:
        """Drop expendable runs; returns the removed run ids.

        Never removes a pinned run or any of the ``keep`` most recent.
        With ``max_age_s`` set, unprotected runs are removed only once
        older than that; without it every unprotected run goes.  The
        survivors are rewritten atomically (tmp + ``os.replace``) —
        don't run GC concurrently with a live appender.
        """
        if keep < 0:
            raise LedgerError(f"gc: keep must be >= 0, got {keep}")
        records = self.records()
        pinned = self.pins()
        now = time.time() if now is None else now
        protected = {r["run_id"] for r in records[len(records) - keep:]} if keep else set()
        survivors, removed = [], []
        for record in records:
            rid = record["run_id"]
            old_enough = (
                max_age_s is None
                or now - record.get("started_at", now) > max_age_s
            )
            if rid in pinned or rid in protected or not old_enough:
                survivors.append(record)
            else:
                removed.append(rid)
        if removed:
            _rewrite_jsonl(self.path, survivors)
            _rewrite_jsonl(self.index_path, [_index_entry(r) for r in survivors])
        return removed


# -------------------------------------------------------------- diffing


@dataclass(frozen=True)
class DiffEntry:
    """One compared series: a metric family under one label set."""

    metric: str
    labels: str
    cls: str  # "exact" | "timing"
    a: float
    b: float
    ok: bool

    @property
    def ratio(self) -> float:
        """b/a where defined; 0 when a is 0 and b isn't."""
        if self.a == 0.0:
            return 1.0 if self.b == 0.0 else 0.0
        return self.b / self.a

    def to_dict(self) -> dict[str, Any]:
        return {
            "metric": self.metric,
            "labels": self.labels,
            "class": self.cls,
            "a": self.a,
            "b": self.b,
            "ratio": self.ratio,
            "ok": self.ok,
        }


@dataclass
class DiffReport:
    """Everything ``repro runs diff A B`` decided."""

    run_a: str
    run_b: str
    tolerance: float
    entries: list[DiffEntry] = field(default_factory=list)
    ignored: int = 0

    @property
    def out_of_tolerance(self) -> list[DiffEntry]:
        return [e for e in self.entries if not e.ok]

    @property
    def ok(self) -> bool:
        return not self.out_of_tolerance

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "run_a": self.run_a,
            "run_b": self.run_b,
            "tolerance": self.tolerance,
            "compared": len(self.entries),
            "ignored": self.ignored,
            "out_of_tolerance": len(self.out_of_tolerance),
            "ok": self.ok,
            "entries": [e.to_dict() for e in self.entries],
        }

    def render(self, *, verbose: bool = False) -> str:
        lines = [
            f"runs diff: {self.run_a} -> {self.run_b} "
            f"(timing tolerance {self.tolerance:.0%}, slower B only)"
        ]
        shown = self.entries if verbose else self.out_of_tolerance
        if shown:
            lines.append(
                f"  {'class':<7} {'metric':<28} {'labels':<34} "
                f"{'A':>14} {'B':>14} {'ratio':>7}"
            )
        for e in shown:
            flag = "ok" if e.ok else ("MISMATCH" if e.cls == "exact" else "OUT-OF-TOL")
            lines.append(
                f"  {e.cls:<7} {e.metric:<28} {e.labels:<34} "
                f"{e.a:>14,.6g} {e.b:>14,.6g} {e.ratio:>6.2f}x  {flag}"
            )
        n_out = len(self.out_of_tolerance)
        lines.append(
            f"runs diff: {len(self.entries)} series compared, "
            f"{self.ignored} info series ignored, "
            + (f"{n_out} OUT OF TOLERANCE" if n_out else "all within tolerance")
        )
        return "\n".join(lines)


def _diff_series(record: Mapping[str, Any]) -> dict[tuple[str, str, str], float]:
    """Flatten one record into comparable ``(cls, metric, labels) → value``.

    Covers the derived throughput block plus every exact/timing metric
    family in the snapshot (counters/gauges by value, histograms by
    mean), with :data:`_AGGREGATE_LABELS` summed away for exact
    counters.  Returns ``{(cls, metric, labels): value}``.
    """
    out: dict[tuple[str, str, str], float] = {}
    for bench, t in (record.get("throughput") or {}).items():
        if t.get("eps"):
            out[("timing", "throughput.eps", bench)] = float(t["eps"])
    counts = record.get("counts") or {}
    for key in ("cells", "ok", "failed", "captures"):
        if key in counts:
            out[("exact", f"counts.{key}", "-")] = float(counts[key])
    for family, fam in ((record.get("metrics") or {}).get("metrics") or {}).items():
        cls = classify_metric(family)
        if cls == "info":
            continue
        labels = list(fam.get("labels", ()))
        keep = [i for i, name in enumerate(labels) if name not in _AGGREGATE_LABELS]
        for s in fam.get("series", ()):
            key_labels = ",".join(
                f"{labels[i]}={s['labels'][i]}" for i in keep
            ) or "-"
            if "value" in s:
                value = float(s["value"])
            else:
                value = float(s["sum"]) / s["count"] if s.get("count") else 0.0
            k = (cls, family, key_labels)
            if cls == "exact":
                out[k] = out.get(k, 0.0) + value
            else:
                # Aggregated timing series would average badly; last wins
                # is fine because timing families keep their full labels.
                out[k] = value
    return out


def _count_info(record: Mapping[str, Any]) -> int:
    n = 0
    for family, fam in ((record.get("metrics") or {}).get("metrics") or {}).items():
        if classify_metric(family) == "info":
            n += len(fam.get("series", ()))
    return n


def diff_records(
    a: Mapping[str, Any],
    b: Mapping[str, Any],
    *,
    tolerance: float = 0.25,
) -> DiffReport:
    """Compare two ledger records metric-by-metric (see module docstring).

    Exact series must match to the digit.  A timing series is a finding
    only when B is the slower run by more than the family's noise floor
    and by more than ``tolerance`` relative difference
    (``|a-b| / max(a, b)``).  A series present on only one side is a
    finding in its class.
    """
    if not 0.0 <= tolerance < 1.0:
        raise LedgerError(f"diff: tolerance {tolerance} must be in [0, 1)")
    report = DiffReport(
        run_a=str(a.get("run_id")), run_b=str(b.get("run_id")), tolerance=tolerance
    )
    sa, sb = _diff_series(a), _diff_series(b)
    for key in sorted(set(sa) | set(sb)):
        cls, metric, labels = key
        va, vb = sa.get(key), sb.get(key)
        if va is None or vb is None:
            report.entries.append(
                DiffEntry(metric, labels, cls, va or 0.0, vb or 0.0, ok=False)
            )
            continue
        if cls == "exact":
            ok = va == vb
        else:
            slower = vb < va if metric in _HIGHER_IS_FASTER else vb > va
            ok = (
                not slower
                or abs(va - vb) <= _TIMING_FLOORS.get(metric, 0.0)
                or abs(va - vb) / max(abs(va), abs(vb)) <= tolerance
            )
        report.entries.append(DiffEntry(metric, labels, cls, va, vb, ok=ok))
    report.ignored = max(_count_info(a), _count_info(b))
    return report


# ------------------------------------------------------------ rendering


def render_runs_table(entries: Sequence[Mapping[str, Any]]) -> str:
    """The ``repro runs list`` table (newest last), from index entries."""
    if not entries:
        return "ledger: no recorded runs"
    lines = [
        f"  {'run id':<24} {'recorded (UTC)':<20} {'outcome':<9} "
        f"{'cells':>5} {'dur s':>8}  benchmarks"
    ]
    for e in entries:
        stamp = time.strftime(
            "%Y-%m-%d %H:%M:%S", time.gmtime(e.get("started_at", 0.0))
        )
        benches = ",".join(e.get("benchmarks", [])) or "-"
        if len(benches) > 40:
            benches = benches[:37] + "..."
        # Accepts index entries (flat ``cells``) and full records
        # (``cells`` under ``counts``) interchangeably.
        cells = e.get("cells", (e.get("counts") or {}).get("cells", 0))
        lines.append(
            f"  {e['run_id']:<24} {stamp:<20} {e.get('outcome', '?'):<9} "
            f"{cells:>5} {e.get('duration_s', 0.0):>8.2f}  {benches}"
        )
    return "\n".join(lines)


def render_record(record: Mapping[str, Any]) -> str:
    """The ``repro runs show`` detail view for one record."""
    counts = record.get("counts") or {}
    lines = [
        f"run {record['run_id']}  [{record.get('outcome', '?')}]",
        "  recorded: "
        + time.strftime(
            "%Y-%m-%d %H:%M:%S UTC", time.gmtime(record.get("started_at", 0.0))
        )
        + f"  duration {record.get('duration_s', 0.0):.2f}s",
        f"  benchmarks: {', '.join(record.get('benchmarks', [])) or '-'}",
    ]
    if record.get("grids"):
        lines.append(f"  grids: {', '.join(record['grids'])}")
    if record.get("builds"):
        lines.append(
            "  builds: "
            + ", ".join(f"{k}={v[:12]}" for k, v in sorted(record["builds"].items()))
        )
    if record.get("scenarios"):
        lines.append(
            "  scenarios: "
            + ", ".join(
                f"{k}={v[:12]}" for k, v in sorted(record["scenarios"].items())
            )
        )
    lines.append(
        "  cells: "
        + " ".join(
            f"{k}={counts[k]}"
            for k in (
                "cells", "ok", "failed", "retries", "captures",
                "capture_hits", "replays", "replay_hits", "quarantined",
            )
            if k in counts
        )
    )
    throughput = record.get("throughput") or {}
    for bench, t in sorted(throughput.items()):
        if t.get("eps"):
            lines.append(
                f"  replay {bench}: {t['events']:,.0f} events, "
                f"{t['eps'] / 1e6:.1f}M ev/s"
            )
    if record.get("trace_path"):
        lines.append(f"  trace: {record['trace_path']}")
    return "\n".join(lines)
