"""Structured run tracing for the characterization engine.

Every engine run can emit a JSONL *journal*: one record per matrix cell
(a :class:`CellSpan`) plus a terminal :class:`RunSummary`, giving a
per-run provenance record of what executed, what came from the cache,
how many attempts each cell took, and how long everything ran.

Journal format (one JSON object per line, append-only, flushed per
record so a crashed run leaves a readable prefix):

* ``{"type": "run_start", "run_id": ..., "version": ..., "workers": ...,
  "cache": bool, "strict": ..., "timeout": ..., "retries": ...,
  "started_at": <unix seconds>}``
* ``{"type": "span", "benchmark": ..., "workload": ..., "cache":
  "hit"|"miss"|"off", "attempts": int, "duration_s": float, "outcome":
  "ok"|"failed"|"timeout"|"crashed", "error": str|null, "capture":
  "hit"|"run"|"-", "replay": "hit"|"run"|"-", "build": str|null,
  "span_id": ..., "parent_id": ..., "start_s": float}`` —
  one per cell, in matrix order.  ``duration_s`` is parent-observed
  wall time (submission to completion), so concurrent cells overlap.
  ``capture`` and ``replay`` record the stage-level story behind the
  cell-level ``cache`` field: ``capture="run"`` means the benchmark
  actually executed, ``capture="hit"`` means a stored telemetry stream
  was reused, ``"-"`` means the stage never ran (e.g. a whole-profile
  cache hit skips both stages; ``replay="hit"`` reports it).  ``build``
  names a non-baseline replay transformation (e.g. ``"fdo"``).
* ``{"type": "stage", "name": "generate"|"capture"|"replay"|
  "summarize", "benchmark": ..., "workload": ..., "start_s": ...,
  "duration_s": ..., "span_id": ..., "parent_id": ...}`` — the
  stage-level children of a cell span (or of the run root, for
  ``summarize``).  ``span_id``/``parent_id`` link the records into a
  tree — run (``parent_id=""``, id :data:`RUN_SPAN_ID`) → cell →
  stage — and ``start_s`` is seconds since the run started, so the
  tree renders on a timeline: see :func:`export_chrome_trace`, whose
  output loads in Perfetto / ``chrome://tracing``.
* ``{"type": "summary", "cells": ..., "ok": ..., "failed": ...,
  "cache_hits": ..., "cache_misses": ..., "retries": ...,
  "timeouts": ..., "crashes": ..., "quarantined": ...,
  "captures": ..., "capture_hits": ..., "replays": ...,
  "replay_hits": ..., "duration_s": ...}`` — ``captures`` is the
  number of real benchmark executions in the run; a machine sweep that
  reuses one captured stream across N configs reports ``captures=1,
  replays=N``.

The summary is derived from the spans alone and records nothing of
its own; counts a run records live in the metrics registry
(:mod:`repro.core.metrics`).  ``repro trace summary|show PATH`` render
a journal from the CLI.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import IO, Any, Iterable

from . import metrics
from .errors import ReproError

__all__ = [
    "TraceError",
    "CellSpan",
    "StageSpan",
    "RunSummary",
    "TraceWriter",
    "read_trace",
    "trace_spans",
    "trace_stages",
    "summarize_trace",
    "render_trace_summary",
    "render_trace_spans",
    "export_chrome_trace",
    "render_top",
    "RUN_SPAN_ID",
    "STAGE_NAMES",
]


class TraceError(ReproError):
    """A journal record of a known type that lacks a member or has one of
    the wrong type."""

    @classmethod
    def malformed(cls, kind: str, exc: Exception) -> "TraceError":
        return cls(f"malformed {kind} record ({type(exc).__name__}: {exc})")


#: Span outcomes that count as failures in summaries.
FAILURE_OUTCOMES = ("failed", "timeout", "crashed")

#: The id of the run-root span; every cell span's ``parent_id``.
RUN_SPAN_ID = "run"

#: Process-wide run serial; disambiguates same-millisecond Sessions.
_RUN_SERIAL = itertools.count(1)

#: Stage names in pipeline order (``summarize`` parents to the run root).
STAGE_NAMES = ("generate", "capture", "replay", "summarize")


def _record_fields(record: Any) -> dict[str, Any]:
    """A record's fields in order: ``asdict`` without its recursive deep
    copy, which a sweep pass would pay on thousands of spans."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


@dataclass(frozen=True)
class CellSpan:
    """The trace record for one (benchmark, workload) matrix cell.

    ``cache`` keeps its original cell-level meaning (did the finished
    profile come from the cache); ``capture``/``replay`` break the
    miss down by stage.  Pre-stage journals decode with both set to
    ``"-"`` (unknown), never a fabricated value.
    """

    benchmark: str
    workload: str
    cache: str  # "hit" | "miss" | "off"
    attempts: int
    duration_s: float
    outcome: str  # "ok" | "failed" | "timeout" | "crashed"
    error: str | None = None
    capture: str = "-"  # "hit" | "run" | "-"
    replay: str = "-"  # "hit" | "run" | "-"
    build: str | None = None
    span_id: str = ""
    parent_id: str = ""
    start_s: float = 0.0  # seconds since run start (0.0 in pre-tree journals)
    batched: bool = False  # replay="run" shared a one-pass multi-config kernel

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"

    def to_dict(self) -> dict[str, Any]:
        return {"type": "span", **_record_fields(self)}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CellSpan":
        """Decode a span record; raises :class:`TraceError` when malformed."""
        try:
            return cls(
                benchmark=data["benchmark"],
                workload=data["workload"],
                cache=data.get("cache", "off"),
                attempts=int(data.get("attempts", 1)),
                duration_s=float(data.get("duration_s", 0.0)),
                outcome=data.get("outcome", "ok"),
                error=data.get("error"),
                capture=data.get("capture", "-"),
                replay=data.get("replay", "-"),
                build=data.get("build"),
                span_id=data.get("span_id", ""),
                parent_id=data.get("parent_id", ""),
                start_s=float(data.get("start_s", 0.0)),
                batched=bool(data.get("batched", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError.malformed("span", exc) from exc


@dataclass(frozen=True)
class StageSpan:
    """A pipeline-stage child of a cell span (or of the run root).

    ``name`` is one of :data:`STAGE_NAMES`; ``start_s`` is seconds since
    the run started, so stages nest on the same timeline as their
    parent :class:`CellSpan`.
    """

    name: str  # "generate" | "capture" | "replay" | "summarize"
    benchmark: str
    workload: str
    start_s: float
    duration_s: float
    span_id: str = ""
    parent_id: str = ""
    #: Resource attribution for the stage (``cpu_user_s``/``cpu_sys_s``/
    #: ``max_rss_kb``, optional ``samples``/``replay_events``/
    #: ``replay_ns`` — see :mod:`repro.core.resources`).  ``None`` in
    #: pre-resource journals and for stages nobody measured.
    resources: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        data = {"type": "stage", **_record_fields(self)}
        if self.resources is None:
            del data["resources"]  # keep pre-resource journals byte-stable
        else:
            data["resources"] = dict(self.resources)
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "StageSpan":
        """Decode a stage record; raises :class:`TraceError` when malformed."""
        res = data.get("resources")
        try:
            return cls(
                name=data["name"],
                benchmark=data.get("benchmark", "-"),
                workload=data.get("workload", "-"),
                start_s=float(data.get("start_s", 0.0)),
                duration_s=float(data.get("duration_s", 0.0)),
                span_id=data.get("span_id", ""),
                parent_id=data.get("parent_id", ""),
                resources=dict(res) if isinstance(res, dict) else None,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError.malformed("stage", exc) from exc


@dataclass(frozen=True)
class RunSummary:
    """Aggregate tallies over one engine run's spans."""

    cells: int = 0
    ok: int = 0
    failed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    quarantined: int = 0
    duration_s: float = 0.0
    #: Benchmark executions (spans with capture="run") — the expensive part.
    captures: int = 0
    #: Spans served from a stored telemetry stream (capture="hit").
    capture_hits: int = 0
    #: Cost-model replays actually computed (replay="run").
    replays: int = 0
    #: Replays skipped because the finished profile was cached (replay="hit").
    replay_hits: int = 0
    #: Computed replays served by a one-pass multi-config kernel (subset).
    replays_batched: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {"type": "summary", **_record_fields(self)}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunSummary":
        """Decode a summary record, ignoring keys this version lacks.

        Journals and ledger records outlive the fields they were written
        with, so a retired counter in an old record is dropped rather
        than failing the read.  A kept member of the wrong type raises
        :class:`TraceError`: counts must be integers, ``duration_s`` a
        number (booleans are neither).
        """
        kept = {}
        for f in fields(cls):
            if f.name not in data:
                continue
            v = data[f.name]
            want = (int, float) if isinstance(f.default, float) else int
            if isinstance(v, bool) or not isinstance(v, want):
                raise TraceError(
                    f"malformed summary record ({f.name} is {type(v).__name__})"
                )
            kept[f.name] = v
        return cls(**kept)

    @classmethod
    def from_spans(
        cls,
        spans: Iterable[CellSpan],
        *,
        quarantined: int = 0,
        duration_s: float | None = None,
    ) -> "RunSummary":
        """Recompute a summary from spans (e.g. a truncated journal)."""
        cells = ok = failed = hits = misses = retries = timeouts = crashes = 0
        captures = capture_hits = replays = replay_hits = replays_batched = 0
        busy = 0.0
        for span in spans:
            cells += 1
            busy += span.duration_s
            if span.ok:
                ok += 1
            else:
                failed += 1
            if span.cache == "hit":
                hits += 1
            elif span.cache == "miss":
                misses += 1
            if span.capture == "run":
                captures += 1
            elif span.capture == "hit":
                capture_hits += 1
            if span.replay == "run":
                replays += 1
                if span.batched:
                    replays_batched += 1
            elif span.replay == "hit":
                replay_hits += 1
            retries += max(0, span.attempts - 1)
            if span.outcome == "timeout":
                timeouts += 1
            elif span.outcome == "crashed":
                crashes += 1
        return cls(
            cells=cells,
            ok=ok,
            failed=failed,
            cache_hits=hits,
            cache_misses=misses,
            retries=retries,
            timeouts=timeouts,
            crashes=crashes,
            quarantined=quarantined,
            duration_s=busy if duration_s is None else duration_s,
            captures=captures,
            capture_hits=capture_hits,
            replays=replays,
            replay_hits=replay_hits,
            replays_batched=replays_batched,
        )


class TraceWriter:
    """Accumulates spans for the run summary, optionally on disk.

    ``path=None`` makes a tally-only writer: the engine always routes
    spans through one of these so the run summary stays accurate
    whether or not a journal was requested.  Records are flushed
    line-by-line, so a killed run leaves a parsable journal
    (``summarize_trace`` recomputes the summary from the spans).
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._fh: IO[str] | None = None
        self._spans: list[CellSpan] = []
        self._stages: list[StageSpan] = []
        self._records: list[dict[str, Any]] = []
        self._quarantined = 0
        self._started = time.perf_counter()
        self._next_id = 0
        #: Id of this run's root span; cell spans parent to it.
        self.run_span_id = RUN_SPAN_ID
        self.summary: RunSummary | None = None
        #: Set by :meth:`start`; the ledger keys records by this id.
        self.run_id: str | None = None
        self.started_at: float | None = None

    # ------------------------------------------------------------ span tree

    def next_span_id(self) -> str:
        """Allocate a journal-unique span id (``"s1"``, ``"s2"``, ...)."""
        self._next_id += 1
        return f"s{self._next_id}"

    def now(self) -> float:
        """Seconds since the run started (the journal's timeline)."""
        return time.perf_counter() - self._started

    def rel(self, t_perf: float) -> float:
        """Map a ``time.perf_counter()`` stamp onto the run timeline."""
        return t_perf - self._started

    # ------------------------------------------------------------ lifecycle

    def start(self, meta: dict[str, Any] | None = None) -> None:
        """Begin the journal with a ``run_start`` record."""
        self._started = time.perf_counter()
        # ms timestamp + pid + process-wide serial: unique across
        # machines-in-practice, processes, and same-millisecond Sessions
        # inside one process (concurrent writers to a shared ledger).
        serial = next(_RUN_SERIAL)
        self.run_id = f"{int(time.time() * 1000):x}-{os.getpid()}-{serial}"
        self.started_at = time.time()
        record = {
            "type": "run_start",
            "run_id": self.run_id,
            "started_at": self.started_at,
            **(meta or {}),
        }
        self._write(record)

    def span(self, span: CellSpan) -> None:
        """Record one completed cell."""
        self._spans.append(span)
        self._write(span.to_dict())

    def stage(self, span: StageSpan) -> None:
        """Record one pipeline-stage child span."""
        self._stages.append(span)
        self._write(span.to_dict())

    def quarantine(self, n: int = 1) -> None:
        """Note cache entries quarantined during this run."""
        self._quarantined += n

    def finish(self) -> RunSummary:
        """Write the summary record and return it (idempotent)."""
        if self.summary is None:
            self.summary = RunSummary.from_spans(
                self._spans,
                quarantined=self._quarantined,
                duration_s=time.perf_counter() - self._started,
            )
            self._write(self.summary.to_dict())
            metrics.inc(metrics.RUNS_TOTAL)
        return self.summary

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.finish()
        self.close()

    # ------------------------------------------------------------ plumbing

    @property
    def spans(self) -> list[CellSpan]:
        return list(self._spans)

    @property
    def stages(self) -> list[StageSpan]:
        return list(self._stages)

    @property
    def records(self) -> list[dict[str, Any]]:
        """Every record written so far (kept even when ``path=None``)."""
        return list(self._records)

    def _write(self, record: dict[str, Any]) -> None:
        self._records.append(record)
        if self.path is None:
            return
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("w", encoding="utf-8")
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._fh.flush()


# ------------------------------------------------------------------ readers


def read_trace(path: str | Path) -> list[dict[str, Any]]:
    """Parse a journal into raw records, skipping lines that are JSON but
    not objects.  The first line that is not UTF-8 JSON ends the
    journal: it is the truncated final line of a killed run, or damage."""
    records: list[dict[str, Any]] = []
    with Path(path).open("rb") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except ValueError:  # includes UnicodeDecodeError
                break
            if isinstance(record, dict):
                records.append(record)
    return records


def trace_spans(path: str | Path) -> list[CellSpan]:
    """The journal's spans, in matrix order."""
    return [
        CellSpan.from_dict(r) for r in read_trace(path) if r.get("type") == "span"
    ]


def trace_stages(path: str | Path) -> list[StageSpan]:
    """The journal's stage spans, in emission order."""
    return [
        StageSpan.from_dict(r) for r in read_trace(path) if r.get("type") == "stage"
    ]


def summarize_trace(path: str | Path) -> RunSummary:
    """The journal's summary; recomputed from spans if the run died."""
    records = read_trace(path)
    for record in reversed(records):
        if record.get("type") == "summary":
            return RunSummary.from_dict(record)
    spans = [CellSpan.from_dict(r) for r in records if r.get("type") == "span"]
    return RunSummary.from_spans(spans)


def render_trace_summary(path: str | Path) -> str:
    """Human-readable summary of a journal, for ``repro trace summary``."""
    s = summarize_trace(path)
    lines = [
        f"trace      : {path}",
        f"cells      : {s.cells}  ({s.ok} ok, {s.failed} failed)",
        f"cache      : {s.cache_hits} hits, {s.cache_misses} misses, "
        f"{s.quarantined} quarantined",
        f"stages     : {s.captures} captures ({s.capture_hits} reused), "
        f"{s.replays} replays ({s.replay_hits} cached, "
        f"{s.replays_batched} batched)",
        f"resilience : {s.retries} retries, {s.timeouts} timeouts, "
        f"{s.crashes} crashes",
        f"duration   : {s.duration_s:.3f}s",
    ]
    failed = [sp for sp in trace_spans(path) if not sp.ok]
    if failed:
        lines.append("failed cells:")
        for sp in failed:
            err = f" — {sp.error}" if sp.error else ""
            lines.append(
                f"  {sp.benchmark}/{sp.workload}: {sp.outcome} "
                f"after {sp.attempts} attempt(s){err}"
            )
    return "\n".join(lines)


def _stage_extras(st: StageSpan) -> str:
    """Resource-attribution suffix for one stage line (empty pre-PR10)."""
    res = st.resources
    if not res:
        return ""
    parts = []
    if "cpu_user_s" in res:
        parts.append(f"cpu={res['cpu_user_s']:.3f}u+{res.get('cpu_sys_s', 0.0):.3f}s")
    if res.get("max_rss_kb"):
        parts.append(f"rss={res['max_rss_kb']}KB")
    if res.get("samples"):
        parts.append(f"samples={res['samples']}")
    return (" " + " ".join(parts)) if parts else ""


def render_trace_spans(path: str | Path) -> str:
    """Per-cell listing of a journal, for ``repro trace show``."""
    lines = []
    stages_by_parent: dict[str, list[StageSpan]] = {}
    for st in trace_stages(path):
        stages_by_parent.setdefault(st.parent_id, []).append(st)
    for sp in trace_spans(path):
        flag = "ok " if sp.ok else sp.outcome
        build = f" build={sp.build}" if sp.build else ""
        mode = " [batched]" if sp.batched else ""
        lines.append(
            f"{flag:<8} {sp.benchmark:<18} {sp.workload:<28} "
            f"cache={sp.cache:<4} cap={sp.capture:<3} rep={sp.replay:<3} "
            f"attempts={sp.attempts} t={sp.duration_s:.4f}s{build}{mode}"
        )
        for st in stages_by_parent.get(sp.span_id, []) if sp.span_id else []:
            lines.append(
                f"         └─ {st.name:<9} t={st.duration_s:.4f}s "
                f"@{st.start_s:.4f}s{_stage_extras(st)}"
            )
    for st in stages_by_parent.get(RUN_SPAN_ID, []):
        lines.append(
            f"run      └─ {st.name:<9} t={st.duration_s:.4f}s "
            f"@{st.start_s:.4f}s{_stage_extras(st)}"
        )
    return "\n".join(lines) if lines else "(no spans)"


# ------------------------------------------------------------ chrome export

#: Reserved Chrome trace-viewer colors per stage.
_STAGE_CNAME = {
    "generate": "thread_state_runnable",
    "capture": "rail_response",
    "replay": "thread_state_running",
    "summarize": "grey",
}


def export_chrome_trace(source: str | Path | list[dict[str, Any]]) -> dict[str, Any]:
    """Convert a journal into Chrome ``trace_event`` JSON.

    ``source`` is a journal path or an in-memory record list (e.g.
    :attr:`TraceWriter.records`).  The output dict serializes to a file
    that loads in Perfetto / ``chrome://tracing``: the run root on
    track 0, each cell span greedily packed onto the first free track
    (concurrent cells land on separate tracks), and stage spans nested
    on their parent cell's track.  All timestamps are µs on the run's
    ``start_s`` timeline.
    """
    records = read_trace(source) if isinstance(source, (str, Path)) else source
    spans = [CellSpan.from_dict(r) for r in records if r.get("type") == "span"]
    stages = [StageSpan.from_dict(r) for r in records if r.get("type") == "stage"]
    run_meta = next((r for r in records if r.get("type") == "run_start"), {})
    summary = next(
        (r for r in reversed(records) if r.get("type") == "summary"), None
    )

    pid = 1
    events: list[dict[str, Any]] = []

    def _us(seconds: float) -> int:
        return max(0, round(seconds * 1e6))

    # Greedy track packing: each cell goes on the lowest track whose
    # previous occupant has already finished.
    lane_free_at: list[float] = []  # per-lane end time, lanes are tid-1
    tid_by_span_id: dict[str, int] = {RUN_SPAN_ID: 0}
    ordered = sorted(spans, key=lambda sp: sp.start_s)
    for sp in ordered:
        lane = next(
            (i for i, free in enumerate(lane_free_at) if free <= sp.start_s + 1e-9),
            None,
        )
        if lane is None:
            lane = len(lane_free_at)
            lane_free_at.append(0.0)
        lane_free_at[lane] = sp.start_s + sp.duration_s
        tid = lane + 1
        if sp.span_id:
            tid_by_span_id[sp.span_id] = tid
        events.append(
            {
                "name": f"{sp.benchmark}/{sp.workload}",
                "cat": "cell",
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": _us(sp.start_s),
                "dur": max(1, _us(sp.duration_s)),
                "args": {
                    "outcome": sp.outcome,
                    "cache": sp.cache,
                    "capture": sp.capture,
                    "replay": sp.replay,
                    "attempts": sp.attempts,
                    "batched": sp.batched,
                    **({"build": sp.build} if sp.build else {}),
                    **({"error": sp.error} if sp.error else {}),
                },
            }
        )

    for st in stages:
        event = {
            "name": st.name,
            "cat": "stage",
            "ph": "X",
            "pid": pid,
            "tid": tid_by_span_id.get(st.parent_id, 0),
            "ts": _us(st.start_s),
            "dur": max(1, _us(st.duration_s)),
            "args": {"benchmark": st.benchmark, "workload": st.workload},
        }
        cname = _STAGE_CNAME.get(st.name)
        if cname:
            event["cname"] = cname
        if st.resources:
            event["args"]["resources"] = st.resources
        events.append(event)

    run_dur = (
        float(summary["duration_s"])
        if summary and summary.get("duration_s")
        else max(
            (sp.start_s + sp.duration_s for sp in spans),
            default=max((st.start_s + st.duration_s for st in stages), default=0.0),
        )
    )
    events.insert(
        0,
        {
            "name": f"run {run_meta.get('run_id', '?')}",
            "cat": "run",
            "ph": "X",
            "pid": pid,
            "tid": 0,
            "ts": 0,
            "dur": max(1, _us(run_dur)),
            "args": {
                k: v
                for k, v in run_meta.items()
                if k not in ("type",) and not isinstance(v, (dict, list))
            },
        },
    )

    names = [(0, "run")] + [
        (lane + 1, f"cells {lane + 1}") for lane in range(len(lane_free_at))
    ]
    for tid, label in names:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": label},
            }
        )

    return {"traceEvents": events, "displayTimeUnit": "ms"}


# -------------------------------------------------------------- live view


def render_top(
    records: list[dict[str, Any]], *, tail: int = 12, clock_s: float | None = None
) -> str:
    """One ``repro top`` frame from an in-flight journal's records.

    The journal is append-only and flushed per record, so tailing it
    mid-run (``read_trace`` skips a torn final line) gives a consistent
    prefix: everything that has *settled* so far.  The frame shows the
    run header, live tallies (cells, cache-hit rate, stage counts),
    aggregate replay throughput from the stage records' resource
    attribution, and the most recent ``tail`` cells with their per-stage
    states — the run-level ``top`` for a characterization in progress.
    """
    meta = next((r for r in records if r.get("type") == "run_start"), {})
    summary = next((r for r in reversed(records) if r.get("type") == "summary"), None)
    spans = [CellSpan.from_dict(r) for r in records if r.get("type") == "span"]
    stages = [StageSpan.from_dict(r) for r in records if r.get("type") == "stage"]

    s = RunSummary.from_dict(summary) if summary else RunSummary.from_spans(spans)
    last_t = max(
        (sp.start_s + sp.duration_s for sp in spans),
        default=max((st.start_s + st.duration_s for st in stages), default=0.0),
    )
    elapsed = s.duration_s if summary else (clock_s if clock_s is not None else last_t)
    state = "finished" if summary else "running"

    lines = [
        f"run {meta.get('run_id', '?')}  [{state}]  "
        f"workers={meta.get('workers', '?')} cache={meta.get('cache', '?')} "
        f"elapsed={elapsed:.2f}s",
        f"cells   : {s.cells} settled  ({s.ok} ok, {s.failed} failed, "
        f"{s.retries} retries)",
    ]
    looked_up = s.cache_hits + s.cache_misses
    rate = (s.cache_hits / looked_up * 100.0) if looked_up else 0.0
    lines.append(
        f"cache   : {s.cache_hits}/{looked_up} hits ({rate:.0f}%), "
        f"{s.quarantined} quarantined"
    )
    lines.append(
        f"stages  : {s.captures} captures ({s.capture_hits} reused), "
        f"{s.replays} replays ({s.replay_hits} cached, "
        f"{s.replays_batched} batched)"
    )
    ev = ns = 0
    for st in stages:
        res = st.resources or {}
        ev += int(res.get("replay_events", 0))
        ns += int(res.get("replay_ns", 0))
    if ns:
        lines.append(
            f"replay  : {ev} events in {ns / 1e9:.3f}s kernel time "
            f"({ev / (ns / 1e9) / 1e6:.2f}M events/s)"
        )
    cell_rate = s.cells / elapsed if elapsed > 0 else 0.0
    lines.append(f"rate    : {cell_rate:.2f} cells/s")
    recent = sorted(spans, key=lambda sp: sp.start_s + sp.duration_s)[-tail:]
    if recent:
        lines.append(
            f"  {'cell':<44} {'cache':<5} {'cap':<3} {'rep':<3} "
            f"{'t':>9}  state"
        )
        for sp in recent:
            flag = "ok" if sp.ok else sp.outcome
            mode = " batched" if sp.batched else ""
            lines.append(
                f"  {sp.benchmark + '/' + sp.workload:<44} {sp.cache:<5} "
                f"{sp.capture:<3} {sp.replay:<3} {sp.duration_s:>8.4f}s  "
                f"{flag}{mode}"
            )
    else:
        lines.append("  (no cells settled yet)")
    return "\n".join(lines)
