"""Unified metrics registry: labeled counters, gauges, and histograms.

The paper's contribution is measurement; this module is the same
discipline applied to the pipeline itself.  It is the only recorder of
the pipeline's operational counts and timings — the CLI's ``cache:`` and
``--verbose`` lines, the run summary's quarantine count, Prometheus and
ledger records are all views of it — and it keeps *labeled* metrics
with *distributions*:

* :class:`Counter` — monotonically increasing integer (cells run,
  replay events, cache bytes);
* :class:`Gauge` — last/max-written value (sampling-stride high-water
  marks);
* :class:`Histogram` — bucketed distribution with exact integer bucket
  counts (stage latencies, replay throughput).

Histograms use **fixed log-scale bucket boundaries** (a 1-2-5 series
per decade, see :func:`log_buckets`), never data-dependent ones, so two
histograms of the same metric always share boundaries and merging them
is *exact*: bucket counts and observation counts add as integers —
``merge(a, b)`` holds precisely the counts of the concatenated sample
streams (property-tested in ``tests/test_metrics.py``).  That is what
lets worker-side registries serialize across the
``ProcessPoolExecutor`` boundary (:meth:`MetricsRegistry.to_dict` is
plain JSON types) and aggregate losslessly into the parent's registry.

Registry topology:

* one **process-global** registry (:func:`global_registry`) — the
  lifetime aggregate;
* **per-run child registries** — :meth:`MetricsRegistry.child` creates
  a write-through child: observations recorded in the child also land
  in its parent, so a :class:`~repro.core.run.Session` hands each run a
  child and the session registry aggregates every run;
* **collector scopes** — instrumented call sites deep in the stack
  (cache lookups, replay kernels) record through the module-level
  helpers :func:`inc` / :func:`observe` / :func:`gauge_set`, which hit
  the global registry plus every registry pushed with
  :func:`collector`.  The engine pushes the current run's registry, so
  instrumentation never needs a registry threaded through it.

Metric *names* are registered once in the module-level :data:`CATALOG`
(the ``MetricSpec`` constants below).  Call sites pass the spec object,
never a string literal — ``tests/test_metrics.py`` greps the source
tree and fails on ad-hoc ``registry.counter("...")`` literals, so the
catalog is the single source of truth and names cannot drift.

Label cardinality rules (enforced by convention, documented in
DESIGN.md §11): ``benchmark`` (≤ ~20 values), ``workload`` (≤ ~30 per
benchmark — only on counters, never on histograms), ``stage`` (4),
``worker`` (pool size), plus small enums (``outcome``, ``cache``,
``store``, ``result``, ``direction``, ``event``).

Exporters: :func:`render_prometheus` (text exposition format, one
``# HELP``/``# TYPE`` block per family, cumulative ``_bucket{le=...}``
series) and :func:`render_metrics_table` (terminal table with
p50/p95/p99 per histogram group, backing ``repro metrics show``).
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping

__all__ = [
    "MetricSpec",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "CATALOG",
    "log_buckets",
    "global_registry",
    "reset_global_registry",
    "collector",
    "inc",
    "observe",
    "gauge_set",
    "merge_snapshot",
    "render_prometheus",
    "render_metrics_table",
    "metrics_table_data",
    "load_snapshot",
    # catalog constants
    "STAGE_SECONDS",
    "CELL_SECONDS",
    "CELLS_TOTAL",
    "RETRIES_TOTAL",
    "RUNS_TOTAL",
    "WORKER_CELLS_TOTAL",
    "EVENTS_EMITTED_TOTAL",
    "REPLAY_EVENTS_TOTAL",
    "REPLAY_NS_TOTAL",
    "REPLAY_EPS",
    "SAMPLING_STRIDE_MAX",
    "CACHE_LOOKUP_SECONDS",
    "CACHE_EVENTS_TOTAL",
    "CACHE_IO_BYTES_TOTAL",
    "STAGE_CPU_SECONDS",
    "PEAK_RSS_KB",
    "STACK_SAMPLES_TOTAL",
]

#: Snapshot schema version (bump with the to_dict layout).
SNAPSHOT_SCHEMA = 1


def log_buckets(lo_exp: int, hi_exp: int) -> tuple[float, ...]:
    """Fixed log-scale boundaries: a 1-2-5 series per decade.

    ``log_buckets(-3, 1)`` → ``(0.001, 0.002, 0.005, ..., 10.0, 20.0,
    50.0)``.  The series is a pure function of the exponent range —
    never of the data — so every histogram of a given spec shares
    boundaries and bucket-count merges are exact.
    """
    # float(f"{...:.2e}") snaps 5 * 10**-6 == 4.999...e-06 back to 5e-06
    # so exported `le` labels are the exact decimal boundaries.
    return tuple(
        float(f"{m * 10.0 ** e:.2e}")
        for e in range(lo_exp, hi_exp + 1)
        for m in (1, 2, 5)
    )


#: Boundaries for wall-clock stage/cell latencies (1µs .. 50s).
SECONDS_BUCKETS = log_buckets(-6, 1)
#: Boundaries for replay throughput in events/second (1k .. 500M).
EPS_BUCKETS = log_buckets(3, 8)


@dataclass(frozen=True)
class MetricSpec:
    """The registered identity of one metric family.

    ``labels`` is ordered: label values are keyed positionally in this
    order everywhere (children, snapshots, merges).
    """

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    labels: tuple[str, ...] = ()
    buckets: tuple[float, ...] | None = None  # histograms only


#: Every metric the pipeline may emit, keyed by name.  The single
#: source of truth: call sites reference the constants below, and the
#: lint test in ``tests/test_metrics.py`` rejects ad-hoc name literals.
CATALOG: dict[str, MetricSpec] = {}


def _spec(
    name: str,
    kind: str,
    help: str,
    labels: tuple[str, ...] = (),
    buckets: tuple[float, ...] | None = None,
) -> MetricSpec:
    if name in CATALOG:
        raise ValueError(f"duplicate metric name {name!r}")
    if kind == "histogram" and buckets is None:
        raise ValueError(f"histogram {name!r} needs fixed buckets")
    spec = MetricSpec(name=name, kind=kind, help=help, labels=labels, buckets=buckets)
    CATALOG[name] = spec
    return spec


STAGE_SECONDS = _spec(
    "repro_stage_seconds",
    "histogram",
    "Wall-clock seconds per pipeline stage (generate/capture/replay/summarize)",
    ("benchmark", "stage"),
    SECONDS_BUCKETS,
)
CELL_SECONDS = _spec(
    "repro_cell_seconds",
    "histogram",
    "End-to-end wall-clock seconds per (benchmark, workload) matrix cell",
    ("benchmark", "outcome"),
    SECONDS_BUCKETS,
)
CELLS_TOTAL = _spec(
    "repro_cells_total",
    "counter",
    "Matrix cells settled, by outcome and cell-level cache state",
    ("benchmark", "outcome", "cache"),
)
RETRIES_TOTAL = _spec(
    "repro_retries_total",
    "counter",
    "Cell attempts beyond the first",
    ("benchmark",),
)
RUNS_TOTAL = _spec(
    "repro_runs_total",
    "counter",
    "Finalized engine runs (one per closed trace journal)",
)
WORKER_CELLS_TOTAL = _spec(
    "repro_worker_cells_total",
    "counter",
    "Cells executed per worker process",
    ("worker",),
)
EVENTS_EMITTED_TOTAL = _spec(
    "repro_events_emitted_total",
    "counter",
    "Sampled telemetry events captured from benchmark executions",
    ("benchmark",),
)
REPLAY_EVENTS_TOTAL = _spec(
    "repro_replay_events_total",
    "counter",
    "Telemetry events replayed through the machine model",
    ("benchmark",),
)
REPLAY_NS_TOTAL = _spec(
    "repro_replay_ns_total",
    "counter",
    "Nanoseconds spent in machine-model replay",
    ("benchmark",),
)
REPLAY_EPS = _spec(
    "repro_replay_eps",
    "histogram",
    "Replay-kernel throughput per evaluation, events/second",
    ("benchmark",),
    EPS_BUCKETS,
)
SAMPLING_STRIDE_MAX = _spec(
    "repro_sampling_stride_max",
    "gauge",
    "Largest telemetry decimation stride seen (gauges merge by max)",
    ("benchmark",),
)
CACHE_LOOKUP_SECONDS = _spec(
    "repro_cache_lookup_seconds",
    "histogram",
    "Artifact-store lookup latency, by stage store and hit/miss result",
    ("store", "result"),
    SECONDS_BUCKETS,
)
CACHE_EVENTS_TOTAL = _spec(
    "repro_cache_events_total",
    "counter",
    "Artifact-store traffic events (hit/miss/write/quarantined)",
    ("store", "event"),
)
CACHE_IO_BYTES_TOTAL = _spec(
    "repro_cache_io_bytes_total",
    "counter",
    "Artifact-store bytes moved, by direction",
    ("store", "direction"),
)
STAGE_CPU_SECONDS = _spec(
    "repro_stage_cpu_seconds",
    "histogram",
    "CPU seconds attributed per pipeline stage via getrusage deltas",
    ("benchmark", "stage", "cpu"),  # cpu = "user" | "sys"
    SECONDS_BUCKETS,
)
PEAK_RSS_KB = _spec(
    "repro_peak_rss_kb",
    "gauge",
    "Peak resident set size (KB) observed while a benchmark's cells ran",
    ("benchmark",),
)
STACK_SAMPLES_TOTAL = _spec(
    "repro_stack_samples_total",
    "counter",
    "Profiler stack samples attributed to a pipeline stage (opt-in)",
    ("benchmark", "stage"),
)


# ------------------------------------------------------------ instruments


class Counter:
    """Monotonically increasing integer, optionally forwarding to a
    parent registry's counter (write-through children)."""

    __slots__ = ("value", "_link")

    def __init__(self, link: "Counter | None" = None):
        self.value = 0
        self._link = link

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter increments must be >= 0, got {n}")
        self.value += n
        if self._link is not None:
            self._link.inc(n)


class Gauge:
    """Last-written value; merges take the max (high-water semantics)."""

    __slots__ = ("value", "_link")

    def __init__(self, link: "Gauge | None" = None):
        self.value = 0
        self._link = link

    def set(self, v: float) -> None:
        self.value = v
        if self._link is not None:
            self._link.set(v)

    def set_max(self, v: float) -> None:
        if v > self.value:
            self.value = v
        if self._link is not None:
            self._link.set_max(v)

    def merge_value(self, v: float) -> None:
        self.set_max(v)


class Histogram:
    """Fixed-boundary histogram with exact integer bucket counts.

    ``counts[i]`` tallies observations ``<= buckets[i]``; the final slot
    is the overflow (+Inf) bucket.  ``sum`` is a float accumulator for
    the mean; counts are the exact, losslessly mergeable part.
    """

    __slots__ = ("buckets", "counts", "sum", "count", "_link")

    def __init__(self, buckets: tuple[float, ...], link: "Histogram | None" = None):
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)
        self.sum = 0.0
        self.count = 0
        self._link = link

    def observe(self, v: float) -> None:
        self.counts[bisect_left(self.buckets, v)] += 1
        self.sum += v
        self.count += 1
        if self._link is not None:
            self._link.observe(v)

    def merge_counts(self, counts: list[int], total: float, n: int) -> None:
        if len(counts) != len(self.counts):
            raise ValueError(
                f"histogram merge: {len(counts)} buckets vs {len(self.counts)}"
            )
        for i, c in enumerate(counts):
            self.counts[i] += c
        self.sum += total
        self.count += n
        if self._link is not None:
            self._link.merge_counts(counts, total, n)

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0..1) from the bucket counts.

        Linear interpolation inside the target bucket, the same scheme
        Prometheus ``histogram_quantile`` uses; observations beyond the
        last boundary clamp to it.
        """
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cum = 0
        for i, c in enumerate(self.counts):
            cum += c
            if cum >= rank and c:
                if i >= len(self.buckets):
                    return self.buckets[-1]
                lo = self.buckets[i - 1] if i else 0.0
                hi = self.buckets[i]
                return lo + (hi - lo) * (rank - (cum - c)) / c
        return self.buckets[-1]


_Instrument = Counter | Gauge | Histogram


# --------------------------------------------------------------- registry


class MetricsRegistry:
    """A set of labeled metric families, mergeable and serializable.

    ``child()`` creates a write-through child: every observation in the
    child is forwarded to the parent, so a session registry aggregates
    its runs live.  ``merge()`` / ``to_dict()`` / ``from_dict()`` move
    whole registries across process boundaries losslessly (JSON-safe
    types only); merges forward through parent links too.
    """

    def __init__(self, parent: "MetricsRegistry | None" = None):
        self._parent = parent
        self._families: dict[str, dict[tuple[str, ...], _Instrument]] = {}
        self._specs: dict[str, MetricSpec] = {}
        self._lock = threading.Lock()

    def child(self) -> "MetricsRegistry":
        return MetricsRegistry(parent=self)

    # ------------------------------------------------------- instruments

    def _instrument(self, spec: MetricSpec, labels: Mapping[str, Any]) -> _Instrument:
        if set(labels) != set(spec.labels):
            raise ValueError(
                f"{spec.name}: labels {sorted(labels)} != declared {sorted(spec.labels)}"
            )
        key = tuple(str(labels[name]) for name in spec.labels)
        with self._lock:
            family = self._families.setdefault(spec.name, {})
            inst = family.get(key)
            if inst is None:
                registered = self._specs.setdefault(spec.name, spec)
                if registered != spec:
                    raise ValueError(f"conflicting specs registered for {spec.name!r}")
                # NB: explicit None check — __len__ makes an empty parent falsy.
                link = (
                    self._parent._instrument(spec, labels)
                    if self._parent is not None
                    else None
                )
                if spec.kind == "counter":
                    inst = Counter(link)  # type: ignore[arg-type]
                elif spec.kind == "gauge":
                    inst = Gauge(link)  # type: ignore[arg-type]
                else:
                    inst = Histogram(spec.buckets, link)  # type: ignore[arg-type]
                family[key] = inst
            return inst

    def counter(self, spec: MetricSpec, **labels: Any) -> Counter:
        if spec.kind != "counter":
            raise ValueError(f"{spec.name} is a {spec.kind}, not a counter")
        return self._instrument(spec, labels)  # type: ignore[return-value]

    def gauge(self, spec: MetricSpec, **labels: Any) -> Gauge:
        if spec.kind != "gauge":
            raise ValueError(f"{spec.name} is a {spec.kind}, not a gauge")
        return self._instrument(spec, labels)  # type: ignore[return-value]

    def histogram(self, spec: MetricSpec, **labels: Any) -> Histogram:
        if spec.kind != "histogram":
            raise ValueError(f"{spec.name} is a {spec.kind}, not a histogram")
        return self._instrument(spec, labels)  # type: ignore[return-value]

    # -------------------------------------------------------- inspection

    def collect(self) -> Iterator[tuple[MetricSpec, tuple[str, ...], _Instrument]]:
        """Every (spec, label values, instrument) triple, sorted."""
        for name in sorted(self._families):
            spec = self._specs[name]
            for key in sorted(self._families[name]):
                yield spec, key, self._families[name][key]

    def value(self, spec: MetricSpec, **labels: Any) -> float | int | None:
        """A counter/gauge value (or None if the series never recorded)."""
        key = tuple(str(labels[name]) for name in spec.labels)
        inst = self._families.get(spec.name, {}).get(key)
        if inst is None:
            return None
        if isinstance(inst, Histogram):
            raise ValueError(f"{spec.name} is a histogram; use .histogram(...)")
        return inst.value

    def series(self, spec: MetricSpec, **match: Any) -> list[_Instrument]:
        """Every recorded instrument of ``spec`` whose labels include
        ``match`` — e.g. all benchmarks' series of one store event."""
        where = [(spec.labels.index(name), str(v)) for name, v in match.items()]
        return [
            inst
            for key, inst in self._families.get(spec.name, {}).items()
            if all(key[i] == v for i, v in where)
        ]

    def __len__(self) -> int:
        return sum(len(f) for f in self._families.values())

    # ------------------------------------------------- snapshots & merge

    def to_dict(self) -> dict[str, Any]:
        """Lossless JSON-safe snapshot (the pool-boundary wire format)."""
        families: dict[str, Any] = {}
        for name in sorted(self._families):
            spec = self._specs[name]
            series = []
            for key in sorted(self._families[name]):
                inst = self._families[name][key]
                if isinstance(inst, Histogram):
                    series.append(
                        {
                            "labels": list(key),
                            "counts": list(inst.counts),
                            "sum": inst.sum,
                            "count": inst.count,
                        }
                    )
                else:
                    series.append({"labels": list(key), "value": inst.value})
            families[name] = {
                "kind": spec.kind,
                "help": spec.help,
                "labels": list(spec.labels),
                "buckets": list(spec.buckets) if spec.buckets else None,
                "series": series,
            }
        return {"schema": SNAPSHOT_SCHEMA, "metrics": families}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MetricsRegistry":
        reg = cls()
        reg.merge(data)
        return reg

    def merge(self, other: "MetricsRegistry | Mapping[str, Any]") -> None:
        """Add ``other``'s observations into this registry (exactly).

        Counters add, histograms add bucket-wise, gauges take the max.
        Merged amounts forward through parent links like live
        observations, so merging a worker snapshot into a run child
        also lands in the session registry.
        """
        if isinstance(other, MetricsRegistry):
            other = other.to_dict()
        if other.get("schema") != SNAPSHOT_SCHEMA:
            raise ValueError(f"unsupported metrics snapshot schema {other.get('schema')!r}")
        for name, family in other["metrics"].items():
            spec = CATALOG.get(name)
            if spec is None or [list(spec.labels), spec.kind] != [
                family["labels"],
                family["kind"],
            ]:
                spec = MetricSpec(
                    name=name,
                    kind=family["kind"],
                    help=family.get("help", ""),
                    labels=tuple(family["labels"]),
                    buckets=tuple(family["buckets"]) if family.get("buckets") else None,
                )
            for s in family["series"]:
                labels = dict(zip(spec.labels, s["labels"]))
                inst = self._instrument(spec, labels)
                if isinstance(inst, Histogram):
                    inst.merge_counts(s["counts"], s["sum"], s["count"])
                elif isinstance(inst, Gauge):
                    inst.merge_value(s["value"])
                else:
                    inst.inc(s["value"])


# ------------------------------------------- global registry & collectors

_GLOBAL = MetricsRegistry()
_ACTIVE: list[MetricsRegistry] = []


def global_registry() -> MetricsRegistry:
    """The process-lifetime aggregate registry."""
    return _GLOBAL


def reset_global_registry() -> None:
    """Replace the global registry with an empty one (tests)."""
    global _GLOBAL
    _GLOBAL = MetricsRegistry()


@contextmanager
def collector(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Route module-level observations into ``registry`` too.

    The engine pushes the current run's registry around its work so
    deep call sites (cache stores, the replay path) need no registry
    threaded through them.  Nesting pushes a stack; the global registry
    always records regardless.
    """
    _ACTIVE.append(registry)
    try:
        yield registry
    finally:
        _ACTIVE.remove(registry)


def _targets() -> list[MetricsRegistry]:
    return [_GLOBAL, *_ACTIVE]


def inc(spec: MetricSpec, n: int = 1, **labels: Any) -> None:
    """Add ``n`` to a counter in the global registry + active collectors."""
    for reg in _targets():
        reg.counter(spec, **labels).inc(n)


def observe(spec: MetricSpec, value: float, **labels: Any) -> None:
    """Observe ``value`` in a histogram (global + active collectors)."""
    for reg in _targets():
        reg.histogram(spec, **labels).observe(value)


def gauge_set(spec: MetricSpec, value: float, **labels: Any) -> None:
    """Raise a gauge to ``value`` (max semantics; global + collectors)."""
    for reg in _targets():
        reg.gauge(spec, **labels).set_max(value)


def merge_snapshot(snapshot: "Mapping[str, Any] | MetricsRegistry") -> None:
    """Merge a worker-side registry snapshot into global + collectors.

    The parent-side half of the pool-boundary transport: a worker's
    observations never hit this process's global registry or active
    collector stack, so the engine merges the shipped snapshot into
    both — the same fan-out a live :func:`observe` would have had.
    """
    for reg in _targets():
        reg.merge(snapshot)


def load_snapshot(path: str | Path) -> MetricsRegistry:
    """Load a ``--metrics`` JSON snapshot back into a registry."""
    with Path(path).open(encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("not a JSON object")
    return MetricsRegistry.from_dict(data)


# -------------------------------------------------------------- exporters


def _format_value(v: float) -> str:
    """Prometheus sample value: integers without a decimal point."""
    if isinstance(v, int) or (isinstance(v, float) and v.is_integer()):
        return str(int(v))
    return repr(v)


def _escape_label(v: str) -> str:
    return v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_str(names: tuple[str, ...], values: tuple[str, ...], extra: str = "") -> str:
    parts = [f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (version 0.0.4)."""
    lines: list[str] = []
    current = None
    for spec, key, inst in registry.collect():
        if spec.name != current:
            lines.append(f"# HELP {spec.name} {spec.help}")
            lines.append(f"# TYPE {spec.name} {spec.kind}")
            current = spec.name
        if isinstance(inst, Histogram):
            cum = 0
            for bound, count in zip(inst.buckets, inst.counts):
                cum += count
                le = _label_str(spec.labels, key, f'le="{_format_value(bound)}"')
                lines.append(f"{spec.name}_bucket{le} {cum}")
            le = _label_str(spec.labels, key, 'le="+Inf"')
            lines.append(f"{spec.name}_bucket{le} {inst.count}")
            labels = _label_str(spec.labels, key)
            lines.append(f"{spec.name}_sum{labels} {_format_value(inst.sum)}")
            lines.append(f"{spec.name}_count{labels} {inst.count}")
        else:
            labels = _label_str(spec.labels, key)
            lines.append(f"{spec.name}{labels} {_format_value(inst.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


#: Labels dropped when grouping for the terminal table — the
#: high-cardinality dimensions; what remains (stage, outcome, store...)
#: is the operator-facing breakdown.
_HIGH_CARDINALITY = ("benchmark", "workload", "worker")


def _group_key(spec: MetricSpec, key: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(
        f"{n}={v}" for n, v in zip(spec.labels, key) if n not in _HIGH_CARDINALITY
    )


def _aggregate_table(
    registry: MetricsRegistry,
) -> tuple[
    dict[tuple[str, tuple[str, ...]], Histogram],
    dict[tuple[str, tuple[str, ...]], float],
    dict[str, str],
]:
    """Re-aggregate a registry over the high-cardinality labels.

    Exact for histograms (shared fixed buckets); counters sum, gauges
    take the max.  Shared by the table and JSON renderers.
    """
    hists: dict[tuple[str, tuple[str, ...]], Histogram] = {}
    scalars: dict[tuple[str, tuple[str, ...]], float] = {}
    kinds: dict[str, str] = {}
    for spec, key, inst in registry.collect():
        group = (spec.name, _group_key(spec, key))
        kinds[spec.name] = spec.kind
        if isinstance(inst, Histogram):
            agg = hists.get(group)
            if agg is None:
                agg = hists[group] = Histogram(spec.buckets)
            agg.merge_counts(inst.counts, inst.sum, inst.count)
        elif isinstance(inst, Gauge):
            scalars[group] = max(scalars.get(group, 0), inst.value)
        else:
            scalars[group] = scalars.get(group, 0) + inst.value
    return hists, scalars, kinds


def metrics_table_data(registry: MetricsRegistry) -> dict[str, Any]:
    """The ``repro metrics show`` aggregation as JSON-ready rows.

    The machine-consumable twin of :func:`render_metrics_table` —
    identical grouping and quantiles, emitted as a dict for
    ``repro metrics show --json`` and service clients.
    """
    hists, scalars, kinds = _aggregate_table(registry)
    return {
        "histograms": [
            {
                "metric": name,
                "labels": list(group),
                "count": h.count,
                "p50": h.percentile(0.50),
                "p95": h.percentile(0.95),
                "p99": h.percentile(0.99),
                "total": h.sum,
            }
            for (name, group), h in sorted(hists.items())
        ],
        "scalars": [
            {
                "metric": name,
                "labels": list(group),
                "value": v,
                "kind": kinds.get(name, "counter"),
            }
            for (name, group), v in sorted(scalars.items())
        ],
    }


def render_metrics_table(registry: MetricsRegistry) -> str:
    """Terminal table for ``repro metrics show``.

    Histograms are re-aggregated (exactly — shared fixed buckets) over
    the high-cardinality labels, so ``repro_stage_seconds`` prints one
    p50/p95/p99 row per *stage*; counters and gauges sum/max the same
    way.
    """
    hists, scalars, kinds = _aggregate_table(registry)

    lines = []
    if hists:
        lines.append(
            f"{'metric':<28} {'labels':<22} {'count':>8} "
            f"{'p50':>10} {'p95':>10} {'p99':>10} {'total':>10}"
        )
        for (name, group), h in sorted(hists.items()):
            lines.append(
                f"{name:<28} {','.join(group) or '-':<22} {h.count:>8} "
                f"{h.percentile(0.50):>10.4g} {h.percentile(0.95):>10.4g} "
                f"{h.percentile(0.99):>10.4g} {h.sum:>10.4g}"
            )
    if scalars:
        if lines:
            lines.append("")
        lines.append(f"{'metric':<28} {'labels':<22} {'value':>12}")
        for (name, group), v in sorted(scalars.items()):
            tag = " (max)" if kinds.get(name) == "gauge" else ""
            lines.append(
                f"{name:<28} {','.join(group) or '-':<22} {_format_value(v):>12}{tag}"
            )
    return "\n".join(lines) if lines else "(no metrics recorded)"
