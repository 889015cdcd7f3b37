"""Metrics registry tests: instruments, merges, exporters, catalog lint."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import metrics
from repro.core.metrics import (
    CACHE_EVENTS_TOTAL,
    CELLS_TOTAL,
    EVENTS_EMITTED_TOTAL,
    REPLAY_EPS,
    REPLAY_EVENTS_TOTAL,
    RUNS_TOTAL,
    SAMPLING_STRIDE_MAX,
    SECONDS_BUCKETS,
    STAGE_SECONDS,
    WORKER_CELLS_TOTAL,
    Histogram,
    MetricsRegistry,
    log_buckets,
    render_metrics_table,
    render_prometheus,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


class TestBuckets:
    def test_one_two_five_series(self):
        assert log_buckets(0, 1) == (1.0, 2.0, 5.0, 10.0, 20.0, 50.0)

    def test_boundaries_are_exact_decimals(self):
        # 5 * 10**-6 is 4.999...e-06 in floats; the series must snap it.
        assert 5e-06 in log_buckets(-6, -6)

    def test_boundaries_are_data_independent(self):
        a, b = Histogram(SECONDS_BUCKETS), Histogram(SECONDS_BUCKETS)
        a.observe(1e-9)
        b.observe(1e9)
        assert a.buckets == b.buckets  # merges can never misalign


class TestInstruments:
    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter(RUNS_TOTAL).inc(-1)

    def test_gauge_merge_is_max(self):
        reg = MetricsRegistry()
        g = reg.gauge(SAMPLING_STRIDE_MAX, benchmark="b")
        g.set_max(4)
        g.set_max(2)
        assert g.value == 4

    def test_histogram_percentiles_interpolate(self):
        h = Histogram(SECONDS_BUCKETS)
        for _ in range(100):
            h.observe(0.015)  # lands in the (0.01, 0.02] bucket
        assert 0.01 <= h.percentile(0.5) <= 0.02
        assert h.percentile(0.99) <= 0.02

    def test_label_set_is_validated(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="labels"):
            reg.histogram(STAGE_SECONDS, benchmark="b")  # missing `stage`
        with pytest.raises(ValueError, match="labels"):
            reg.counter(RUNS_TOTAL, benchmark="b")  # extra label

    def test_kind_mismatch_is_an_error(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="not a counter"):
            reg.counter(STAGE_SECONDS, benchmark="b", stage="replay")


class TestChildRegistries:
    def test_empty_parent_still_receives_writes(self):
        # Regression: MetricsRegistry.__len__ makes an *empty* parent
        # falsy; the write-through link must use an explicit None check.
        parent = MetricsRegistry()
        child = parent.child()
        child.counter(RUNS_TOTAL).inc(3)
        assert parent.value(RUNS_TOTAL) == 3

    def test_histograms_forward_observations(self):
        parent = MetricsRegistry()
        child = parent.child()
        child.histogram(STAGE_SECONDS, benchmark="b", stage="replay").observe(0.5)
        h = parent.histogram(STAGE_SECONDS, benchmark="b", stage="replay")
        assert h.count == 1
        assert h.sum == 0.5

    def test_merge_into_child_reaches_parent(self):
        # The pool path: worker snapshots merge into the active child
        # collector and must propagate to the session aggregate.
        worker = MetricsRegistry()
        worker.counter(CELLS_TOTAL, benchmark="b", outcome="ok", cache="off").inc(7)
        parent = MetricsRegistry()
        child = parent.child()
        child.merge(worker.to_dict())
        assert parent.value(CELLS_TOTAL, benchmark="b", outcome="ok", cache="off") == 7


class TestSnapshots:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter(EVENTS_EMITTED_TOTAL, benchmark="505.mcf_r").inc(1000)
        reg.gauge(SAMPLING_STRIDE_MAX, benchmark="505.mcf_r").set_max(8)
        h = reg.histogram(STAGE_SECONDS, benchmark="505.mcf_r", stage="capture")
        for v in (0.001, 0.03, 0.5):
            h.observe(v)
        return reg

    def test_round_trip_is_lossless(self):
        reg = self._populated()
        clone = MetricsRegistry.from_dict(reg.to_dict())
        assert clone.to_dict() == reg.to_dict()

    def test_merge_adds_counts(self):
        a, b = self._populated(), self._populated()
        a.merge(b)
        assert a.value(EVENTS_EMITTED_TOTAL, benchmark="505.mcf_r") == 2000
        h = a.histogram(STAGE_SECONDS, benchmark="505.mcf_r", stage="capture")
        assert h.count == 6
        assert a.value(SAMPLING_STRIDE_MAX, benchmark="505.mcf_r") == 8  # max


class TestExactMergeProperty:
    @settings(max_examples=50, deadline=None)
    @given(
        a=st.lists(st.floats(min_value=1e-9, max_value=100.0), max_size=50),
        b=st.lists(st.floats(min_value=1e-9, max_value=100.0), max_size=50),
    )
    def test_merge_equals_concatenated_observation(self, a, b):
        """merge(A, B) bucket counts == observing A + B into one histogram."""
        ha, hb, hc = (Histogram(SECONDS_BUCKETS) for _ in range(3))
        for v in a:
            ha.observe(v)
        for v in b:
            hb.observe(v)
        for v in a + b:
            hc.observe(v)
        ha.merge_counts(hb.counts, hb.sum, hb.count)
        assert ha.counts == hc.counts  # exact, integer-for-integer
        assert ha.count == hc.count
        assert ha.sum == pytest.approx(hc.sum)


class TestCollectors:
    @pytest.fixture(autouse=True)
    def fresh_global(self):
        metrics.reset_global_registry()
        yield
        metrics.reset_global_registry()

    def test_helpers_hit_global_and_active(self):
        reg = MetricsRegistry()
        with metrics.collector(reg):
            metrics.inc(RUNS_TOTAL)
            metrics.observe(STAGE_SECONDS, 0.1, benchmark="b", stage="replay")
        assert reg.value(RUNS_TOTAL) == 1
        assert metrics.global_registry().value(RUNS_TOTAL) == 1
        metrics.inc(RUNS_TOTAL)  # outside the context: global only
        assert reg.value(RUNS_TOTAL) == 1
        assert metrics.global_registry().value(RUNS_TOTAL) == 2

    def test_merge_snapshot_fans_out(self):
        worker = MetricsRegistry()
        worker.counter(WORKER_CELLS_TOTAL, worker="123").inc(5)
        reg = MetricsRegistry()
        with metrics.collector(reg):
            metrics.merge_snapshot(worker.to_dict())
        assert reg.value(WORKER_CELLS_TOTAL, worker="123") == 5
        assert metrics.global_registry().value(WORKER_CELLS_TOTAL, worker="123") == 5


class TestPoolBoundary:
    """Worker-side metrics must merge exactly across the process pool."""

    @pytest.fixture(scope="class")
    def sessions(self, tmp_path_factory):
        from repro.core.run import Session

        results = {}
        for workers in (1, 2):
            with Session(workers=workers, cache=None) as session:
                session.characterize("505.mcf_r")
            results[workers] = session.metrics
        return results

    def test_replay_histogram_counts_match_cells(self, sessions):
        for reg in sessions.values():
            h = reg.histogram(REPLAY_EPS, benchmark="505.mcf_r")
            assert h.count == 7  # one replay per Alberta mcf cell
            assert sum(h.counts) == h.count  # bucket counts are exact

    def test_pool_run_matches_inline_run(self, sessions):
        inline, pooled = sessions[1], sessions[2]
        for reg in (inline, pooled):
            assert reg.value(EVENTS_EMITTED_TOTAL, benchmark="505.mcf_r") > 0
        assert pooled.value(
            EVENTS_EMITTED_TOTAL, benchmark="505.mcf_r"
        ) == inline.value(EVENTS_EMITTED_TOTAL, benchmark="505.mcf_r")
        assert pooled.value(
            REPLAY_EVENTS_TOTAL, benchmark="505.mcf_r"
        ) == inline.value(REPLAY_EVENTS_TOTAL, benchmark="505.mcf_r")

    def test_worker_cells_total_accounts_for_every_cell(self, sessions):
        pooled = sessions[2]
        total = sum(
            inst.value
            for spec, _key, inst in pooled.collect()
            if spec.name == WORKER_CELLS_TOTAL.name
        )
        assert total == 7


class TestExporters:
    def _reg(self):
        reg = MetricsRegistry()
        reg.counter(CACHE_EVENTS_TOTAL, store="profile", event="hit").inc(3)
        h = reg.histogram(STAGE_SECONDS, benchmark="505.mcf_r", stage="replay")
        for v in (0.002, 0.004, 0.03):
            h.observe(v)
        return reg

    def test_prometheus_structure(self):
        text = render_prometheus(self._reg())
        assert "# HELP repro_cache_events_total" in text
        assert "# TYPE repro_cache_events_total counter" in text
        assert 'repro_cache_events_total{store="profile",event="hit"} 3' in text
        assert "# TYPE repro_stage_seconds histogram" in text
        assert 'le="+Inf"} 3' in text  # cumulative series terminates at +Inf
        assert "repro_stage_seconds_count" in text
        assert "repro_stage_seconds_sum" in text

    def test_prometheus_buckets_are_cumulative(self):
        text = render_prometheus(self._reg())
        values = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_stage_seconds_bucket")
        ]
        assert values == sorted(values)
        assert values[-1] == 3

    def test_table_shows_stage_percentiles(self):
        table = render_metrics_table(self._reg())
        assert "p50" in table and "p95" in table and "p99" in table
        (row,) = [l for l in table.splitlines() if "repro_stage_seconds" in l]
        assert "stage=replay" in row


class TestCatalogLint:
    """Call sites must pass CATALOG specs, never ad-hoc name strings."""

    PATTERNS = (
        re.compile(r"\.(counter|gauge|histogram)\(\s*[\"']"),
        re.compile(r"\bmetrics\.(inc|observe|gauge_set)\(\s*[\"']"),
        re.compile(r"\bmetrics\.(inc|observe|gauge_set)\(\s*f[\"']"),
    )

    def test_no_string_literal_metric_names(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            if path.name == "metrics.py":
                continue  # the catalog module itself (docs mention the rule)
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                for pattern in self.PATTERNS:
                    if pattern.search(line):
                        offenders.append(f"{path.relative_to(SRC)}:{lineno}: {line.strip()}")
        assert not offenders, (
            "metric names must come from repro.core.metrics CATALOG specs, "
            "not string literals:\n" + "\n".join(offenders)
        )

    def test_registry_is_the_only_recorder(self):
        """No second counter store: the registry records every count."""
        # Split so a repo-wide grep for these names finds nothing here.
        pattern = re.compile(
            r"\btelemetry" r"\.(record|counters|totals|reset_counters|snapshot|since|Scope)"
            r"|\bCache" r"Stats\b"
        )
        offenders = [
            f"{path.relative_to(SRC)}:{lineno}: {line.strip()}"
            for path in sorted(SRC.rglob("*.py"))
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)
        ]
        assert not offenders, (
            "counts are recorded through repro.core.metrics only:\n" + "\n".join(offenders)
        )

    def test_catalog_names_are_unique_and_prefixed(self):
        names = [spec.name for spec in metrics.CATALOG.values()]
        assert len(names) == len(set(names))
        assert all(name.startswith("repro_") for name in names)
