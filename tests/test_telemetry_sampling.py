"""Sampling-accuracy tests for the telemetry event stream.

The probe keeps exact per-method counters but decimates the replayed
event stream once it crosses a cap.  The cost model extrapolates
*rates* from the sampled stream to the exact counts, so the sampled
rates must track the unsampled ones.
"""

import copy
import random

import numpy as np
import pytest

from repro.machine.cost import CostModel
from repro.machine.telemetry import Probe


def _fill(probe: Probe, n_events: int, seed: int = 5) -> None:
    rng = random.Random(seed)
    with probe.method("m"):
        probe.ops(n_events)
        probe.branches((rng.random() < 0.7 for _ in range(n_events)), site=1)
        probe.accesses([rng.randrange(1 << 21) for _ in range(n_events)])


class TestDecimation:
    def test_stream_stays_bounded(self):
        probe = Probe(event_cap=4096)
        _fill(probe, 100_000)
        assert len(probe.events) <= 4096
        assert probe.sampling_stride >= 16

    def test_exact_counters_survive_decimation(self):
        probe = Probe(event_cap=4096)
        _fill(probe, 50_000)
        mc = probe.methods()[0]
        assert mc.branches == 50_000
        assert mc.loads == 50_000

    def test_sampled_rates_track_full_rates(self):
        """Mispredict/bad-spec fractions from a heavily decimated stream
        must approximate the undecimated result."""
        full = Probe(event_cap=1 << 20)  # effectively no decimation
        _fill(full, 60_000)
        sampled = Probe(event_cap=4096)
        _fill(sampled, 60_000)

        rep_full = CostModel().evaluate(full)
        rep_sampled = CostModel().evaluate(sampled)

        assert rep_sampled.topdown.bad_speculation == pytest.approx(
            rep_full.topdown.bad_speculation, rel=0.35
        )
        assert rep_sampled.topdown.back_end == pytest.approx(
            rep_full.topdown.back_end, rel=0.35
        )
        # Absolute cycles are NOT preserved: decimation strips temporal
        # locality from the address stream and history correlation from
        # the branch stream, so miss/mispredict rates — and cycles —
        # are conservatively overestimated.  Only the category
        # *fractions* (what Table II reports) are stable.
        assert rep_sampled.cycles >= rep_full.cycles * 0.8

    def test_small_cap_rejected(self):
        with pytest.raises(ValueError):
            Probe(event_cap=64)

    def test_decimation_preserves_event_mix(self):
        """Uniform decimation keeps branch/data event proportions."""
        probe = Probe(event_cap=4096)
        _fill(probe, 80_000)
        kinds = [e[1] for e in probe.events]
        n_branch = sum(1 for k in kinds if k == 0)
        n_data = sum(1 for k in kinds if k == 1)
        # equal numbers were recorded; the sample must stay near 50/50
        assert abs(n_branch - n_data) < 0.2 * (n_branch + n_data)


def _scalar_reference(probe: Probe, branches, addrs) -> None:
    """Record the same events one at a time (the historical path)."""
    with probe.method("m"):
        for t in branches:
            probe.branch(bool(t), site=1)
        for a in addrs:
            probe.load(int(a))


def _streams_equal(a: Probe, b: Probe) -> bool:
    ca, cb = a.events.columns(), b.events.columns()
    return a.sampling_stride == b.sampling_stride and all(
        np.array_equal(x, y) for x, y in zip(ca, cb)
    )


class TestVectorDecimationEdges:
    """The vector append path must be event-for-event identical to the
    scalar one, including when the cap trips mid-call."""

    def test_cap_hit_mid_bulk_call(self):
        # one bulk call large enough to cross the cap several times
        rng = np.random.default_rng(0)
        outcomes = rng.random(9000) < 0.6
        addrs = rng.integers(0, 1 << 20, 9000)
        vec, ref = Probe(event_cap=1024), Probe(event_cap=1024)
        with vec.method("m"):
            vec.branches(outcomes, site=1)
            vec.accesses(addrs)
        _scalar_reference(ref, outcomes.tolist(), addrs.tolist())
        # second bulk: loads recorded after branches in the ref probe too
        assert vec.sampling_stride > 1
        assert _streams_equal(vec, ref)

    def test_stride_doubles_during_vector_append(self):
        probe = Probe(event_cap=1024)
        rng = np.random.default_rng(1)
        with probe.method("m"):
            assert probe.sampling_stride == 1
            probe.accesses(rng.integers(0, 1 << 16, 5000))
            stride_after_first = probe.sampling_stride
            assert stride_after_first >= 4  # doubled repeatedly mid-call
            probe.accesses(rng.integers(0, 1 << 16, 5000))
            assert probe.sampling_stride >= stride_after_first
        assert len(probe.events) < 1024

    def test_scalar_and_vector_paths_interleave_consistently(self):
        # alternate bulk and per-event recording; the composite stream
        # must match an all-scalar probe fed the same event sequence
        rng = np.random.default_rng(2)
        chunks = [rng.integers(0, 1 << 18, int(n)) for n in rng.integers(1, 700, 40)]
        mixed, ref = Probe(event_cap=2048), Probe(event_cap=2048)
        with mixed.method("m"), ref.method("m"):
            for i, chunk in enumerate(chunks):
                if i % 2:
                    mixed.accesses(chunk)
                else:
                    for a in chunk.tolist():
                        mixed.load(a)
                for a in chunk.tolist():
                    ref.load(a)
        assert _streams_equal(mixed, ref)

    def test_bulk_calls_match_scalar_without_decimation(self):
        rng = np.random.default_rng(3)
        outcomes = rng.random(500) < 0.5
        addrs = rng.integers(0, 1 << 20, 500)
        vec, ref = Probe(), Probe()
        with vec.method("m"):
            vec.branches(outcomes, site=1)
            vec.accesses(addrs)
        _scalar_reference(ref, outcomes.tolist(), addrs.tolist())
        assert vec.sampling_stride == 1
        assert _streams_equal(vec, ref)


class TestProbeApi:
    def test_events_view_is_read_only(self):
        probe = Probe()
        with probe.method("m"):
            probe.load(64)
        view = probe.events
        assert not hasattr(view, "append")
        with pytest.raises(AttributeError):
            view.append((0, 1, 128, 0))  # type: ignore[attr-defined]
        with pytest.raises(TypeError):
            view[0] = (0, 1, 128, 0)  # type: ignore[index]

    def test_columns_are_snapshots(self):
        probe = Probe()
        with probe.method("m"):
            probe.load(64)
            _, _, a, _ = probe.events.columns()
            probe.load(128)  # must not raise BufferError, must not alias
        assert a.tolist()[-1] == 64
        assert probe.events[-1][2] == 128

    def test_replace_events_is_the_mutation_path(self):
        probe = Probe()
        with probe.method("m"):
            probe.load(64)
            probe.load(128)
        kept = [e for e in probe.events if e[2] == 64]
        probe.replace_events(kept)
        assert list(probe.events) == kept

    def test_method_by_index(self):
        probe = Probe()
        names = [f"m{i}" for i in range(50)]
        for name in names:
            probe.register(name)
        for i, name in enumerate(names):
            assert probe.method_by_index(i) is probe.methods()[i]
            assert probe.method_by_index(i).name == name
        with pytest.raises(KeyError):
            probe.method_by_index(len(names))

    @pytest.mark.parametrize("store", [False, True])
    def test_generator_batch_records_like_the_list(self, store):
        addrs = [8 * i for i in range(1, 3000)]
        gen, ref = Probe(event_cap=1024), Probe(event_cap=1024)
        with gen.method("m"), ref.method("m"):
            gen.accesses((a for a in addrs), store=store)
            ref.accesses(addrs, store=store)
        assert ref.methods()[0].data_accesses == len(addrs)
        assert gen.methods() == ref.methods()
        assert gen._tick == ref._tick
        assert _streams_equal(gen, ref)

    @pytest.mark.parametrize("batch", [[2**63], [8, 16, 2**63], [-(2**63) - 1, 8]])
    @pytest.mark.parametrize("store", [False, True])
    def test_out_of_range_batch_changes_nothing(self, batch, store):
        probe = Probe()
        with probe.method("m"):
            probe.load(64)
            probe.branches([True, False], site=1)

            def state():
                columns = [c.tolist() for c in probe.events.columns()]
                return probe._tick, probe.sampling_stride, columns, probe.methods()

            before = copy.deepcopy(state())
            with pytest.raises(OverflowError):
                probe.accesses(batch, store=store)
            assert state() == before


class TestAttribution:
    def test_costs_attributed_to_emitting_method(self):
        rng = random.Random(2)
        probe = Probe()
        with probe.method("mem_hog"):
            probe.ops(100)
            probe.accesses([rng.randrange(1 << 24) for _ in range(20_000)])
        with probe.method("branch_hog"):
            probe.ops(100)
            probe.branches((rng.random() < 0.5 for _ in range(20_000)), site=2)
        rep = CostModel().evaluate(probe)
        mem = rep.per_method["mem_hog"]
        br = rep.per_method["branch_hog"]
        assert mem.backend_cycles > 10 * br.backend_cycles
        assert br.bad_spec_cycles > 10 * mem.bad_spec_cycles

    def test_calls_attributed_to_callee(self):
        probe = Probe()
        for _ in range(400):
            with probe.method("big", code_bytes=8192):
                probe.ops(10)
            with probe.method("tiny", code_bytes=64):
                probe.ops(10)
        rep = CostModel().evaluate(probe)
        assert (
            rep.per_method["big"].frontend_cycles
            > rep.per_method["tiny"].frontend_cycles
        )
