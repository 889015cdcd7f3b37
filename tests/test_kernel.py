"""Fuzz the vectorized replay kernels against scalar brute force.

Every function in :mod:`repro.machine.kernel` claims bit-exactness
against the reference dict/bytearray implementations; these tests hold
it to that over randomized streams, including the degenerate shapes
(empty, single element, one set, fully associative, saturated counters)
that the closed-form derivations quietly depend on.
"""

from __future__ import annotations

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.cache import Cache, CacheConfig
from repro.machine.cost import _ORDER_STRIDE, _replay_code_bursts
from repro.machine.kernel import (
    _FILTER_SCALAR_MAX,
    _lru_scalar,
    counter_miss_counts,
    gshare_history,
    left_rank,
    lru_filter,
    lru_hits,
)


def brute_left_rank(values):
    v = list(values)
    return np.array(
        [sum(1 for p in range(q) if v[p] < v[q]) for q in range(len(v))],
        dtype=np.int64,
    )


def counter_flags(idx, taken, table):
    """Per-event mispredict flags: one group per event."""
    n = idx.size
    return counter_miss_counts(idx, taken, table, np.arange(n), n).astype(np.uint8)


def brute_counters(idx, taken, table):
    miss = np.empty(idx.size, dtype=np.uint8)
    for i, (j, t) in enumerate(zip(idx.tolist(), taken.tolist())):
        c = table[j]
        miss[i] = (c >= 2) != bool(t)
        if t:
            if c < 3:
                table[j] = c + 1
        elif c > 0:
            table[j] = c - 1
    return miss


class TestLeftRank:
    def test_empty_and_single(self):
        assert left_rank(np.zeros(0, dtype=np.int64)).size == 0
        assert left_rank(np.array([7], dtype=np.int64)).tolist() == [0]

    def test_sorted_and_reversed(self):
        up = np.arange(100, dtype=np.int64)
        assert np.array_equal(left_rank(up), up)
        assert np.array_equal(left_rank(up[::-1].copy()), np.zeros(100, dtype=np.int64))

    def test_fuzz(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(1, 300))
            v = rng.permutation(10 * n)[:n].astype(np.int64) - 5 * n
            assert np.array_equal(left_rank(v), brute_left_rank(v))


#: Shapes of :func:`lru_streams`, one per path of ``lru_filter``.
LRU_SHAPES = (
    "under the cut-over",
    "eviction-free",
    "short carve",
    "long carve",
    "all conflict",
    "fully associative, under capacity",
    "fully associative, over capacity",
)


#: Line alphabets of the long shapes: narrow ones reach the kernel's
#: bitset path (one word and several), sparse reuse its direct
#: comparison, and wide ones its rank path.
LRU_SPANS = (60, 200, 3000, 20000)

#: Base lengths of the long shapes, in events.
LRU_LONG = (_FILTER_SCALAR_MAX, 8 * _FILTER_SCALAR_MAX, 64 * _FILTER_SCALAR_MAX)


@st.composite
def lru_streams(draw):
    """``(tags, set_mask, assocs)`` for one level, shaped to reach each
    path of :func:`lru_filter`.

    Streams under the scalar cut-over take the dict walk; every other
    shape is at least that long, so it reaches the vector code.
    Eviction-free streams keep each set's distinct lines within the
    smallest associativity.  One conflicting set among quiet ones is
    carved out, its carve shorter or longer than the cut-over.  Nearly
    all-conflict streams go to the stack-distance kernel whole, and so
    do fully associative streams over capacity: of the lengths of
    :data:`LRU_LONG` and over the alphabets of :data:`LRU_SPANS`, they reach each way
    the kernel counts a reuse window.  Fully associative streams under
    capacity touch no more lines than the smallest associativity.  One
    to four associativities are drawn, repeats included.  The events
    themselves come from a seeded generator, so long streams stay cheap
    to draw.
    """
    shape = draw(st.sampled_from(LRU_SHAPES))
    assocs = draw(
        st.lists(st.sampled_from((1, 2, 3, 4, 8, 16, 32)), min_size=1, max_size=4)
    )
    a_min = min(assocs)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cut = _FILTER_SCALAR_MAX
    if shape == "under the cut-over":
        n = draw(st.integers(1, cut - 1))
        set_mask = (1 << draw(st.integers(0, 3))) - 1
        return rng.integers(0, 40, n).astype(np.int64), set_mask, assocs
    if shape == "fully associative, under capacity":
        n = draw(st.integers(cut, 6 * cut))
        return rng.integers(0, a_min, n) * 7 + 3, 0, assocs
    if shape == "fully associative, over capacity":
        n = draw(st.sampled_from(LRU_LONG)) + draw(st.integers(0, cut))
        span = draw(st.sampled_from((a_min + 1, 4 * a_min + 40) + LRU_SPANS))
        tags = rng.integers(0, span, n)
        tags[: a_min + 1] = np.arange(a_min + 1)  # over capacity for sure
        return tags * 7 + 3, 0, assocs
    n_sets = 1 << draw(st.integers(1, 4))
    if shape == "all conflict":
        # every set first touches more lines than the smallest associativity
        seed = np.arange(n_sets * (a_min + 1))
        n = draw(st.sampled_from(LRU_LONG)) + draw(st.integers(0, cut))
        n = max(n, 2 * seed.size)
        span = draw(st.sampled_from((a_min + 1, 2 * a_min + 5) + LRU_SPANS))
        lines = rng.integers(0, span, n)
        sets = rng.integers(0, n_sets, n)
        lines[: seed.size] = seed // n_sets
        sets[: seed.size] = seed % n_sets
        return lines * n_sets + sets, n_sets - 1, assocs
    # quiet sets never hold more lines than the smallest associativity
    n = draw(st.integers(cut if shape == "short carve" else 2 * cut, 6 * cut))
    lines = rng.integers(0, a_min, n)
    if shape == "eviction-free":
        return lines * n_sets + rng.integers(0, n_sets, n), n_sets - 1, assocs
    # one noisy set (set 0) with more lines than the smallest associativity
    sets = rng.integers(1, n_sets, n)
    if shape == "short carve":
        carve = draw(st.integers(a_min + 1, cut - 1))
    else:
        carve = draw(st.integers(cut, (n * 3) // 4))
    noisy = rng.choice(n, size=carve, replace=False)
    sets[noisy] = 0
    span = draw(st.integers(a_min + 1, 4 * a_min + 8))
    lines[noisy] = rng.integers(0, span, carve)
    lines[noisy[: a_min + 1]] = np.arange(a_min + 1)
    return lines * n_sets + sets, n_sets - 1, assocs


def _lru_filter_one(tags, set_mask, assoc):
    """:func:`lru_filter` for a single associativity."""
    (hits,) = lru_filter(tags, set_mask, [assoc])
    return hits


class TestLruKernels:
    @pytest.mark.parametrize(
        "kernel", [lru_hits, _lru_filter_one], ids=["lru_hits", "lru_filter"]
    )
    def test_fuzz_against_dict_walk(self, kernel):
        # 1-499 events straddle the scalar cut-over
        rng = np.random.default_rng(2)
        for trial in range(80):
            n = int(rng.integers(1, 500))
            set_bits = int(rng.integers(0, 4))
            set_mask = (1 << set_bits) - 1 if rng.random() < 0.8 else 0
            assoc = int(rng.integers(1, 9))
            span = int(rng.integers(2, 40))
            tags = rng.integers(0, span, n).astype(np.int64)
            want = _lru_scalar(tags.tolist(), set_mask, assoc)
            got = kernel(tags, set_mask, assoc)
            assert np.array_equal(got, want), f"{kernel.__name__} trial {trial}"

    @given(lru_streams())
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    def test_filter_matches_dict_walk_per_associativity(self, stream):
        tags, set_mask, assocs = stream
        got = lru_filter(tags, set_mask, assocs)
        assert len(got) == len(assocs)
        for assoc, hits in zip(assocs, got):
            want = _lru_scalar(tags.tolist(), set_mask, assoc)
            assert np.array_equal(hits, want), f"lru_filter, {assoc} ways"
            assert np.array_equal(lru_hits(tags, set_mask, assoc), want), (
                f"lru_hits, {assoc} ways"
            )

    def test_filter_vector_path_no_eviction(self):
        # large stream, every set's distinct count <= assoc: pure
        # first-touch rule must run (and agree with the dict walk)
        rng = np.random.default_rng(3)
        tags = rng.integers(0, 64, 5000).astype(np.int64)  # 64 lines, 8 sets
        (got,) = lru_filter(tags, 7, [8])
        assert np.array_equal(got, _lru_scalar(tags.tolist(), 7, 8))

    def test_filter_vector_path_with_conflict_sets(self):
        # force one conflicting set among quiet ones, above the scalar cutoff
        rng = np.random.default_rng(4)
        quiet = rng.integers(0, 32, 4000) * 4 + rng.integers(1, 4, 4000)
        noisy = rng.integers(0, 64, 4000) * 4  # set 0: 64 distinct lines
        tags = np.empty(8000, dtype=np.int64)
        tags[0::2] = quiet
        tags[1::2] = noisy
        got = lru_filter(tags, 3, [4, 16, 64, 4])
        for assoc, hits in zip([4, 16, 64, 4], got):
            assert np.array_equal(hits, _lru_scalar(tags.tolist(), 3, assoc))

    def test_empty(self):
        assert lru_hits(np.zeros(0, dtype=np.int64), 0, 4).size == 0
        (hits,) = lru_filter(np.zeros(0, dtype=np.int64), 0, [4])
        assert hits.size == 0


class TestCounterScan:
    """The counter scan's per-event mispredicts (one group per event)
    and final table against the bytearray walk."""

    def test_fuzz_against_bytearray_walk(self):
        rng = np.random.default_rng(5)
        for trial in range(120):
            n = int(rng.integers(1, 400))
            nslots = int(rng.integers(1, 12))
            idx = rng.integers(0, nslots, n).astype(np.int64)
            bias = (0.9, 0.5, float(rng.random()))[trial % 3]
            taken = (rng.random(n) < bias).astype(np.int64)
            t0 = rng.integers(0, 4, nslots).astype(np.uint8)
            ta, tb = t0.copy(), t0.copy()
            assert np.array_equal(
                counter_flags(idx, taken, ta), brute_counters(idx, taken, tb)
            ), f"miss flags trial {trial}"
            assert np.array_equal(ta, tb), f"table trial {trial}"

    def test_long_biased_stream(self):
        # long same-direction runs exercise the run-compression path
        rng = np.random.default_rng(6)
        n = 50_000
        idx = rng.integers(0, 256, n).astype(np.int64)
        taken = (rng.random(n) < 0.95).astype(np.int64)
        ta = np.ones(256, dtype=np.uint8)
        tb = ta.copy()
        assert np.array_equal(
            counter_flags(idx, taken, ta), brute_counters(idx, taken, tb)
        )
        assert np.array_equal(ta, tb)

    def test_empty(self):
        table = np.ones(4, dtype=np.uint8)
        assert counter_flags(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), table
        ).size == 0
        assert np.array_equal(table, np.ones(4, dtype=np.uint8))


#: Run lengths drawn for a slot: exactly 1, 2 and 3, and at least 4.
RUN_LENGTHS = (1, 2, 3, 4, 7)


#: Slot column dtypes the replay passes (uint16 up to 16 table bits,
#: uint32 above) and the int64 of any other caller.
SLOT_DTYPES = (np.uint16, np.uint32, np.int64)


@st.composite
def counter_streams(draw):
    """``(idx, taken, table, groups, n_groups)`` for one table replay.

    Each slot's outcomes are drawn as alternating runs of exact lengths,
    then the slots' streams are interleaved in a drawn order that keeps
    each slot's own order.  Shapes: runs of every length in
    :data:`RUN_LENGTHS`, strict alternation (all runs of 1), a single
    slot, and all-distinct slots (one event each).  Slots sit spread
    over a table whose counters start anywhere in 0-3.  The slot column
    is drawn in each of :data:`SLOT_DTYPES`; the wider ones may sit
    ``1 << 16`` apart, so a 16-bit truncation would merge them, and
    outcomes are bool or int64 0/1.
    """
    shape = draw(st.sampled_from(("runs", "alternating", "one slot", "distinct")))
    if shape == "distinct":
        runs = [[1]] * draw(st.integers(1, 40))
    else:
        n_slots = 1 if shape == "one slot" else draw(st.integers(2, 8))
        length = st.just(1) if shape == "alternating" else st.sampled_from(RUN_LENGTHS)
        runs = [draw(st.lists(length, min_size=1, max_size=12)) for _ in range(n_slots)]
    per_slot = []
    for lengths in runs:
        outcome = draw(st.integers(0, 1))
        seq = []
        for k in lengths:
            seq += [outcome] * k
            outcome ^= 1
        per_slot.append(seq)
    order = draw(st.permutations([s for s, seq in enumerate(per_slot) for _ in seq]))
    slot_dtype = draw(st.sampled_from(SLOT_DTYPES))
    # 1 << 16 apart, the wider slots agree in all of their low 16 bits
    strides = (1, 2, 3) if slot_dtype is np.uint16 else (1, 2, 3, 1 << 16)
    stride = draw(st.sampled_from(strides))
    n = len(per_slot)
    # counters the stream never reaches must come back unchanged too
    table = np.full(n * stride, draw(st.integers(0, 3)), dtype=np.uint8)
    table[::stride] = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    cursor = [0] * n
    idx, taken = [], []
    for s in order:
        idx.append(s * stride)
        taken.append(per_slot[s][cursor[s]])
        cursor[s] += 1
    n_groups = draw(st.integers(1, 4))
    groups = draw(
        st.lists(st.integers(0, n_groups - 1), min_size=len(idx), max_size=len(idx))
    )
    return (
        np.array(idx, dtype=slot_dtype),
        np.array(taken, dtype=draw(st.sampled_from((bool, np.int64)))),
        table,
        np.array(groups, dtype=np.int64),
        n_groups,
    )


class TestCounterMissCounts:
    """The batched replay's counts kernel against the bytearray walk."""

    @given(counter_streams())
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    def test_counts_match_brute_force_per_method(self, stream):
        idx, taken, table, groups, n_groups = stream
        want_table = table.copy()
        flags = brute_counters(idx, taken, want_table)
        want = np.bincount(groups, weights=flags, minlength=n_groups).astype(np.int64)
        counted, flagged = table.copy(), table.copy()
        assert np.array_equal(
            counter_miss_counts(idx, taken, counted, groups, n_groups), want
        )
        assert np.array_equal(counted, want_table)
        assert np.array_equal(counter_flags(idx, taken, flagged), flags)
        assert np.array_equal(flagged, want_table)

    def test_empty(self):
        table = np.ones(4, dtype=np.uint8)
        empty = np.zeros(0, dtype=np.int64)
        got = counter_miss_counts(empty, empty, table, empty, 3)
        assert got.tolist() == [0, 0, 0]
        assert np.array_equal(table, np.ones(4, dtype=np.uint8))


class TestGshareHistory:
    def test_matches_scalar_shift_register(self):
        # every depth a MachineConfig allows, over streams shorter than,
        # as long as and longer than the history, bool and int64
        rng = np.random.default_rng(7)
        for bits in range(25):
            mask = (1 << bits) - 1
            for n in sorted({0, 1, 2, max(bits - 1, 0), bits, bits + 1, 3 * bits + 5, 200}):
                for dtype in (bool, np.int64):
                    taken = rng.integers(0, 2, n).astype(dtype)
                    got = gshare_history(taken, bits)
                    assert got.dtype == (np.uint16 if bits <= 16 else np.uint32)
                    assert got.size == n
                    h = 0  # a fresh predictor's history
                    for i in range(n):
                        assert got[i] == h, f"{bits} bits, n={n}, event {i}"
                        h = ((h << 1) | int(taken[i])) & mask

    def test_deeper_column_masked_is_the_shallower_column(self):
        # From history 0, a shallower predictor's history is the low
        # bits of a deeper one's, so one column serves every depth.
        rng = np.random.default_rng(9)
        for _ in range(60):
            n = int(rng.integers(0, 200))
            deep = int(rng.integers(0, 25))
            shallow = int(rng.integers(0, deep + 1))
            taken = rng.integers(0, 2, n).astype(np.int64)
            masked = gshare_history(taken, deep) & ((1 << shallow) - 1)
            assert np.array_equal(masked, gshare_history(taken, shallow))


class TestCodeBursts:
    def test_fuzz_against_per_line_walk(self):
        rng = np.random.default_rng(8)
        exact = 0
        for trial in range(60):
            n_m = int(rng.integers(1, 9))
            assoc = int(rng.integers(1, 9))
            code_base = (rng.integers(0, 1 << 20, n_m) << 6).astype(np.int64)
            code_blocks = rng.integers(1, 200, n_m).astype(np.int64)
            k = int(rng.integers(1, 100))
            c_midx = rng.integers(0, n_m, k).astype(np.int64)
            c_key = np.arange(k, dtype=np.int64) * _ORDER_STRIDE
            l1i = Cache(
                CacheConfig(
                    size_bytes=64 * assoc * 64,
                    line_bytes=64,
                    associativity=assoc,
                    name="L1I",
                )
            )
            n_sets = l1i.config.n_sets
            res = _replay_code_bursts(c_midx, c_key, code_base, code_blocks, l1i)

            sets: dict = {}
            hits = misses = 0
            b_addr, b_attr, b_key = [], [], []
            for bi in range(k):
                m = int(c_midx[bi])
                for w in range(int(code_blocks[m])):
                    line = (int(code_base[m]) >> 6) + w
                    lset = sets.setdefault(line & (n_sets - 1), {})
                    if line in lset:
                        del lset[line]
                        lset[line] = None
                        hits += 1
                    else:
                        misses += 1
                        if len(lset) >= assoc:
                            lset.pop(next(iter(lset)))
                        lset[line] = None
                        b_addr.append(line << 6)
                        b_attr.append(m)
                        b_key.append(int(c_key[bi]) + 1 + w)
            if res is None:
                continue  # legitimate fallback (shared lines)
            exact += 1
            n_hits, n_misses, miss_addr, miss_attr, miss_key = res
            assert (n_hits, n_misses) == (hits, misses), f"counts trial {trial}"
            o1 = np.argsort(miss_key)
            o2 = np.argsort(np.asarray(b_key, dtype=np.int64))
            assert np.array_equal(miss_key[o1], np.asarray(b_key, dtype=np.int64)[o2])
            assert np.array_equal(miss_addr[o1], np.asarray(b_addr, dtype=np.int64)[o2])
            assert np.array_equal(miss_attr[o1], np.asarray(b_attr, dtype=np.int64)[o2])
        assert exact >= 40  # the fast path must actually engage
