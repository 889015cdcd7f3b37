"""Cycle-accounting cost model mapping telemetry to top-down categories.

This is the stand-in for the Intel top-down hardware counters used in
Section V-B of the paper.  The model replays the probe's sampled event
stream through a branch predictor and a cache hierarchy, extrapolates
the observed misprediction and miss *rates* to the exact event counts,
and then accounts cycles into the four top-down categories:

* **retiring** — issued micro-ops divided by the pipeline width;
* **bad speculation** — wrong-path micro-ops squashed on each branch
  misprediction;
* **front-end bound** — fetch bubbles from instruction-cache misses and
  pipeline refill after mispredictions;
* **back-end bound** — stall cycles from data-cache/TLB misses (scaled
  by a memory-level-parallelism factor) and long-latency floating-point
  operations.

All four components are attributed to the method whose events caused
them, which also yields the method-coverage profile of Section V-C.

The replay is a batched, per-kind kernel over the probe's columnar
event stream: branch events (the only events that touch predictor
state) are split out with one NumPy mask and replayed through the
vectorized counter/history scans in :mod:`repro.machine.kernel`; data
accesses go through the closed-form LRU filters, with only the
genuinely order-dependent residue (conflicting L1D sets, shared
L2/LLC state) walked scalar in its original interleaving;
instruction-fetch bursts are deduplicated to unique
(callee, footprint-window) pairs and resolved once per pair
(``_replay_code_bursts``).  Rate extrapolation then runs vectorized
over methods.  Results are bit-identical to the historical scalar loop
(``tests/test_golden_equivalence.py``); replay volume and wall time
are recorded in the metrics registry by the callers that time a whole
evaluation (:func:`~repro.machine.capture.replay_capture`).  See
DESIGN.md §9.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.coverage import CoverageProfile
from ..core.topdown import TopDownVector
from .branch import BimodalPredictor, GsharePredictor
from .cache import CacheGeometry, CacheHierarchy, HierarchyStats
from .kernel import lru_filter
from .telemetry import EV_BRANCH, EV_DATA, MethodCounters, Probe

__all__ = ["MachineConfig", "MethodCost", "CostModel", "MachineReport"]

# Cap on synthesized instruction-fetch blocks per sampled call, so one
# giant method cannot dominate replay cost.
_MAX_FETCH_BLOCKS = 256

# Below this many cache accesses (data events plus synthesized fetch
# blocks) the scalar dict walk beats the vectorized stack-distance
# kernel's fixed overhead.
_VECTOR_MIN_ACCESSES = 2048

# Merge key stride for interleaving data accesses and per-call fetch
# blocks in original order; must exceed _MAX_FETCH_BLOCKS + 1.
_ORDER_STRIDE = 260


@dataclass(frozen=True)
class MachineConfig:
    """Microarchitectural parameters (defaults modelled on an i7-2600)."""

    width: int = 4
    clock_ghz: float = 3.4
    predictor: str = "gshare"
    predictor_table_bits: int = 14
    predictor_history_bits: int = 12
    wrongpath_uops: float = 16.0
    refill_cycles: float = 2.0
    l2_latency: float = 12.0
    llc_latency: float = 30.0
    mem_latency: float = 180.0
    mlp: float = 4.0
    fetch_overlap: float = 2.0
    tlb_walk_cycles: float = 30.0
    fp_backend_stall: float = 0.10
    fpdiv_backend_stall: float = 12.0
    call_overhead_uops: float = 4.0
    #: Cache/TLB geometry; the default matches the historical
    #: hard-coded i7-2600 hierarchy bit-for-bit.
    geometry: CacheGeometry = CacheGeometry()

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("width must be >= 1")
        if self.clock_ghz <= 0:
            raise ValueError("clock_ghz must be positive")
        if self.predictor not in ("gshare", "bimodal"):
            raise ValueError(f"unknown predictor {self.predictor!r}")
        if self.mlp < 1.0 or self.fetch_overlap < 1.0:
            raise ValueError("mlp and fetch_overlap must be >= 1")

    def make_predictor(self) -> GsharePredictor | BimodalPredictor:
        if self.predictor == "gshare":
            return GsharePredictor(self.predictor_table_bits, self.predictor_history_bits)
        return BimodalPredictor(self.predictor_table_bits)


@dataclass
class MethodCost:
    """Per-method cycle accounting and derived statistics."""

    name: str
    uops: float = 0.0
    retiring_cycles: float = 0.0
    bad_spec_cycles: float = 0.0
    frontend_cycles: float = 0.0
    backend_cycles: float = 0.0
    est_mispredicts: float = 0.0
    est_data_misses: float = 0.0

    @property
    def total_cycles(self) -> float:
        return (
            self.retiring_cycles
            + self.bad_spec_cycles
            + self.frontend_cycles
            + self.backend_cycles
        )


@dataclass
class MachineReport:
    """Everything the cost model derives from one execution's telemetry."""

    topdown: TopDownVector
    coverage: CoverageProfile
    cycles: float
    seconds: float
    per_method: dict[str, MethodCost]
    cache_stats: HierarchyStats
    branch_misprediction_rate: float
    sampling_stride: int
    counters: dict[str, float] = field(default_factory=dict)


class _ReplayTallies:
    """Per-method-slot tallies from one replay of the event stream."""

    __slots__ = (
        "branches", "mispredicts",
        "data", "d_l2", "d_llc", "d_mem", "d_tlb",
        "calls", "c_l2", "c_llc", "c_mem",
    )

    def __init__(self, n_methods: int) -> None:
        self.branches = np.zeros(n_methods, dtype=np.int64)
        self.mispredicts = np.zeros(n_methods, dtype=np.int64)
        self.data = [0] * n_methods
        self.d_l2 = [0] * n_methods
        self.d_llc = [0] * n_methods
        self.d_mem = [0] * n_methods
        self.d_tlb = [0] * n_methods
        self.calls = [0] * n_methods
        self.c_l2 = [0] * n_methods
        self.c_llc = [0] * n_methods
        self.c_mem = [0] * n_methods


def _stream_columns(probe: Probe) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The probe's event stream as four int64 columns.

    Falls back to tuple unpacking for foreign probes whose ``events``
    is a plain iterable of 4-tuples.
    """
    events = probe.events
    columns = getattr(events, "columns", None)
    if columns is not None:
        return columns()
    rows = list(events)
    if not rows:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, empty
    arr = np.asarray(rows, dtype=np.int64)
    return arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]


def _replay_stream(
    probe: Probe,
    predictor: GsharePredictor | BimodalPredictor,
    hierarchy: CacheHierarchy,
    n_methods: int,
) -> _ReplayTallies:
    """Replay the sampled, order-preserving event stream.

    Branch events only touch predictor state, so they are extracted
    with one mask and replayed in the predictor's batch loop; data and
    call events share L2/LLC state and are walked in their original
    interleaved order with the cache bookkeeping inlined.
    """
    midx, kind, a_col, b_col = _stream_columns(probe)
    tallies = _ReplayTallies(n_methods)

    # --- branch events: batch through the predictor -----------------------
    branch_sel = kind == EV_BRANCH
    if branch_sel.any():
        b_midx = midx[branch_sel]
        miss = predictor.replay(a_col[branch_sel], b_col[branch_sel])
        miss_np = np.frombuffer(miss, dtype=np.uint8)
        tallies.branches = np.bincount(b_midx, minlength=n_methods)
        tallies.mispredicts = np.bincount(
            b_midx, weights=miss_np, minlength=n_methods
        ).astype(np.int64)

    # --- data + instruction-fetch events -----------------------------------
    mem_sel = ~branch_sel
    if not mem_sel.any():
        return tallies

    # per-call code-fetch geometry, pre-resolved per method slot
    code_base = np.zeros(n_methods, dtype=np.int64)
    code_blocks = np.zeros(n_methods, dtype=np.int64)
    for mc in probe.methods():
        code_base[mc.index] = mc.code_base
        code_blocks[mc.index] = min(max(1, mc.code_bytes // 64), _MAX_FETCH_BLOCKS)

    # the store flag (column b) does not affect replay: caches are
    # write-allocate, so loads and stores take the same path
    m_midx = midx[mem_sel]
    m_kind = kind[mem_sel]
    m_a = a_col[mem_sel]
    data_sel = m_kind == EV_DATA
    n_accesses = int(data_sel.sum()) + int(code_blocks[m_a[~data_sel]].sum())
    if n_accesses >= _VECTOR_MIN_ACCESSES:
        _replay_mem_vector(
            tallies, hierarchy, n_methods, m_midx, m_a, data_sel, code_base, code_blocks
        )
    else:
        _replay_mem_scalar(
            tallies,
            hierarchy,
            m_midx.tolist(),
            m_kind.tolist(),
            m_a.tolist(),
            code_base.tolist(),
            code_blocks.tolist(),
        )
    return tallies


def _replay_mem_scalar(
    tallies: _ReplayTallies,
    hierarchy: CacheHierarchy,
    m_list: list[int],
    k_list: list[int],
    a_list: list[int],
    code_base: list[int],
    code_blocks: list[int],
) -> None:
    """In-order dict walk of the data/fetch stream (short streams)."""
    # pre-resolved cache state: set tables, geometry, local hit counters
    l1d, l1i, l2, llc, dtlb = (
        hierarchy.l1d, hierarchy.l1i, hierarchy.l2, hierarchy.llc, hierarchy.dtlb
    )
    l1d_sets, l1d_mask, l1d_shift, l1d_assoc = (
        l1d._sets, l1d._set_mask, l1d._line_shift, l1d.config.associativity
    )
    l1i_sets, l1i_mask, l1i_shift, l1i_assoc = (
        l1i._sets, l1i._set_mask, l1i._line_shift, l1i.config.associativity
    )
    l2_sets, l2_mask, l2_shift, l2_assoc = (
        l2._sets, l2._set_mask, l2._line_shift, l2.config.associativity
    )
    llc_sets, llc_mask, llc_shift, llc_assoc = (
        llc._sets, llc._set_mask, llc._line_shift, llc.config.associativity
    )
    tlb_map, tlb_shift, tlb_entries = dtlb._map, dtlb._page_shift, dtlb.entries
    l1d_hits = l1d_misses = l1i_hits = l1i_misses = 0
    l2_hits = l2_misses = llc_hits = llc_misses = 0
    tlb_hits = tlb_misses = 0

    data_ct = tallies.data
    d_l2_ct, d_llc_ct, d_mem_ct, d_tlb_ct = (
        tallies.d_l2, tallies.d_llc, tallies.d_mem, tallies.d_tlb
    )
    calls_ct = tallies.calls
    c_l2_ct, c_llc_ct, c_mem_ct = tallies.c_l2, tallies.c_llc, tallies.c_mem

    for mi, kd, av in zip(m_list, k_list, a_list):
        if kd == EV_DATA:
            data_ct[mi] += 1
            page = av >> tlb_shift
            if page in tlb_map:
                del tlb_map[page]
                tlb_map[page] = None
                tlb_hits += 1
            else:
                tlb_misses += 1
                if len(tlb_map) >= tlb_entries:
                    tlb_map.pop(next(iter(tlb_map)))
                tlb_map[page] = None
                d_tlb_ct[mi] += 1
            tag = av >> l1d_shift
            lset = l1d_sets[tag & l1d_mask]
            if tag in lset:
                del lset[tag]
                lset[tag] = None
                l1d_hits += 1
                continue
            l1d_misses += 1
            if len(lset) >= l1d_assoc:
                lset.pop(next(iter(lset)))
            lset[tag] = None
            tag = av >> l2_shift
            lset = l2_sets[tag & l2_mask]
            if tag in lset:
                del lset[tag]
                lset[tag] = None
                l2_hits += 1
                d_l2_ct[mi] += 1
                continue
            l2_misses += 1
            if len(lset) >= l2_assoc:
                lset.pop(next(iter(lset)))
            lset[tag] = None
            tag = av >> llc_shift
            lset = llc_sets[tag & llc_mask]
            if tag in lset:
                del lset[tag]
                lset[tag] = None
                llc_hits += 1
                d_llc_ct[mi] += 1
            else:
                llc_misses += 1
                if len(lset) >= llc_assoc:
                    lset.pop(next(iter(lset)))
                lset[tag] = None
                d_mem_ct[mi] += 1
        else:  # EV_CALL: synthesize instruction fetches for the callee
            calls_ct[av] += 1
            base = code_base[av]
            for i in range(code_blocks[av]):
                addr = base + i * 64
                tag = addr >> l1i_shift
                lset = l1i_sets[tag & l1i_mask]
                if tag in lset:
                    del lset[tag]
                    lset[tag] = None
                    l1i_hits += 1
                    continue
                l1i_misses += 1
                if len(lset) >= l1i_assoc:
                    lset.pop(next(iter(lset)))
                lset[tag] = None
                tag = addr >> l2_shift
                lset = l2_sets[tag & l2_mask]
                if tag in lset:
                    del lset[tag]
                    lset[tag] = None
                    l2_hits += 1
                    c_l2_ct[av] += 1
                    continue
                l2_misses += 1
                if len(lset) >= l2_assoc:
                    lset.pop(next(iter(lset)))
                lset[tag] = None
                tag = addr >> llc_shift
                lset = llc_sets[tag & llc_mask]
                if tag in lset:
                    del lset[tag]
                    lset[tag] = None
                    llc_hits += 1
                    c_llc_ct[av] += 1
                else:
                    llc_misses += 1
                    if len(lset) >= llc_assoc:
                        lset.pop(next(iter(lset)))
                    lset[tag] = None
                    c_mem_ct[av] += 1

    # write the locally-accumulated counters back to the cache objects
    l1d.hits += l1d_hits
    l1d.misses += l1d_misses
    l1i.hits += l1i_hits
    l1i.misses += l1i_misses
    l2.hits += l2_hits
    l2.misses += l2_misses
    llc.hits += llc_hits
    llc.misses += llc_misses
    dtlb.hits += tlb_hits
    dtlb.misses += tlb_misses


def _replay_code_bursts(
    c_midx: np.ndarray,
    c_key: np.ndarray,
    code_base: np.ndarray,
    code_blocks: np.ndarray,
    l1i,
):
    """Exact burst-granular L1I replay; ``None`` if preconditions fail.

    A call expands to a *fixed* sequence of fetch blocks for its callee,
    so the L1I line stream is a sequence of per-method bursts.  When no
    two methods share a line (checked), a burst's lines in one set are
    all hits or all misses together: a line's LRU window spans its own
    burst's other lines in that set plus every line of the *distinct*
    intervening methods, so it hits iff
    ``c[m, s] - 1 + sum(c[m', s] for distinct intervening m') < assoc``
    — one decision per (burst, set) instead of per line.  Intervening
    method sets come from bitmask ORs over inter-occurrence windows
    (``np.bitwise_or.reduceat``), which caps distinct callees at 64;
    streams with more fall back to the generic per-line path.

    ``c_key`` is each burst's pre-scaled merge key (original position
    times ``_ORDER_STRIDE``).  Returns ``(hits, misses, miss_addr,
    miss_attr, miss_key)`` where the arrays describe the per-line L2
    traffic of missing bursts; ``miss_addr`` carries the line address
    (low bits zero), which every lower level reduces by the same
    64-byte line shift.
    """
    if l1i.config.line_bytes != 64:
        # burst lines are ``(base >> shift) + within``, i.e. one line
        # per 64-byte fetch block — with wider lines adjacent blocks
        # share a line (MRU hits the scalar walk models), so fall back
        # to the per-line filter, which is exact for any line size
        return None
    uniq = np.unique(c_midx)
    if uniq.size > 64:
        return None
    n_sets = l1i.config.n_sets
    set_mask = l1i._set_mask
    shift = l1i._line_shift
    assoc = l1i.config.associativity
    k = c_midx.size

    # per-method line geometry, grouped by set
    c_mat = np.zeros((uniq.size, n_sets), dtype=np.int64)
    offs = np.zeros((uniq.size, n_sets + 1), dtype=np.int64)
    grouped_lines = []
    grouped_within = []
    total = 0
    for j, m in enumerate(uniq.tolist()):
        b = int(code_blocks[m])
        within = np.arange(b, dtype=np.int64)
        lines = (int(code_base[m]) >> shift) + within
        sets = lines & set_mask
        order = np.argsort(sets * b + within)
        grouped_lines.append(lines[order])
        grouped_within.append(within[order])
        cnt = np.bincount(sets, minlength=n_sets)
        c_mat[j] = cnt
        offs[j, 0] = total
        offs[j, 1:] = total + np.cumsum(cnt)
        total += b
    all_lines = np.concatenate(grouped_lines)
    if np.unique(all_lines).size != all_lines.size:
        return None  # methods share a line: window counts would double
    all_within = np.concatenate(grouped_within)

    # distinct-method masks of each inter-occurrence window
    uidx = np.searchsorted(uniq, c_midx)
    masks = np.uint64(1) << uidx.astype(np.uint64)
    exists_prev = np.zeros(k, dtype=bool)
    window = np.zeros(k, dtype=np.uint64)
    for j in range(uniq.size):
        p = np.flatnonzero(uidx == j)
        if p.size < 2:
            continue
        exists_prev[p[1:]] = True
        bounds = np.empty(2 * (p.size - 1), dtype=np.int64)
        bounds[0::2] = p[:-1] + 1
        bounds[1::2] = p[1:]
        # empty windows (adjacent occurrences) reduce to the burst's own
        # mask, which the self-bit clear below zeroes out
        w = np.bitwise_or.reduceat(masks, bounds)[0::2]
        window[p[1:]] = w & ~(np.uint64(1) << np.uint64(j))

    # Bursts with the same callee and the same intervening-method mask
    # have identical per-set decisions, so resolve hit/miss rows once
    # per unique (method, window) pair — typically a few dozen pairs
    # for tens of thousands of bursts — and broadcast back.
    uw, winv = np.unique(window, return_inverse=True)
    u = uniq.size
    table_w = np.zeros((uw.size + 1, n_sets), dtype=np.int64)
    for j in range(u):
        present = (uw >> np.uint64(j)) & np.uint64(1) != 0
        if present.any():
            table_w[:-1][present] += c_mat[j]
    # first-occurrence bursts get the sentinel pseudo-window: never hit
    qid = np.where(exists_prev, winv, uw.size) * u + uidx
    uq, qinv = np.unique(qid, return_inverse=True)
    q_m = uq % u
    q_w = uq // u
    q_touch = c_mat[q_m]
    q_hit = (q_touch > 0) & (q_touch - 1 + table_w[q_w] < assoc)
    q_hit[q_w == uw.size] = False
    q_hitw = (q_touch * q_hit).sum(axis=1)
    q_burst = q_touch.sum(axis=1)
    n_hits = int(q_hitw[qinv].sum())
    n_misses = int(q_burst[qinv].sum()) - n_hits

    # expand missing (burst, set) cells to their line-level L2 traffic:
    # per unique pair, the missing lines are a fixed index list into the
    # grouped line table, shared by every burst of that pair
    q_miss = (q_touch > 0) & ~q_hit
    # Expand every missing (pair, set) cell's line-index range in one
    # flat gather: np.nonzero walks row-major, so segments stay grouped
    # by pair, and one keyed sort puts each pair's lines in fetch order
    # — miss_key then comes out globally sorted and the L2 merge below
    # needs no sort of its own.
    qi_idx, s_idx = np.nonzero(q_miss)
    seg_lo = offs[q_m[qi_idx], s_idx]
    seg_len = offs[q_m[qi_idx], s_idx + 1] - seg_lo
    seg_cum = np.zeros(seg_len.size + 1, dtype=np.int64)
    np.cumsum(seg_len, out=seg_cum[1:])
    ramp = np.arange(seg_cum[-1], dtype=np.int64) - np.repeat(seg_cum[:-1], seg_len)
    flat_all = np.repeat(seg_lo, seg_len) + ramp
    rep_qi = np.repeat(qi_idx, seg_len)
    flat_src = flat_all[np.argsort(rep_qi * _ORDER_STRIDE + all_within[flat_all])]
    pair_lens = np.zeros(uq.size, dtype=np.int64)
    np.add.at(pair_lens, qi_idx, seg_len)
    pair_offs = np.zeros(uq.size + 1, dtype=np.int64)
    np.cumsum(pair_lens, out=pair_offs[1:])
    lens_b = pair_lens[qinv]
    n_lines = int(lens_b.sum())
    if not n_lines:
        empty = np.zeros(0, dtype=np.int64)
        return n_hits, n_misses, empty, empty, empty
    starts_b = np.zeros(k, dtype=np.int64)
    np.cumsum(lens_b[:-1], out=starts_b[1:])
    runs = np.arange(n_lines, dtype=np.int64) - np.repeat(starts_b, lens_b)
    src = flat_src[np.repeat(pair_offs[qinv], lens_b) + runs]
    miss_addr = all_lines[src] << shift
    miss_attr = np.repeat(c_midx, lens_b)
    miss_key = np.repeat(c_key, lens_b) + 1 + all_within[src]
    return n_hits, n_misses, miss_addr, miss_attr, miss_key


def _replay_mem_vector(
    tallies: _ReplayTallies,
    hierarchy: CacheHierarchy,
    n_methods: int,
    m_midx: np.ndarray,
    m_a: np.ndarray,
    data_sel: np.ndarray,
    code_base: np.ndarray,
    code_blocks: np.ndarray,
) -> None:
    """Vectorized walk of the data/fetch stream.

    Data events repeating the previous data event's cache line are MRU
    hits in both the dTLB and the L1D with no state change, so they are
    dropped up front.  Each private level (dTLB, L1D) then filters its
    residual stream with one :func:`~repro.machine.kernel.lru_filter`
    call; the L1I replays call bursts at burst granularity
    (:func:`_replay_code_bursts`) when its preconditions hold.  L1
    misses are merged back into original program order (data and code
    share the L2/LLC) and cascaded through L2 then LLC.  Hit/miss
    decisions, final stats, and per-method tallies are bit-identical to
    the scalar dict walk.
    """
    l1d, l1i, l2, llc, dtlb = (
        hierarchy.l1d, hierarchy.l1i, hierarchy.l2, hierarchy.llc, hierarchy.dtlb
    )
    pos = np.arange(m_a.size, dtype=np.int64)

    d_midx = m_midx[data_sel]
    d_addr = m_a[data_sel]
    nd = d_addr.size
    tallies.data = np.bincount(d_midx, minlength=n_methods)

    if nd:
        # consecutive same-line data events: MRU hits with no state
        # change in the dTLB (same line implies same page) or L1D
        d_lines = d_addr >> l1d._line_shift
        dup = np.zeros(nd, dtype=bool)
        dup[1:] = d_lines[1:] == d_lines[:-1]
        n_dup = int(dup.sum())
        if n_dup:
            keep = ~dup
            r_midx = d_midx[keep]
            r_addr = d_addr[keep]
            r_pos = pos[data_sel][keep]
            dtlb.hits += n_dup
            l1d.hits += n_dup
        else:
            r_midx, r_addr, r_pos = d_midx, d_addr, pos[data_sel]
        nr = r_addr.size
        # dTLB: fully associative over pages.  Pages are coarser than
        # lines, so consecutive accesses repeat them even after the line
        # dedup — again MRU hits with no state change.
        pages = r_addr >> dtlb._page_shift
        pdup = np.zeros(nr, dtype=bool)
        pdup[1:] = pages[1:] == pages[:-1]
        n_pdup = int(pdup.sum())
        if n_pdup:
            dtlb.hits += n_pdup
            pkeep = ~pdup
            tlb_hit_r = lru_filter(pages[pkeep], 0, dtlb.entries)
            n_hit = int(tlb_hit_r.sum())
            dtlb.hits += n_hit
            dtlb.misses += (nr - n_pdup) - n_hit
            tlb_miss_midx = r_midx[pkeep][~tlb_hit_r]
        else:
            tlb_hit_r = lru_filter(pages, 0, dtlb.entries)
            n_hit = int(tlb_hit_r.sum())
            dtlb.hits += n_hit
            dtlb.misses += nr - n_hit
            tlb_miss_midx = r_midx[~tlb_hit_r]
        tallies.d_tlb = np.bincount(tlb_miss_midx, minlength=n_methods)
        d_hit1 = lru_filter(r_addr >> l1d._line_shift, l1d._set_mask, l1d.config.associativity)
        n_hit = int(d_hit1.sum())
        l1d.hits += n_hit
        l1d.misses += nr - n_hit
    else:
        r_midx, r_addr, r_pos = d_midx, d_addr, pos[:0]
        d_hit1 = np.zeros(0, dtype=bool)

    # calls expand to sequential instruction-fetch blocks for the callee
    c_midx = m_a[~data_sel]
    tallies.calls = np.bincount(c_midx, minlength=n_methods)
    i_miss_addr = i_miss_attr = i_miss_key = np.zeros(0, dtype=np.int64)
    if c_midx.size:
        c_key = pos[~data_sel] * _ORDER_STRIDE
        burst = _replay_code_bursts(c_midx, c_key, code_base, code_blocks, l1i)
        if burst is not None:
            n_hits, n_misses, i_miss_addr, i_miss_attr, i_miss_key = burst
            l1i.hits += n_hits
            l1i.misses += n_misses
        else:
            blocks = code_blocks[c_midx]
            total_blocks = int(blocks.sum())
            starts = np.zeros(c_midx.size, dtype=np.int64)
            np.cumsum(blocks[:-1], out=starts[1:])
            within = np.arange(total_blocks, dtype=np.int64) - np.repeat(starts, blocks)
            i_addr = np.repeat(code_base[c_midx], blocks) + within * 64
            i_hit1 = lru_filter(
                i_addr >> l1i._line_shift, l1i._set_mask, l1i.config.associativity
            )
            n_hit = int(i_hit1.sum())
            l1i.hits += n_hit
            l1i.misses += total_blocks - n_hit
            i_miss = ~i_hit1
            i_miss_addr = i_addr[i_miss]
            i_miss_attr = np.repeat(c_midx, blocks)[i_miss]
            i_miss_key = (np.repeat(c_key, blocks) + 1 + within)[i_miss]

    # Merge L1D and L1I misses back into original order for the L2.
    # Both halves arrive key-sorted (data keys follow event position;
    # fetch-block keys are emitted in fetch order within each burst and
    # bursts in position order), and merge keys are distinct, so two
    # searchsorted calls place every element — no sort needed.
    d_miss = ~d_hit1
    a_addr = r_addr[d_miss]
    na = a_addr.size
    nb = i_miss_addr.size
    if not na + nb:
        return
    a_keys = r_pos[d_miss] * _ORDER_STRIDE
    pos_a = np.arange(na, dtype=np.int64) + np.searchsorted(i_miss_key, a_keys)
    pos_b = np.arange(nb, dtype=np.int64) + np.searchsorted(a_keys, i_miss_key)
    l2_addr = np.empty(na + nb, dtype=np.int64)
    l2_addr[pos_a] = a_addr
    l2_addr[pos_b] = i_miss_addr
    l2_attr = np.empty(na + nb, dtype=np.int64)
    l2_attr[pos_a] = r_midx[d_miss]
    l2_attr[pos_b] = i_miss_attr
    l2_from_data = np.zeros(na + nb, dtype=bool)
    l2_from_data[pos_a] = True

    hit2 = lru_filter(l2_addr >> l2._line_shift, l2._set_mask, l2.config.associativity)
    n_hit = int(hit2.sum())
    l2.hits += n_hit
    l2.misses += l2_addr.size - n_hit
    tallies.d_l2 = np.bincount(l2_attr[hit2 & l2_from_data], minlength=n_methods)
    tallies.c_l2 = np.bincount(l2_attr[hit2 & ~l2_from_data], minlength=n_methods)

    # LLC sees L2 misses, order preserved
    miss2 = ~hit2
    llc_addr = l2_addr[miss2]
    if not llc_addr.size:
        return
    llc_attr = l2_attr[miss2]
    llc_from_data = l2_from_data[miss2]
    hit3 = lru_filter(llc_addr >> llc._line_shift, llc._set_mask, llc.config.associativity)
    n_hit = int(hit3.sum())
    llc.hits += n_hit
    llc.misses += llc_addr.size - n_hit
    tallies.d_llc = np.bincount(llc_attr[hit3 & llc_from_data], minlength=n_methods)
    tallies.c_llc = np.bincount(llc_attr[hit3 & ~llc_from_data], minlength=n_methods)
    tallies.d_mem = np.bincount(llc_attr[~hit3 & llc_from_data], minlength=n_methods)
    tallies.c_mem = np.bincount(llc_attr[~hit3 & ~llc_from_data], minlength=n_methods)


def _account(
    cfg: MachineConfig,
    methods: tuple[MethodCounters, ...],
    rep: "dict[str, np.ndarray]",
) -> tuple[dict[str, MethodCost], TopDownVector, CoverageProfile, float, float, float]:
    """Turn per-method replay tallies into the cycle accounting.

    ``rep`` maps each replay tally (``branches``, ``mispredicts``,
    ``data``, ``d_l2``, ``d_llc``, ``d_mem``, ``d_tlb``, ``calls``,
    ``c_l2``, ``c_llc``, ``c_mem``) to a per-method array.  Vectorized over methods; every elementwise expression
    mirrors the historical scalar accounting operation-for-operation so
    exact-replay results stay bit-identical (int64 inputs convert to
    float64 at the same points the historical path converted them, and
    float64 arrays holding exact integers take the same values).

    Returns ``(per_method, topdown, coverage, total_cycles, seconds,
    branch_misprediction_rate)``.
    """
    nm = len(methods)
    mc_int = np.array([mc.int_ops for mc in methods], dtype=np.int64)
    mc_fp = np.array([mc.fp_ops for mc in methods], dtype=np.int64)
    mc_fpdiv = np.array([mc.fpdiv_ops for mc in methods], dtype=np.int64)
    mc_br = np.array([mc.branches for mc in methods], dtype=np.int64)
    mc_ld = np.array([mc.loads for mc in methods], dtype=np.int64)
    mc_st = np.array([mc.stores for mc in methods], dtype=np.int64)
    mc_calls = np.array([mc.calls for mc in methods], dtype=np.int64)

    rep_br = rep["branches"]
    rep_mis = rep["mispredicts"]
    rep_data = rep["data"]
    d_l2 = rep["d_l2"]
    d_llc = rep["d_llc"]
    d_mem = rep["d_mem"]
    d_tlb = rep["d_tlb"]
    rep_calls = rep["calls"]
    c_l2 = rep["c_l2"]
    c_llc = rep["c_llc"]
    c_mem = rep["c_mem"]

    zeros = np.zeros(nm, dtype=np.float64)
    uops = (
        mc_int + mc_fp + mc_fpdiv + mc_br + mc_ld + mc_st
    ) + mc_calls * cfg.call_overhead_uops
    retiring = uops / cfg.width

    miss_rate = np.divide(rep_mis, rep_br, out=zeros.copy(), where=rep_br > 0)
    est_mispredicts = mc_br * miss_rate
    bad_spec = est_mispredicts * cfg.wrongpath_uops / cfg.width

    call_scale = np.divide(mc_calls, rep_calls, out=zeros.copy(), where=rep_calls > 0)
    frontend = est_mispredicts * cfg.refill_cycles + (
        call_scale
        * (c_l2 * cfg.l2_latency + c_llc * cfg.llc_latency + c_mem * cfg.mem_latency)
        / cfg.fetch_overlap
    )

    data_scale = np.divide(
        mc_ld + mc_st, rep_data, out=zeros.copy(), where=rep_data > 0
    )
    est_data_misses = data_scale * (d_l2 + d_llc + d_mem)
    backend = (
        mc_fp * cfg.fp_backend_stall + mc_fpdiv * cfg.fpdiv_backend_stall
    ) + (
        data_scale
        * (
            d_l2 * cfg.l2_latency
            + d_llc * cfg.llc_latency
            + d_mem * cfg.mem_latency
            + d_tlb * cfg.tlb_walk_cycles
        )
        / cfg.mlp
    )

    per_method: dict[str, MethodCost] = {}
    for i, mc in enumerate(methods):
        per_method[mc.name] = MethodCost(
            name=mc.name,
            uops=float(uops[i]),
            retiring_cycles=float(retiring[i]),
            bad_spec_cycles=float(bad_spec[i]),
            frontend_cycles=float(frontend[i]),
            backend_cycles=float(backend[i]),
            est_mispredicts=float(est_mispredicts[i]),
            est_data_misses=float(est_data_misses[i]),
        )

    total_ret = sum(c.retiring_cycles for c in per_method.values())
    total_bad = sum(c.bad_spec_cycles for c in per_method.values())
    total_fe = sum(c.frontend_cycles for c in per_method.values())
    total_be = sum(c.backend_cycles for c in per_method.values())
    total = total_ret + total_bad + total_fe + total_be
    if total <= 0:
        raise ValueError("cost model: benchmark recorded no work")

    topdown = TopDownVector.from_cycles(total_fe, total_be, total_bad, total_ret)
    coverage = CoverageProfile.from_times(
        {name: c.total_cycles for name, c in per_method.items() if c.total_cycles > 0}
    )
    seconds = total / (cfg.clock_ghz * 1e9)

    total_sampled_branches = float(rep_br.sum())
    total_sampled_miss = float(rep_mis.sum())
    mispred_rate = (
        total_sampled_miss / total_sampled_branches if total_sampled_branches else 0.0
    )
    return per_method, topdown, coverage, total, seconds, mispred_rate


class CostModel:
    """Evaluates a :class:`~repro.machine.telemetry.Probe` into a report."""

    def __init__(self, config: MachineConfig | None = None):
        self.config = config or MachineConfig()

    def evaluate(self, probe: Probe) -> MachineReport:
        cfg = self.config
        predictor = cfg.make_predictor()
        hierarchy = cfg.geometry.hierarchy()

        methods = probe.methods()
        nm = len(methods)

        # --- replay the sampled, order-preserving event stream -------------
        rep = _replay_stream(probe, predictor, hierarchy, nm)

        # --- extrapolate sampled rates to exact counts and account cycles --
        rep_arrays = {
            "branches": rep.branches,
            "mispredicts": rep.mispredicts,
            "data": np.array(rep.data, dtype=np.int64),
            "d_l2": np.array(rep.d_l2, dtype=np.int64),
            "d_llc": np.array(rep.d_llc, dtype=np.int64),
            "d_mem": np.array(rep.d_mem, dtype=np.int64),
            "d_tlb": np.array(rep.d_tlb, dtype=np.int64),
            "calls": np.array(rep.calls, dtype=np.int64),
            "c_l2": np.array(rep.c_l2, dtype=np.int64),
            "c_llc": np.array(rep.c_llc, dtype=np.int64),
            "c_mem": np.array(rep.c_mem, dtype=np.int64),
        }
        per_method, topdown, coverage, total, seconds, mispred_rate = _account(
            cfg, methods, rep_arrays
        )

        return MachineReport(
            topdown=topdown,
            coverage=coverage,
            cycles=total,
            seconds=seconds,
            per_method=per_method,
            cache_stats=hierarchy.stats(),
            branch_misprediction_rate=mispred_rate,
            sampling_stride=probe.sampling_stride,
            counters={
                "uops": sum(c.uops for c in per_method.values()),
                "branches": float(probe.total_branches()),
                "data_accesses": float(probe.total_data_accesses()),
                "est_mispredicts": sum(c.est_mispredicts for c in per_method.values()),
                "est_data_misses": sum(c.est_data_misses for c in per_method.values()),
            },
        )
