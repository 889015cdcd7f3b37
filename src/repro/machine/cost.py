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

The machine model has one replay, :func:`replay_columns`: it replays
the four event columns under one or many :class:`MachineConfig` values
in a single pass and returns one report per config.
:meth:`CostModel.evaluate` runs it with one config on a probe's
columns; :mod:`repro.machine.batch` runs it on a capture's, with one
config or a sweep's N.  Every kernel it rests on is independent along
an axis the configs never share, so N configs cost little more than
one:

* **branch side** — configs are grouped by predictor signature
  ``(kind, table_bits, history_bits)``; each signature runs one
  :func:`~repro.machine.kernel.counter_miss_counts` scan, which returns
  per-method mispredict counts.  One gshare history column, at the
  deepest history in the grid, serves every signature, masked to its
  depth.
* **memory side** — data accesses go through the closed-form LRU
  filters (:func:`~repro.machine.kernel.lru_filter`) level by level;
  instruction-fetch bursts are deduplicated to unique
  (callee, footprint-window) pairs and resolved once per pair
  (:func:`_replay_code_bursts`); L1 misses are merged back into
  program order for the shared L2 and LLC.  Each level is memoized by
  the geometry fields it reads, so configs that differ only below a
  level share that level's work.
* **accounting** — :func:`_account` extrapolates sampled rates to
  exact counts, vectorized over methods.

Results are bit-identical to the historical scalar loop
(``tests/test_golden_equivalence.py``).  Replay volume and wall time
are recorded in the metrics registry by the callers that time a whole
replay (:mod:`repro.machine.batch`).  See DESIGN.md §9 and §13.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.coverage import CoverageProfile
from ..core.topdown import TopDownVector
from .cache import CacheGeometry, HierarchyStats
from .kernel import counter_miss_counts, gshare_history, lru_filter
from .telemetry import EV_BRANCH, EV_DATA, MethodCounters, Probe

__all__ = ["MachineConfig", "MethodCost", "CostModel", "MachineReport", "replay_columns"]

# Cap on synthesized instruction-fetch blocks per sampled call, so one
# giant method cannot dominate replay cost.
_MAX_FETCH_BLOCKS = 256

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
        if not 1 <= self.predictor_table_bits <= 24:
            raise ValueError("predictor_table_bits must be in [1, 24]")
        # bimodal predictors keep no history, so only gshare checks it
        if self.predictor == "gshare" and not (
            0 <= self.predictor_history_bits <= self.predictor_table_bits
        ):
            raise ValueError(
                "predictor_history_bits must be in [0, predictor_table_bits]"
            )
        if self.mlp < 1.0 or self.fetch_overlap < 1.0:
            raise ValueError("mlp and fetch_overlap must be >= 1")


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
        # share a line (MRU hits the per-line model counts), so fall
        # back to the per-line filter, which is exact for any line size
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


def _predictor_sig(cfg: MachineConfig) -> tuple:
    hbits = cfg.predictor_history_bits if cfg.predictor == "gshare" else 0
    return (cfg.predictor, cfg.predictor_table_bits, hbits)


def _branch_miss_rows(
    sigs: list[tuple], pc: np.ndarray, tak: np.ndarray, b_midx: np.ndarray, nm: int
) -> list[np.ndarray]:
    """Per-signature, per-method mispredict counts of fresh predictors.

    Fresh predictors start from history 0, so the low ``h`` bits of the
    deepest gshare history column in the grid are exactly the
    ``h``-bit column: one column serves every signature.
    """
    deepest = max((h for kind, _t, h in sigs if kind == "gshare"), default=0)
    hist = gshare_history(tak, deepest) if deepest else None
    rows: list[np.ndarray] = []
    for kind, tbits, hbits in sigs:
        mask = (1 << tbits) - 1
        if kind == "gshare" and hbits:
            idx = (pc ^ (hist & ((1 << hbits) - 1))) & mask
        else:
            idx = pc & mask
        # fresh predictors: every counter starts weakly not-taken (1)
        table = np.full(1 << tbits, 1, dtype=np.uint8)
        rows.append(counter_miss_counts(idx, tak, table, b_midx, nm))
    return rows


class _GeoReplay:
    """One cache geometry's per-level streams and tallies in the batch."""

    __slots__ = (
        "hier", "nm", "data", "calls", "d_tlb", "d_l2", "d_llc", "d_mem",
        "c_l2", "c_llc", "c_mem", "r_midx", "r_addr", "r_pos", "d_hit1",
        "i_miss_addr", "i_miss_attr", "i_miss_key",
        "l2_addr", "l2_attr", "l2_from_data", "llc_addr", "llc_attr",
        "llc_from_data",
    )

    def __init__(self, geometry: CacheGeometry, nm: int):
        self.hier = geometry.hierarchy()
        self.nm = nm
        z = np.zeros(nm, dtype=np.int64)
        self.data = z.copy()
        self.calls = z.copy()
        self.d_tlb = z.copy()
        self.d_l2 = z.copy()
        self.d_llc = z.copy()
        self.d_mem = z.copy()
        self.c_l2 = z.copy()
        self.c_llc = z.copy()
        self.c_mem = z.copy()

    def rep_arrays(self) -> dict[str, np.ndarray]:
        return {
            "data": self.data,
            "d_l2": self.d_l2,
            "d_llc": self.d_llc,
            "d_mem": self.d_mem,
            "d_tlb": self.d_tlb,
            "calls": self.calls,
            "c_l2": self.c_l2,
            "c_llc": self.c_llc,
            "c_mem": self.c_mem,
        }


def _mem_replay_batched(
    geos: list[CacheGeometry],
    nm: int,
    m_midx: np.ndarray,
    m_a: np.ndarray,
    data_sel: np.ndarray,
    code_base: np.ndarray,
    code_blocks: np.ndarray,
) -> list[_GeoReplay]:
    """The data/fetch side of the replay for every distinct geometry at once.

    Data events repeating the previous data event's cache line are MRU
    hits in both the dTLB and the L1D with no state change, so they are
    dropped up front; pages repeat even more often, and the dTLB drops
    those the same way.  Each private level (dTLB, L1D) then filters its
    residual stream with one :func:`~repro.machine.kernel.lru_filter`
    call; the L1I replays call bursts at burst granularity
    (:func:`_replay_code_bursts`) when its preconditions hold, and
    expands them to fetch blocks otherwise.  L1 misses are merged back
    into original program order (data and code share the L2/LLC) and
    cascaded through L2 then LLC.

    Each level's result is memoized on the geometry fields that level
    actually reads, so geometries differing only *below* a level share
    that level's work.  A level's memo key folds in the keys of the
    levels feeding it: an L2 filters the miss stream of one particular
    (L1D, L1I) pair, so its key is ``(stream key, own parameters)``.
    Replayed per distinct key — not per distinct geometry — the
    full-length dTLB/L1D/L1I streams typically resolve once or twice
    per sweep, and only the short residual miss streams fan out.
    """
    states = [_GeoReplay(g, nm) for g in geos]
    pos = np.arange(m_a.size, dtype=np.int64)
    d_midx = m_midx[data_sel]
    d_addr = m_a[data_sel]
    d_pos = pos[data_sel]
    c_midx = m_a[~data_sel]
    c_key0 = pos[~data_sel] * _ORDER_STRIDE
    nd = d_addr.size
    data_count = np.bincount(d_midx, minlength=nm)
    calls_count = np.bincount(c_midx, minlength=nm)

    kept_memo: dict = {}  # line shift -> (r_midx, r_addr, r_pos, n_dup)
    tlb_memo: dict = {}  # (line shift, page shift, entries) -> tallies
    l1d_memo: dict = {}  # (line shift, set mask, assoc) -> (d_hit1, n_hit)
    l1i_memo: dict = {}  # (line shift, set mask, assoc) -> burst result
    stream_memo: dict = {}  # (l1d key, l1i key) -> merged L2 input
    l2_memo: dict = {}  # (stream key, l2 params) -> tallies + LLC input
    llc_memo: dict = {}  # (l2 key, llc params) -> tallies

    empty_bool = np.zeros(0, dtype=bool)
    for s in states:
        s.data = data_count.copy()
        s.calls = calls_count.copy()
        l1d, l1i, l2, llc, dtlb = (
            s.hier.l1d, s.hier.l1i, s.hier.l2, s.hier.llc, s.hier.dtlb
        )

        # consecutive same-line dedup depends only on the line size
        line_key = l1d._line_shift
        kept = kept_memo.get(line_key)
        if kept is None:
            if nd:
                d_lines = d_addr >> line_key
                dup = np.zeros(nd, dtype=bool)
                dup[1:] = d_lines[1:] == d_lines[:-1]
                n_dup = int(dup.sum())
                if n_dup:
                    keep = ~dup
                    kept = (d_midx[keep], d_addr[keep], d_pos[keep], n_dup)
                else:
                    kept = (d_midx, d_addr, d_pos, 0)
            else:
                kept = (d_midx, d_addr, d_pos, 0)
            kept_memo[line_key] = kept
        r_midx, r_addr, r_pos, n_dup = kept
        s.r_midx, s.r_addr, s.r_pos = r_midx, r_addr, r_pos
        nr = r_addr.size

        dkey = ikey = None
        if nd:
            tkey = (line_key, dtlb._page_shift, dtlb.entries)
            tres = tlb_memo.get(tkey)
            if tres is None:
                pages = r_addr >> dtlb._page_shift
                pdup = np.zeros(nr, dtype=bool)
                pdup[1:] = pages[1:] == pages[:-1]
                n_pdup = int(pdup.sum())
                if n_pdup:
                    pkeep = ~pdup
                    t_hit = lru_filter(pages[pkeep], 0, dtlb.entries)
                    t_miss_midx = r_midx[pkeep][~t_hit]
                else:
                    t_hit = lru_filter(pages, 0, dtlb.entries)
                    t_miss_midx = r_midx[~t_hit]
                tres = (
                    n_pdup,
                    int(t_hit.sum()),
                    np.bincount(t_miss_midx, minlength=nm),
                )
                tlb_memo[tkey] = tres
            n_pdup, t_hits, d_tlb = tres
            dtlb.hits += n_dup + n_pdup + t_hits
            dtlb.misses += (nr - n_pdup) - t_hits
            s.d_tlb = d_tlb

            dkey = (line_key, l1d._set_mask, l1d.config.associativity)
            dres = l1d_memo.get(dkey)
            if dres is None:
                d_hit1 = lru_filter(
                    r_addr >> line_key, l1d._set_mask, l1d.config.associativity
                )
                dres = (d_hit1, int(d_hit1.sum()))
                l1d_memo[dkey] = dres
            s.d_hit1, n_hit = dres
            l1d.hits += n_dup + n_hit
            l1d.misses += nr - n_hit
        else:
            s.d_hit1 = empty_bool

        # --- L1I: burst-granular, falling back to the per-line filter
        s.i_miss_addr = s.i_miss_attr = s.i_miss_key = np.zeros(0, dtype=np.int64)
        if c_midx.size:
            ikey = (l1i._line_shift, l1i._set_mask, l1i.config.associativity)
            ires = l1i_memo.get(ikey)
            if ires is None:
                ires = _replay_code_bursts(c_midx, c_key0, code_base, code_blocks, l1i)
                if ires is None:
                    blocks = code_blocks[c_midx]
                    total_blocks = int(blocks.sum())
                    starts = np.zeros(c_midx.size, dtype=np.int64)
                    np.cumsum(blocks[:-1], out=starts[1:])
                    within = (
                        np.arange(total_blocks, dtype=np.int64)
                        - np.repeat(starts, blocks)
                    )
                    i_addr = np.repeat(code_base[c_midx], blocks) + within * 64
                    i_hit1 = lru_filter(
                        i_addr >> l1i._line_shift,
                        l1i._set_mask,
                        l1i.config.associativity,
                    )
                    n_hit = int(i_hit1.sum())
                    i_miss = ~i_hit1
                    ires = (
                        n_hit,
                        total_blocks - n_hit,
                        i_addr[i_miss],
                        np.repeat(c_midx, blocks)[i_miss],
                        (np.repeat(c_key0, blocks) + 1 + within)[i_miss],
                    )
                l1i_memo[ikey] = ires
            n_hits, n_misses, s.i_miss_addr, s.i_miss_attr, s.i_miss_key = ires
            l1i.hits += n_hits
            l1i.misses += n_misses

        # --- L2: this L1 pair's misses merged back to program order
        skey = (dkey, ikey)
        sres = stream_memo.get(skey)
        if sres is None:
            d_miss = ~s.d_hit1
            l2_addr = np.concatenate([r_addr[d_miss], s.i_miss_addr])
            if l2_addr.size:
                l2_attr = np.concatenate([r_midx[d_miss], s.i_miss_attr])
                l2_from_data = np.zeros(l2_addr.size, dtype=bool)
                l2_from_data[: int(d_miss.sum())] = True
                l2_keys = np.concatenate(
                    [r_pos[d_miss] * _ORDER_STRIDE, s.i_miss_key]
                )
                order = np.argsort(l2_keys)
                sres = (l2_addr[order], l2_attr[order], l2_from_data[order])
            else:
                sres = (l2_addr, l2_addr, l2_addr)
            stream_memo[skey] = sres
        s.l2_addr, s.l2_attr, s.l2_from_data = sres

        l2key = (skey, l2._line_shift, l2._set_mask, l2.config.associativity)
        l2res = l2_memo.get(l2key)
        if l2res is None:
            hit2 = lru_filter(
                s.l2_addr >> l2._line_shift, l2._set_mask, l2.config.associativity
            )
            n_hit = int(hit2.sum())
            if hit2.size:
                miss2 = ~hit2
                l2res = (
                    n_hit,
                    hit2.size - n_hit,
                    np.bincount(s.l2_attr[hit2 & s.l2_from_data], minlength=nm),
                    np.bincount(s.l2_attr[hit2 & ~s.l2_from_data], minlength=nm),
                    (s.l2_addr[miss2], s.l2_attr[miss2], s.l2_from_data[miss2]),
                )
            else:
                l2res = (0, 0, None, None, (s.l2_addr, s.l2_attr, s.l2_from_data))
            l2_memo[l2key] = l2res
        n_hit2, n_miss2, d_l2, c_l2, llc_in = l2res
        l2.hits += n_hit2
        l2.misses += n_miss2
        if d_l2 is not None:
            s.d_l2 = d_l2
            s.c_l2 = c_l2
        s.llc_addr, s.llc_attr, s.llc_from_data = llc_in

        lkey = (l2key, llc._line_shift, llc._set_mask, llc.config.associativity)
        lres = llc_memo.get(lkey)
        if lres is None:
            hit3 = lru_filter(
                s.llc_addr >> llc._line_shift, llc._set_mask, llc.config.associativity
            )
            n_hit = int(hit3.sum())
            if hit3.size:
                lres = (
                    n_hit,
                    hit3.size - n_hit,
                    np.bincount(s.llc_attr[hit3 & s.llc_from_data], minlength=nm),
                    np.bincount(s.llc_attr[hit3 & ~s.llc_from_data], minlength=nm),
                    np.bincount(s.llc_attr[~hit3 & s.llc_from_data], minlength=nm),
                    np.bincount(s.llc_attr[~hit3 & ~s.llc_from_data], minlength=nm),
                )
            else:
                lres = (0, 0, None, None, None, None)
            llc_memo[lkey] = lres
        n_hit3, n_miss3, d_llc, c_llc, d_mem, c_mem = lres
        llc.hits += n_hit3
        llc.misses += n_miss3
        if d_llc is not None:
            s.d_llc = d_llc
            s.c_llc = c_llc
            s.d_mem = d_mem
            s.c_mem = c_mem
    return states


def _account(
    cfg: MachineConfig,
    methods: Sequence[MethodCounters],
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


def replay_columns(
    configs: Sequence[MachineConfig],
    methods: Sequence[MethodCounters],
    columns: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    sampling_stride: int,
) -> list[MachineReport]:
    """Replay one event stream under every config in one pass.

    ``columns`` are the stream's four int64 columns (method index,
    kind, ``a``, ``b``) and ``methods`` its exact per-method counters,
    as a :class:`~repro.machine.telemetry.Probe` or a
    :class:`~repro.machine.capture.TelemetryCapture` holds them; both
    are only read.  Returns one report per entry of ``configs``, in
    order.  The store flag (column ``b`` of a data event) does not
    affect replay: caches are write-allocate, so loads and stores take
    the same path.
    """
    nm = len(methods)
    midx, kind, a_col, b_col = columns

    # --- branch side: one counter scan per distinct predictor signature
    branch_sel = kind == EV_BRANCH
    branches = np.zeros(nm, dtype=np.int64)
    sigs: list[tuple] = []
    sig_index: dict[tuple, int] = {}
    for cfg in configs:
        key = _predictor_sig(cfg)
        if key not in sig_index:
            sig_index[key] = len(sigs)
            sigs.append(key)
    mis_rows = [np.zeros(nm, dtype=np.int64) for _ in sigs]
    if branch_sel.any():
        b_midx = midx[branch_sel]
        pc = a_col[branch_sel]
        tak = (b_col[branch_sel] != 0).astype(np.int64)
        branches = np.bincount(b_midx, minlength=nm)
        mis_rows = _branch_miss_rows(sigs, pc, tak, b_midx, nm)

    # --- memory side: one pass over the distinct geometries
    mem_sel = ~branch_sel
    geos: list[CacheGeometry] = []
    geo_index: dict[CacheGeometry, int] = {}
    for cfg in configs:
        if cfg.geometry not in geo_index:
            geo_index[cfg.geometry] = len(geos)
            geos.append(cfg.geometry)
    if mem_sel.any():
        code_base = np.zeros(nm, dtype=np.int64)
        code_blocks = np.zeros(nm, dtype=np.int64)
        for mc in methods:
            code_base[mc.index] = mc.code_base
            code_blocks[mc.index] = min(max(1, mc.code_bytes // 64), _MAX_FETCH_BLOCKS)
        m_midx = midx[mem_sel]
        m_a = a_col[mem_sel]
        data_sel = kind[mem_sel] == EV_DATA
        geo_states = _mem_replay_batched(
            geos, nm, m_midx, m_a, data_sel, code_base, code_blocks
        )
    else:
        geo_states = [_GeoReplay(g, nm) for g in geos]

    # --- per-config accounting over the shared tallies
    total_branches = float(sum(mc.branches for mc in methods))
    total_data = float(sum(mc.data_accesses for mc in methods))
    reports: list[MachineReport] = []
    for cfg in configs:
        state = geo_states[geo_index[cfg.geometry]]
        rep = state.rep_arrays()
        rep["branches"] = branches
        rep["mispredicts"] = mis_rows[sig_index[_predictor_sig(cfg)]]
        per_method, topdown, coverage, total, seconds, mispred_rate = _account(
            cfg, methods, rep
        )
        reports.append(
            MachineReport(
                topdown=topdown,
                coverage=coverage,
                cycles=total,
                seconds=seconds,
                per_method=per_method,
                cache_stats=state.hier.stats(),
                branch_misprediction_rate=mispred_rate,
                sampling_stride=sampling_stride,
                counters={
                    "uops": sum(c.uops for c in per_method.values()),
                    "branches": total_branches,
                    "data_accesses": total_data,
                    "est_mispredicts": sum(
                        c.est_mispredicts for c in per_method.values()
                    ),
                    "est_data_misses": sum(
                        c.est_data_misses for c in per_method.values()
                    ),
                },
            )
        )
    return reports


class CostModel:
    """Evaluates a :class:`~repro.machine.telemetry.Probe` into a report."""

    def __init__(self, config: MachineConfig | None = None):
        self.config = config or MachineConfig()

    def evaluate(self, probe: Probe) -> MachineReport:
        (report,) = replay_columns(
            [self.config], probe.methods(), probe.events.columns(), probe.sampling_stride
        )
        return report
