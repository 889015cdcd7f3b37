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
  depth.  Slots are uint16 up to 16 table bits (uint32 above) and
  outcomes bool, so the scan runs on the narrowest columns that hold
  them.
* **memory side** — data accesses go through the closed-form LRU
  filters (:func:`~repro.machine.kernel.lru_filter`) level by level;
  instruction-fetch bursts are deduplicated to unique
  (callee, footprint-window) pairs and resolved once per pair
  (:func:`_replay_code_bursts`); L1 misses are merged back into
  program order for the shared L2 and LLC.  Each level is keyed by its
  input stream and the geometry fields it reads, so configs that
  differ only below a level share that level's work, and levels that
  differ only in associativity (or dTLB reach) share one filter pass.
* **accounting** — :func:`_account` extrapolates sampled rates to
  exact counts, vectorized over methods.

Results are bit-identical to the historical scalar loop
(``tests/test_golden_equivalence.py``).  Replay volume and wall time
are recorded in the metrics registry by the callers that time a whole
replay (:mod:`repro.machine.batch`).  See DESIGN.md §9 and §13.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
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
        for f in fields(self):
            value = getattr(self, f.name)
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if f.type == "int" and not (number and isinstance(value, int)):
                raise ValueError(f"{f.name} must be an int, got {value!r}")
            if f.type == "float" and not (number and math.isfinite(value)):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
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

    Slots are built on the narrowest column that holds them: ``pc`` is
    masked to the widest table once, uint16 up to 16 table bits and
    uint32 above, and each signature XORs in its history and masks to
    its own table in that dtype.  Fresh predictors start from history
    0, so the low ``h`` bits of the deepest gshare history column in
    the grid are exactly the ``h``-bit column: one column serves every
    signature.  ``tak`` is the bool outcome column.
    """
    widest = max(tbits for _kind, tbits, _h in sigs)
    pc = (pc & ((1 << widest) - 1)).astype(np.uint16 if widest <= 16 else np.uint32)
    deepest = max((h for kind, _t, h in sigs if kind == "gshare"), default=0)
    hist = gshare_history(tak, deepest) if deepest else None
    rows: list[np.ndarray] = []
    for kind, tbits, hbits in sigs:
        idx = pc
        if kind == "gshare" and hbits:
            idx = pc ^ (hist if hbits == deepest else hist & ((1 << hbits) - 1))
        if tbits < widest:
            idx = idx & ((1 << tbits) - 1)
        # fresh predictors: every counter starts weakly not-taken (1)
        table = np.full(1 << tbits, 1, dtype=np.uint8)
        rows.append(counter_miss_counts(idx, tak, table, b_midx, nm))
    return rows


class _GeoReplay:
    """One cache geometry's hierarchy and per-method tallies in the batch."""

    __slots__ = (
        "hier", "data", "calls", "d_tlb", "d_l2", "d_llc", "d_mem",
        "c_l2", "c_llc", "c_mem",
    )

    def __init__(self, geometry: CacheGeometry, nm: int):
        self.hier = geometry.hierarchy()
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


def _drop_repeats(keys: np.ndarray, *cols: np.ndarray) -> tuple:
    """``cols`` without the entries whose key equals the previous key,
    then the number of entries dropped."""
    dup = np.zeros(keys.size, dtype=bool)
    dup[1:] = keys[1:] == keys[:-1]
    n_dup = int(dup.sum())
    if not n_dup:
        return (*cols, 0)
    keep = ~dup
    return (*(c[keep] for c in cols), n_dup)


def _lru_groups(keys: Sequence[tuple], tags_of) -> dict[tuple, np.ndarray]:
    """LRU hit flags for every ``(stream, set mask, assoc)`` in ``keys``.

    Keys that share a stream and a set mask differ only in
    associativity, so one :func:`~repro.machine.kernel.lru_filter` pass
    answers all of them; ``tags_of(stream)`` gives the stream's line
    tags.
    """
    groups: dict[tuple, list[int]] = {}
    for stream, mask, assoc in dict.fromkeys(keys):
        groups.setdefault((stream, mask), []).append(assoc)
    hits: dict[tuple, np.ndarray] = {}
    for (stream, mask), assocs in groups.items():
        for assoc, h in zip(assocs, lru_filter(tags_of(stream), mask, assocs)):
            hits[stream, mask, assoc] = h
    return hits


def _level_key(stream, level) -> tuple:
    """A cache level's ``(stream, set mask, assoc)`` key; the stream
    key carries the input stream's identity and the level's line shift."""
    return ((stream, level._line_shift), level._set_mask, level.config.associativity)


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
    those the same way.  The dTLB and the L1D then filter their
    residual streams; the L1I replays call bursts at burst granularity
    (:func:`_replay_code_bursts`) when its preconditions hold, and
    expands them to fetch blocks otherwise.  L1 misses are merged back
    into original program order (data and code share the L2/LLC) and
    cascaded through L2 then LLC.

    The replay runs level by level across the batch, and each level's
    result is keyed by its input stream and its own parameters.  An L2
    filters the miss stream of one particular (L1D, L1I) pair, so its
    stream key folds in their keys, and an LLC's folds in its L2's.
    Levels that share a stream, a line size and a set count differ only
    in associativity (or dTLB reach); under LRU an access that hits
    with ``a`` ways also hits with more, and :func:`_lru_groups`
    answers all of them with one
    :func:`~repro.machine.kernel.lru_filter` pass.  So the full-length
    dTLB/L1D/L1I streams typically resolve once per sweep, and only
    the short residual miss streams fan out.
    """
    states = [_GeoReplay(g, nm) for g in geos]
    hiers = [s.hier for s in states]
    pos = np.arange(m_a.size, dtype=np.int64)
    d_midx = m_midx[data_sel]
    d_addr = m_a[data_sel]
    d_pos = pos[data_sel]
    c_midx = m_a[~data_sel]
    c_key0 = pos[~data_sel] * _ORDER_STRIDE
    data_count = np.bincount(d_midx, minlength=nm)
    calls_count = np.bincount(c_midx, minlength=nm)
    for s in states:
        s.data = data_count.copy()
        s.calls = calls_count.copy()
    empty = np.zeros(0, dtype=np.int64)

    # --- data side: dTLB and L1D over the line-deduplicated stream
    kept: dict = {}  # line shift -> (r_midx, r_addr, r_pos, n_dup)
    for h in hiers:
        shift = h.l1d._line_shift
        if shift not in kept:
            kept[shift] = _drop_repeats(d_addr >> shift, d_midx, d_addr, d_pos)
    dkeys: list = [None] * len(hiers)
    if d_addr.size:
        pages: dict = {}  # (line shift, page shift) -> (pages, midx, n_pdup)
        for h in hiers:
            pkey = (h.l1d._line_shift, h.dtlb._page_shift)
            if pkey not in pages:
                r_midx, r_addr = kept[pkey[0]][:2]
                p = r_addr >> pkey[1]
                pages[pkey] = _drop_repeats(p, p, r_midx)
        tkeys = [
            ((h.l1d._line_shift, h.dtlb._page_shift), 0, h.dtlb.entries)
            for h in hiers
        ]
        t_res = {
            key: (int(hit.sum()), np.bincount(pages[key[0]][1][~hit], minlength=nm))
            for key, hit in _lru_groups(tkeys, lambda pk: pages[pk][0]).items()
        }
        dkeys = [_level_key("data", h.l1d) for h in hiers]
        d_hits = _lru_groups(dkeys, lambda st: kept[st[1]][1] >> st[1])
        for s, h, tkey, dkey in zip(states, hiers, tkeys, dkeys):
            nr = kept[h.l1d._line_shift][1].size
            n_dup = kept[h.l1d._line_shift][3]
            n_pdup = pages[tkey[0]][2]
            t_hits, s.d_tlb = t_res[tkey]
            h.dtlb.hits += n_dup + n_pdup + t_hits
            h.dtlb.misses += (nr - n_pdup) - t_hits
            n_hit = int(d_hits[dkey].sum())
            h.l1d.hits += n_dup + n_hit
            h.l1d.misses += nr - n_hit

    # --- L1I: burst-granular, falling back to the per-line filter
    ikeys: list = [None] * len(hiers)
    i_res: dict = {}  # L1I key -> (hits, misses, miss addr, attr, key)
    if c_midx.size:
        ikeys = [_level_key("code", h.l1i) for h in hiers]
        fallback = []
        for ikey, h in zip(ikeys, hiers):
            if ikey not in i_res and ikey not in fallback:
                res = _replay_code_bursts(c_midx, c_key0, code_base, code_blocks, h.l1i)
                if res is None:
                    fallback.append(ikey)
                else:
                    i_res[ikey] = res
        if fallback:
            blocks = code_blocks[c_midx]
            total_blocks = int(blocks.sum())
            starts = np.zeros(c_midx.size, dtype=np.int64)
            np.cumsum(blocks[:-1], out=starts[1:])
            within = np.arange(total_blocks, dtype=np.int64) - np.repeat(starts, blocks)
            i_addr = np.repeat(code_base[c_midx], blocks) + within * 64
            i_attr = np.repeat(c_midx, blocks)
            i_key = np.repeat(c_key0, blocks) + 1 + within
            i_hits = _lru_groups(fallback, lambda st: i_addr >> st[1])
            for ikey, hit in i_hits.items():
                n_hit = int(hit.sum())
                miss = ~hit
                i_res[ikey] = (
                    n_hit, total_blocks - n_hit, i_addr[miss], i_attr[miss], i_key[miss]
                )
        for h, ikey in zip(hiers, ikeys):
            h.l1i.hits += i_res[ikey][0]
            h.l1i.misses += i_res[ikey][1]

    # --- L2: each L1 pair's misses merged back to program order
    streams: dict = {}  # (L1D key, L1I key) -> (addr, attr, from_data)
    for skey in zip(dkeys, ikeys):
        if skey in streams:
            continue
        dkey, ikey = skey
        dm_addr = dm_attr = dm_key = empty
        if dkey is not None:
            r_midx, r_addr, r_pos, _ = kept[dkey[0][1]]
            miss = ~d_hits[dkey]
            dm_addr, dm_attr, dm_key = r_addr[miss], r_midx[miss], r_pos[miss] * _ORDER_STRIDE
        im_addr, im_attr, im_key = i_res[ikey][2:] if ikey is not None else (empty,) * 3
        l2_addr = np.concatenate([dm_addr, im_addr])
        if l2_addr.size:
            from_data = np.zeros(l2_addr.size, dtype=bool)
            from_data[: dm_addr.size] = True
            order = np.argsort(np.concatenate([dm_key, im_key]))
            l2_attr = np.concatenate([dm_attr, im_attr])
            streams[skey] = (l2_addr[order], l2_attr[order], from_data[order])
        else:
            streams[skey] = (l2_addr, l2_addr, l2_addr)
    l2keys = [_level_key(skey, h.l2) for skey, h in zip(zip(dkeys, ikeys), hiers)]
    l2_res: dict = {}  # L2 key -> (hits, misses, d_l2, c_l2, LLC input)
    for l2key, hit in _lru_groups(l2keys, lambda st: streams[st[0]][0] >> st[1]).items():
        addr, attr, from_data = streams[l2key[0][0]]
        n_hit = int(hit.sum())
        if hit.size:
            miss = ~hit
            l2_res[l2key] = (
                n_hit,
                hit.size - n_hit,
                np.bincount(attr[hit & from_data], minlength=nm),
                np.bincount(attr[hit & ~from_data], minlength=nm),
                (addr[miss], attr[miss], from_data[miss]),
            )
        else:
            l2_res[l2key] = (0, 0, None, None, (addr, attr, from_data))

    # --- LLC: each L2's misses
    lkeys = [_level_key(l2key, h.llc) for l2key, h in zip(l2keys, hiers)]
    llc_res: dict = {}  # LLC key -> (hits, misses, d_llc, c_llc, d_mem, c_mem)
    for lkey, hit in _lru_groups(lkeys, lambda st: l2_res[st[0]][4][0] >> st[1]).items():
        _, attr, from_data = l2_res[lkey[0][0]][4]
        n_hit = int(hit.sum())
        if hit.size:
            llc_res[lkey] = (
                n_hit,
                hit.size - n_hit,
                np.bincount(attr[hit & from_data], minlength=nm),
                np.bincount(attr[hit & ~from_data], minlength=nm),
                np.bincount(attr[~hit & from_data], minlength=nm),
                np.bincount(attr[~hit & ~from_data], minlength=nm),
            )
        else:
            llc_res[lkey] = (0, 0, None, None, None, None)

    for s, h, l2key, lkey in zip(states, hiers, l2keys, lkeys):
        n_hit2, n_miss2, d_l2, c_l2, _ = l2_res[l2key]
        h.l2.hits += n_hit2
        h.l2.misses += n_miss2
        if d_l2 is not None:
            s.d_l2 = d_l2
            s.c_l2 = c_l2
        n_hit3, n_miss3, d_llc, c_llc, d_mem, c_mem = llc_res[lkey]
        h.llc.hits += n_hit3
        h.llc.misses += n_miss3
        if d_llc is not None:
            s.d_llc = d_llc
            s.c_llc = c_llc
            s.d_mem = d_mem
            s.c_mem = c_mem
    return states


#: The exact per-method counters the accounting reads, in its order.
_EXACT_FIELDS = ("int_ops", "fp_ops", "fpdiv_ops", "branches", "loads", "stores", "calls")


def _account(
    cfg: MachineConfig,
    methods: Sequence[MethodCounters],
    exact: "tuple[np.ndarray, ...]",
    rep: "dict[str, np.ndarray]",
) -> tuple[dict[str, MethodCost], TopDownVector, CoverageProfile, float, float, float]:
    """Turn per-method replay tallies into the cycle accounting.

    ``exact`` holds the methods' :data:`_EXACT_FIELDS` counters as int64
    arrays, built once per replay for every config.  ``rep`` maps each
    replay tally (``branches``, ``mispredicts``, ``data``, ``d_l2``,
    ``d_llc``, ``d_mem``, ``d_tlb``, ``calls``, ``c_l2``, ``c_llc``,
    ``c_mem``) to a per-method array.  Vectorized over methods; every
    elementwise expression mirrors the historical scalar accounting
    operation-for-operation so exact-replay results stay bit-identical
    (int64 inputs convert to float64 at the same points the historical
    path converted them, and float64 arrays holding exact integers take
    the same values).

    Returns ``(per_method, topdown, coverage, total_cycles, seconds,
    branch_misprediction_rate)``.
    """
    nm = len(methods)
    mc_int, mc_fp, mc_fpdiv, mc_br, mc_ld, mc_st, mc_calls = exact

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

    # one float list per field, in MethodCost's field order
    rows = zip(*(
        np.asarray(col, dtype=np.float64).tolist()
        for col in (uops, retiring, bad_spec, frontend, backend, est_mispredicts, est_data_misses)
    ))
    per_method = {mc.name: MethodCost(mc.name, *row) for mc, row in zip(methods, rows)}

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
        tak = b_col[branch_sel] != 0
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
    exact = tuple(
        np.array([getattr(mc, name) for mc in methods], dtype=np.int64)
        for name in _EXACT_FIELDS
    )
    total_branches = float(sum(mc.branches for mc in methods))
    total_data = float(sum(mc.data_accesses for mc in methods))
    reports: list[MachineReport] = []
    for cfg in configs:
        state = geo_states[geo_index[cfg.geometry]]
        rep = state.rep_arrays()
        rep["branches"] = branches
        rep["mispredicts"] = mis_rows[sig_index[_predictor_sig(cfg)]]
        per_method, topdown, coverage, total, seconds, mispred_rate = _account(
            cfg, methods, exact, rep
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
