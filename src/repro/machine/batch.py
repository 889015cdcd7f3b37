"""One-pass multi-config replay of a captured telemetry stream.

An N-config sweep used to replay the same capture N times — one full
pass over the event columns per :class:`~repro.machine.cost.MachineConfig`.
Every kernel the replay rests on is independent along some axis the
configs never share (counter tables are independent per slot, LRU sets
are independent per set), so the N replays collapse into *one* pass
with a config axis:

* **branch side** — configs are grouped by predictor signature
  ``(kind, table_bits, history_bits)``; each distinct signature
  contributes one row to a single
  :func:`~repro.machine.kernel.counter_scan_batched` call over
  concatenated per-signature tables.  Gshare history columns are
  computed once per distinct history depth.
* **memory side** — each cache level is memoized by the geometry
  fields it actually reads, not the whole
  :class:`~repro.machine.cache.CacheGeometry`: the dTLB result depends
  only on ``(line size, page size, entries)``, the L1D only on
  ``(line size, sets, associativity)``, and so on down the hierarchy
  (an L2 key also folds in the L1 keys above it, because it filters
  that L1 pair's own miss stream).  A sweep that varies the predictor
  and the LLC runs the full-length dTLB/L1D/L1I streams *once*, no
  matter how many configs it spans.
* **accounting** — per-config tallies flow through the same
  :func:`~repro.machine.cost._account` arithmetic the single-config
  path uses.

Each returned profile is bit-identical to
``replay_capture(capture, machine=cfg)`` — the batched kernels are
exact, the stream construction per geometry is copied from
:func:`~repro.machine.cost._replay_mem_vector` level for level, and the
accounting is shared.  ``tests/test_sweep_api.py`` asserts this on all
16 benchmarks.  The memory-vs-throughput tradeoff and the engine's
fallback conditions are documented in DESIGN.md §13.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

from ..core import metrics
from .cache import CacheGeometry
from .cost import (
    _MAX_FETCH_BLOCKS,
    _ORDER_STRIDE,
    MachineConfig,
    MachineReport,
    _account,
    _replay_code_bursts,
)
from .kernel import counter_scan_batched, gshare_history, lru_filter
from .profiler import ExecutionProfile
from .telemetry import EV_BRANCH, EV_DATA

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .capture import TelemetryCapture

__all__ = ["replay_capture_batched"]


def _predictor_sig(cfg: MachineConfig) -> tuple:
    hbits = cfg.predictor_history_bits if cfg.predictor == "gshare" else 0
    return (cfg.predictor, cfg.predictor_table_bits, hbits)


def _branch_miss_rows(
    sigs: list[tuple], pc: np.ndarray, tak: np.ndarray
) -> np.ndarray:
    """Per-signature mispredict rows from one batched counter scan."""
    idx_rows: list[np.ndarray] = []
    tables: list[np.ndarray] = []
    hist_cache: dict[int, np.ndarray] = {}
    for kind, tbits, hbits in sigs:
        mask = (1 << tbits) - 1
        if kind == "gshare" and hbits:
            h = hist_cache.get(hbits)
            if h is None:
                h = hist_cache[hbits] = gshare_history(tak, 0, hbits)
            idx = (pc ^ h) & mask
        else:
            idx = pc & mask
        idx_rows.append(idx)
        # fresh predictors: every counter starts weakly not-taken (1)
        tables.append(np.full(1 << tbits, 1, dtype=np.uint8))
    return counter_scan_batched(idx_rows, tak, tables)


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
    """The data/fetch side of :func:`~repro.machine.cost._replay_mem_vector`
    for every distinct geometry at once.

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


def replay_capture_batched(
    capture: "TelemetryCapture",
    machines: "list[MachineConfig | None]",
) -> list[ExecutionProfile]:
    """Replay one capture under N machine configs in a single pass.

    Returns one :class:`ExecutionProfile` per entry of ``machines``
    (``None`` entries mean the default config), each bit-identical to
    ``replay_capture(capture, machine=cfg)``.  FDO-build replays stay
    per-config (see DESIGN.md §13 for the fallback conditions).
    """
    cfgs = [m if m is not None else MachineConfig() for m in machines]
    n_events = capture.n_events
    methods = capture.methods
    nm = len(methods)
    t0 = time.perf_counter_ns()

    midx, kind, a_col, b_col = capture.columns

    # --- branch side: one batched counter scan over distinct signatures
    branch_sel = kind == EV_BRANCH
    branches = np.zeros(nm, dtype=np.int64)
    sigs: list[tuple] = []
    sig_index: dict[tuple, int] = {}
    for cfg in cfgs:
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
        miss = _branch_miss_rows(sigs, pc, tak)
        mis_rows = [
            np.bincount(b_midx, weights=miss[i], minlength=nm).astype(np.int64)
            for i in range(len(sigs))
        ]

    # --- memory side: one batched pass over distinct geometries
    mem_sel = ~branch_sel
    geos: list[CacheGeometry] = []
    geo_index: dict[CacheGeometry, int] = {}
    for cfg in cfgs:
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
    profiles: list[ExecutionProfile] = []
    for cfg in cfgs:
        state = geo_states[geo_index[cfg.geometry]]
        rep = dict(state.rep_arrays())
        rep["branches"] = branches
        rep["mispredicts"] = mis_rows[sig_index[_predictor_sig(cfg)]]
        per_method, topdown, coverage, total, seconds, mispred_rate = _account(
            cfg, methods, rep
        )
        report = MachineReport(
            topdown=topdown,
            coverage=coverage,
            cycles=total,
            seconds=seconds,
            per_method=per_method,
            cache_stats=state.hier.stats(),
            branch_misprediction_rate=mispred_rate,
            sampling_stride=capture.sampling_stride,
            counters={
                "uops": sum(c.uops for c in per_method.values()),
                "branches": total_branches,
                "data_accesses": total_data,
                "est_mispredicts": sum(c.est_mispredicts for c in per_method.values()),
                "est_data_misses": sum(c.est_data_misses for c in per_method.values()),
            },
        )
        profiles.append(
            ExecutionProfile(
                benchmark=capture.benchmark,
                workload=capture.workload,
                report=report,
                output=None,
                verified=capture.verified,
            )
        )

    elapsed_ns = max(1, time.perf_counter_ns() - t0)
    replayed = n_events * len(cfgs)
    metrics.inc(metrics.REPLAY_EVENTS_TOTAL, replayed, benchmark=capture.benchmark)
    metrics.inc(metrics.REPLAY_NS_TOTAL, elapsed_ns, benchmark=capture.benchmark)
    metrics.observe(
        metrics.REPLAY_EPS, replayed / (elapsed_ns / 1e9), benchmark=capture.benchmark
    )
    return profiles
