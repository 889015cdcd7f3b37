"""Exact vectorized replay primitives for the machine model.

The cost model replays sampled event streams through a branch
predictor and an LRU cache hierarchy.  Both structures look inherently
serial — every access mutates state the next access reads — but both
admit exact reformulations that vectorize:

* **2-bit saturating counters** are clamped walks.  Every update is a
  monotone clamp function ``s -> min(u, max(l, s + d))``, and that
  family is closed under composition, so a whole outcome stream per
  table slot collapses to one composed function via an associative
  (segmented, Hillis-Steele) parallel-prefix scan —
  :func:`counter_miss_counts` returns per-group mispredict counts.

* **LRU hit/miss** is a stack-distance test: an access hits iff fewer
  than ``associativity`` distinct lines touched its set since the
  previous access to the same line.  With ``V[q]`` the position of that
  previous access (set-major order), the distinct count in the window
  is ``C[q] - V[q] - 1`` where ``C[q] = #{p < q : V[p] <= V[q]}``,
  because every ``p <= V[q]`` trivially satisfies ``V[p] < p <= V[q]``.
  ``C`` is a left-rank count, computed by :func:`left_rank` with a
  vectorized mergesort — :func:`lru_hits`.  The count does not depend
  on the associativity (LRU stack inclusion: Mattson et al., IBM
  Systems Journal 1970), so one count per access answers every
  associativity with one comparison each.

* **Common streams avoid the general kernel entirely.**  Most sampled
  address streams never evict: when every set's distinct-line count is
  at most the associativity, an access hits iff it is not the first
  touch of its line, which one tag sort answers — :func:`lru_filter`,
  for several associativities of one stream at once.  Sets are
  independent, so conflict sets that do evict are carved out and
  replayed exactly on their own — through the stack-distance counts
  when the residue is large, so conflict-heavy streams (omnetpp's
  pointer webs, xalancbmk's DOM walks) stay vectorized end to end.

These are the primitives of the machine model's one replay,
:func:`~repro.machine.cost.replay_columns`.  Every function here is
bit-exact against a scalar dict/bytearray walk;
``tests/test_kernel.py`` fuzzes them against brute force and
``tests/test_golden_equivalence.py`` checks whole reports.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "left_rank",
    "lru_hits",
    "lru_filter",
    "counter_miss_counts",
    "gshare_history",
]

# Below this block size, cross-counts are cheaper by broadcast compare
# than by searchsorted-based merging.
_BROADCAST_MAX_BLOCK = 32

# Below this stream (or carve) length the plain dict walk in
# ``_lru_scalar`` beats the vector setup cost.  On the 591 filter calls
# under 1,024 events of an 8-config sweep of the seed-0 captures, the
# median of 7 runs was 0.149 s with the walk below 1,024 events, 0.067 s
# below 256, 0.038 s below 64 or 32, and 0.049 s with no walk at all.
_FILTER_SCALAR_MAX = 64

# The reuse-window count of a first touch: above every associativity,
# so a first touch misses under each.
_FIRST_TOUCH = np.iinfo(np.int64).max


def _stable_order(values: np.ndarray) -> np.ndarray:
    """Indices that stable-sort ``values`` (int64).

    NumPy's ``kind="stable"`` argsort on int64 is timsort and several
    times slower than quicksort at these sizes.  Narrow value ranges
    (set indices, page-local ids) fit uint16, where the stable sort is
    a radix sort — faster still than any comparison sort.  Otherwise,
    when the range permits, we sort the collision-free composite key
    ``value * n + pos`` with the default quicksort; distinct keys make
    the result deterministic and equal to the stable order.
    """
    n = values.size
    if n <= 1:
        return np.zeros(n, dtype=np.int64)
    vmin = int(values.min())
    vmax = int(values.max())
    if vmin == vmax:
        return np.arange(n, dtype=np.int64)
    if vmax - vmin < (1 << 16):
        return np.argsort((values - vmin).astype(np.uint16), kind="stable")
    if vmax - vmin < (1 << 62) // n:
        pos = np.arange(n, dtype=np.int64)
        return np.argsort((values - vmin) * n + pos)
    return np.argsort(values, kind="stable")


def left_rank(values: np.ndarray) -> np.ndarray:
    """For distinct integers, ``C[q] = #{p < q : values[p] < values[q]}``.

    Iterative bottom-up mergesort.  Levels with blocks up to
    ``_BROADCAST_MAX_BLOCK`` count left-half-vs-right-half pairs with one
    broadcast comparison per level (no sorting needed); larger levels
    keep blocks sorted and use a single flattened ``searchsorted`` per
    direction — row offsets larger than the value range make the
    concatenation of sorted blocks globally sorted, so one call serves
    every block pair at once.
    """
    v = np.asarray(values, dtype=np.int64)
    n = v.size
    if n <= 1:
        return np.zeros(n, dtype=np.int64)
    # Rank-compress to a permutation of 0..n-1 so pads and row offsets
    # have a known range.  Values are distinct, so the default quicksort
    # is deterministic.
    ranks = np.empty(n, dtype=np.int64)
    ranks[np.argsort(v)] = np.arange(n, dtype=np.int64)
    m = 1 << (n - 1).bit_length()
    a = np.empty(m, dtype=np.int64)
    a[:n] = ranks
    # Pads sort above every real rank, so they never count for a real
    # query; their own counts land on positions >= n and are discarded.
    a[n:] = np.arange(n, m, dtype=np.int64)
    perm = np.arange(m, dtype=np.int64)
    out = np.zeros(m, dtype=np.int64)

    width = 1
    while width < m and width <= _BROADCAST_MAX_BLOCK:
        pairs = a.reshape(m // (2 * width), 2 * width)
        left, right = pairs[:, :width], pairs[:, width:]
        cnt = (left[:, :, None] < right[:, None, :]).sum(axis=1, dtype=np.int64)
        out[perm.reshape(m // (2 * width), 2 * width)[:, width:].ravel()] += cnt.ravel()
        width *= 2

    if width < m:
        # Seed the merge levels: sort each block once.
        rows = a.reshape(m // width, width)
        order = np.argsort(rows, axis=1, kind="stable")
        a = np.take_along_axis(rows, order, axis=1).ravel()
        perm = np.take_along_axis(perm.reshape(m // width, width), order, axis=1).ravel()
        while width < m:
            nblocks = m // (2 * width)
            blocks = a.reshape(nblocks, 2 * width)
            pblocks = perm.reshape(nblocks, 2 * width)
            row = np.repeat(np.arange(nblocks, dtype=np.int64), width)
            offset = row * m
            lkeys = blocks[:, :width].ravel() + offset
            rkeys = blocks[:, width:].ravel() + offset
            # of each right element: how many left-block values are below
            cnt_r = np.searchsorted(lkeys, rkeys) - row * width
            out[pblocks[:, width:].ravel()] += cnt_r
            # merge the sorted halves by final position (values distinct)
            cnt_l = np.searchsorted(rkeys, lkeys) - row * width
            within = np.tile(np.arange(width, dtype=np.int64), nblocks)
            base = row * (2 * width)
            merged = np.empty(m, dtype=np.int64)
            mperm = np.empty(m, dtype=np.int64)
            lpos = base + within + cnt_l
            rpos = base + within + cnt_r
            merged[lpos] = blocks[:, :width].ravel()
            mperm[lpos] = pblocks[:, :width].ravel()
            merged[rpos] = blocks[:, width:].ravel()
            mperm[rpos] = pblocks[:, width:].ravel()
            a, perm = merged, mperm
            width *= 2
    return out[:n]


# Bitset-path limits: widest per-set line alphabet (words of 64), and
# the word-operation budget above which the rank path is cheaper.
_BITSET_MAX_LINES = 2048
_BITSET_RANK_FACTOR = 256

# Below this many boolean ops (hard queries x stream length), long
# windows are answered by direct broadcast comparison instead of
# building the dyadic OR table.
_DIRECT_MAX_OPS = 1 << 20

# Below this many total window positions, hard queries are answered by
# gathering every in-window predecessor flag directly — cost scales
# with the sum of window lengths rather than stream length, which wins
# when hard windows are short (low-associativity levels).
_FLAT_MAX_OPS = 1 << 16

# Reusable backing store for the dyadic OR tables.  These run to
# megabytes, which the allocator returns to the OS on free — without
# reuse every replay repays the page faults for the same buffer.
# Oversized requests (beyond this word count) stay one-shot so a single
# huge stream cannot pin memory for the life of the process.
_TABLE_CACHE_MAX_WORDS = 1 << 22
_table_scratch_buf = np.zeros(0, dtype=np.uint64)


def _table_scratch(rows: int, k: int) -> np.ndarray:
    global _table_scratch_buf
    need = rows * k
    if need > _TABLE_CACHE_MAX_WORDS:
        return np.empty((rows, k), dtype=np.uint64)
    if _table_scratch_buf.size < need:
        _table_scratch_buf = np.empty(need, dtype=np.uint64)
    return _table_scratch_buf[:need].reshape(rows, k)


def _window_distinct_counts(
    ks: np.ndarray,
    kt: np.ndarray,
    by_tag: np.ndarray,
    same_tag: np.ndarray,
    V: np.ndarray,
    queries: np.ndarray,
    assoc: int,
) -> "np.ndarray | None":
    """Distinct lines in each query's reuse window, counted directly.

    An access at kept position ``q`` hits iff fewer than the
    associativity distinct lines appeared in the window ``(V[q], q)``.
    The stream is set-major, so the window stays inside one set's
    segment and every set can number its lines locally; each position
    then becomes a one-bit row of a bitset, and a dyadic range-OR table
    answers every window with two gathers — popcount of the OR is the
    distinct count.  Linear in stream length x alphabet words,
    independent of how many accesses need answering; returns ``None``
    when per-set alphabets are too wide or the rank path is estimated
    cheaper.

    ``assoc`` is the smallest associativity the caller will compare
    with.  A window shorter than it is not counted: its length stands
    in for the count, which every associativity from ``assoc`` up
    compares the same way.
    """
    k = kt.size
    # A window of w positions holds at most w distinct lines, so any
    # reuse window shorter than the associativity hits unconditionally
    # — on associative levels that is usually almost every query.
    wq = queries - V[queries] - 1
    hard = np.flatnonzero(wq >= assoc)
    if not hard.size:
        return wq
    hq = queries[hard]
    hV = V[hq]
    ws = wq[hard]
    total_win = int(ws.sum())
    if total_win <= _FLAT_MAX_OPS and int(ws.min()) > 0:
        # Short hard windows: enumerate every window position in one
        # flat gather.  A position ``p`` counts iff its predecessor
        # lies outside the window (``V[p] <= V[q]``) — the first
        # in-window occurrence of each distinct line; ``line[q]``
        # itself cannot appear inside its own reuse window.
        cum = np.zeros(hard.size + 1, dtype=np.int64)
        np.cumsum(ws, out=cum[1:])
        starts = cum[:-1]
        ramp = np.arange(total_win, dtype=np.int64) - np.repeat(starts, ws)
        idx = np.repeat(hV + 1, ws) + ramp
        firsts = (V[idx] <= np.repeat(hV, ws)).astype(np.int32)
        distinct = np.add.reduceat(firsts, starts)
        wq[hard] = distinct
        return wq
    if hard.size * k <= _DIRECT_MAX_OPS:
        # A handful of long-window queries (pointer chasers through a
        # big dTLB): answer each with one masked comparison over the
        # kept stream.  A position ``p`` in the window counts iff its
        # own predecessor lies outside it (``V[p] <= V[q]``; first
        # touches have -1) — exactly the first in-window occurrence of
        # each distinct line, and ``line[q]`` itself cannot appear.
        # Positions at or before ``V[q]`` pass the predicate trivially
        # (``V[p] < p``), contributing exactly ``V[q] + 1``.  Kept
        # positions fit int32, which halves the broadcast traffic.
        pos = np.arange(k, dtype=np.int32)
        V32 = V.astype(np.int32)
        inwin = (pos[None, :] < hq[:, None].astype(np.int32)) & (
            V32[None, :] <= hV[:, None].astype(np.int32)
        )
        distinct = inwin.sum(axis=1, dtype=np.int64) - hV - 1
        wq[hard] = distinct
        return wq
    if not hasattr(np, "bitwise_count"):  # numpy < 2.0
        return None
    head = np.empty(k, dtype=bool)
    head[0] = True
    head[1:] = ~same_tag
    first_pos = by_tag[head]
    # Lines ordered by first occurrence are grouped by set segment, so
    # a line's local id is its rank within that run.
    forder = np.argsort(first_pos)
    fsorted = first_pos[forder]
    sseq = ks[fsorted]
    nlines = first_pos.size
    newset = np.empty(nlines, dtype=bool)
    newset[0] = True
    newset[1:] = sseq[1:] != sseq[:-1]
    seg_start = np.flatnonzero(newset)
    seg_sizes = np.diff(np.append(seg_start, nlines))
    maxd = int(seg_sizes.max())
    if maxd > _BITSET_MAX_LINES:
        return None
    words = (maxd + 63) >> 6
    levels = int(wq[hard].max()).bit_length() - 1
    if (levels + 2) * k * words > queries.size * _BITSET_RANK_FACTOR:
        return None
    lid = np.empty(nlines, dtype=np.int64)
    lid[forder] = np.arange(nlines, dtype=np.int64) - np.repeat(
        seg_start, seg_sizes
    )
    group_sizes = np.diff(np.append(np.flatnonzero(head), k))
    rid = np.empty(k, dtype=np.int64)
    rid[by_tag] = np.repeat(lid, group_sizes)
    # Stack every dyadic level into one array so all queries — whatever
    # their window length — answer with a single flat double-gather.
    # floor(log2) is exact on float64 for any window length < 2**53.
    lq = np.floor(np.log2(wq[hard])).astype(np.int64)
    base = lq * k
    lo = base + hV + 1
    hi = base + hq - (np.int64(1) << lq)
    bits = np.uint64(1) << (rid & 63).astype(np.uint64)
    if words == 1:
        # one word covers the whole set alphabet: drop the word axis,
        # the per-row popcount is then a straight ufunc
        tabs = _table_scratch(levels + 1, k)
        tabs[0] = bits
        for ell in range(1, levels + 1):
            half = 1 << (ell - 1)
            prev = tabs[ell - 1]
            np.bitwise_or(prev[: k - half], prev[half:], out=tabs[ell, : k - half])
            tabs[ell, k - half :] = prev[k - half :]
        flat = tabs.reshape(-1)
        distinct = np.bitwise_count(flat[lo] | flat[hi]).astype(np.int64)
    else:
        # Wider alphabets: one flat single-word table per 64-line plane,
        # accumulating popcounts across planes.  Same total word count
        # as a 3D table, but every OR and gather stays contiguous.
        widx = rid >> 6
        tabs = _table_scratch(levels + 1, k)
        distinct = np.zeros(hard.size, dtype=np.int64)
        for w in range(words):
            row0 = tabs[0]
            row0[:] = 0
            sel = widx == w
            row0[sel] = bits[sel]
            for ell in range(1, levels + 1):
                half = 1 << (ell - 1)
                prev = tabs[ell - 1]
                np.bitwise_or(
                    prev[: k - half], prev[half:], out=tabs[ell, : k - half]
                )
                tabs[ell, k - half :] = prev[k - half :]
            flat = tabs.reshape(-1)
            distinct += np.bitwise_count(flat[lo] | flat[hi]).astype(np.int64)
    wq[hard] = distinct
    return wq


def _reuse_distinct(
    sets: np.ndarray,
    lines: np.ndarray,
    assoc: int,
    tag_order: "np.ndarray | None" = None,
) -> np.ndarray:
    """Reuse-window distinct-line counts over explicit (set, line) streams.

    ``sets``/``lines`` are parallel int64 arrays in access order (equal
    line id implies equal set id).  Returns, per access, the number of
    distinct lines its set touched since the previous access to its
    line, or ``_FIRST_TOUCH`` for a first touch.  Starting from an
    empty cache, an access then hits an LRU level of ``a`` ways iff its
    count is below ``a`` — for every ``a`` from ``assoc`` up: counts
    below ``assoc`` may stand as window lengths
    (:func:`_window_distinct_counts`).

    ``tag_order``, when given, is a permutation of stream positions
    grouping equal line ids contiguously, stable within each group —
    a caller that already tag-sorted the stream (``lru_filter``) passes
    it so the second sort here is skipped.
    """
    n = lines.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    order = _stable_order(sets)
    st = lines[order]
    # An access repeating the immediately-previous line of its set is a
    # hit that leaves LRU state unchanged — drop it before the expensive
    # rank computation.  (Equal line ids imply equal sets.)
    rerun = np.empty(n, dtype=bool)
    rerun[0] = False
    rerun[1:] = st[1:] == st[:-1]
    keep = np.flatnonzero(~rerun)
    kt = st[keep]
    k = keep.size

    # V[q]: position (in kept, set-major order) of the previous access
    # to the same line, or -1.  Same line implies same set, so grouping
    # by line alone finds the predecessor.
    if tag_order is None:
        by_tag = _stable_order(kt)
    else:
        # Reuse the caller's tag grouping: within a line group the
        # original order equals the kept set-major order (same line
        # means same set, and the set sort is stable), so mapping the
        # caller's permutation to kept coordinates and dropping the
        # rerun positions yields exactly the stable tag order of ``kt``.
        kcoord = np.full(n, -1, dtype=np.int64)
        kcoord[order[keep]] = np.arange(k, dtype=np.int64)
        mapped = kcoord[tag_order]
        by_tag = mapped[mapped >= 0]
    grouped = kt[by_tag]
    same_tag = grouped[1:] == grouped[:-1]
    V = np.full(k, -1, dtype=np.int64)
    V[by_tag[1:][same_tag]] = by_tag[:-1][same_tag]

    # Only accesses with a previous occurrence can hit; first touches
    # are misses outright and need no rank query.
    queries = np.flatnonzero(V >= 0)
    kept_d = np.full(k, _FIRST_TOUCH, dtype=np.int64)
    if queries.size:
        d = _window_distinct_counts(
            sets[order][keep], kt, by_tag, same_tag, V, queries, assoc
        )
        if d is None:
            # Distinct lines touched since the previous access to this
            # line: every first touch before q counts (its synthetic
            # predecessor sorts below any real position), plus the
            # non-first accesses whose predecessor came before V[q],
            # minus the line itself.  Predecessor positions are unique
            # per access, so the rank restricted to query positions is
            # a left_rank over the subsequence V[queries] — usually far
            # smaller than the stream when the carve-out is dominated by
            # cold misses.
            firsts_before = np.cumsum(V < 0)
            d = firsts_before[queries] + left_rank(V[queries]) - V[queries] - 1
        kept_d[queries] = d

    # a rerun's window is empty
    sorted_d = np.zeros(n, dtype=np.int64)
    sorted_d[keep] = kept_d
    out = np.empty(n, dtype=np.int64)
    out[order] = sorted_d
    return out


def lru_hits(tags: np.ndarray, set_mask: int, assoc: int) -> np.ndarray:
    """Exact LRU hit flags for one allocate-on-miss cache level.

    ``tags`` are line tags in access order; a tag's set is
    ``tag & set_mask`` (pass 0 for a fully-associative structure).
    Returns a boolean array, True where the access hits.  Matches the
    insertion-ordered-dict LRU in :mod:`repro.machine.cache` exactly,
    starting from an empty cache.
    """
    t = np.asarray(tags, dtype=np.int64)
    return _reuse_distinct(t & set_mask, t, assoc) < assoc


def _lru_scalar(tags: list, set_mask: int, assoc: int) -> np.ndarray:
    """Reference dict-LRU walk of one cache level; returns hit flags.

    Mirrors the insertion-ordered-dict model in
    :mod:`repro.machine.cache` exactly (allocate on miss, evict the
    least recently used way).
    """
    hits = np.empty(len(tags), dtype=bool)
    sets: dict = {}
    i = 0
    for t in tags:
        lset = sets.get(t & set_mask)
        if lset is None:
            lset = sets[t & set_mask] = {}
        if t in lset:
            del lset[t]
            lset[t] = None
            hits[i] = True
        else:
            hits[i] = False
            if len(lset) >= assoc:
                lset.pop(next(iter(lset)))
            lset[t] = None
        i += 1
    return hits


def lru_filter(
    tags: np.ndarray, set_mask: int, assocs: "Sequence[int]"
) -> list[np.ndarray]:
    """Exact LRU hit flags for one level's stream under each associativity.

    Returns one boolean array per entry of ``assocs``, in order, True
    where the access hits a level of that many ways (a fully
    associative one when ``set_mask`` is 0).  One pass answers them
    all: the tag sort, the first touches and the per-set distinct-line
    counts are shared, and so are the reuse-window counts of the
    stack-distance kernel, against which each associativity is one
    comparison.

    Sampled address streams are usually eviction-free: when a set's
    distinct-line count never exceeds the associativity, nothing is
    ever evicted from it, so an access to that set hits iff it is not
    the first touch of its line.  Sets behave independently under LRU,
    so the (typically few) conflict sets whose distinct count exceeds
    the smallest associativity are carved out as a subsequence and
    replayed exactly on their own, then scattered back.  A carved set
    that is clean under a larger associativity needs no special case:
    each of its reuse windows holds fewer distinct lines than it has.
    Results are bit-identical to :func:`lru_hits` and to the reference
    dict walk.
    """
    t = np.asarray(tags, dtype=np.int64)
    n = t.size
    if n < _FILTER_SCALAR_MAX:
        walk = t.tolist()
        return [_lru_scalar(walk, set_mask, a) for a in assocs]
    # uniques and their first-occurrence indices (np.unique would use
    # the slow stable sort when asked for indices)
    order = _stable_order(t)
    st = t[order]
    head = np.empty(n, dtype=bool)
    head[0] = True
    head[1:] = st[1:] != st[:-1]
    uniq = st[head]
    reuse = np.ones(n, dtype=bool)
    reuse[order[head]] = False
    a_min = min(assocs)
    bad = np.bincount(uniq & set_mask, minlength=set_mask + 1) > a_min
    if not bad.any():
        return [reuse.copy() for _ in assocs]
    sets = t & set_mask
    cm = bad[sets]
    conflict = np.flatnonzero(cm)
    if conflict.size * 10 >= n * 9:
        # Nearly every event sits in a conflicting set (DOM walks,
        # pointer webs, a pointer chaser touching more pages than the
        # dTLB holds): carving buys nothing, so hand the whole stream
        # to the kernel, reusing the tag sort.  Clean sets stay exact
        # there — they just skip the first-touch shortcut.
        d = _reuse_distinct(sets, t, a_min, tag_order=order)
        return [d < a for a in assocs]
    # Conflict sets are independent of the clean sets, so their carved
    # subsequence replays exactly on its own.  Large residues go
    # through the vectorized stack-distance kernel instead of the
    # scalar dict walk — bit-identical, and the difference between a
    # x1.8 and a x4 replay on conflict-heavy benchmarks.
    tc = t[conflict]
    if conflict.size < _FILTER_SCALAR_MAX:
        walk = tc.tolist()
        carves = [_lru_scalar(walk, set_mask, a) for a in assocs]
    else:
        # Restrict the full tag sort to carve members and renumber to
        # carve coordinates; the kernel then skips its own tag sort.
        rank_tc = np.cumsum(cm) - 1
        tc_order = rank_tc[order[cm[order]]]
        d = _reuse_distinct(sets[conflict], tc, a_min, tag_order=tc_order)
        carves = [d < a for a in assocs]
    out = []
    for carve in carves:
        hits = reuse.copy()
        hits[conflict] = carve
        out.append(hits)
    return out


def _build_counter_luts() -> tuple[np.ndarray, np.ndarray]:
    """Composition / evaluation tables for canonical 2-bit clip codes.

    On the domain {0..3} every update function is ``x -> min(hi,
    max(lo, x + d))`` with ``lo, hi`` in [0, 3] and ``d`` in [-3, 3]
    (a shift beyond the window acts saturated), so each function packs
    into a 7-bit code ``(d + 3) * 16 + lo * 4 + hi``.  The family is
    closed under composition; tabulating it turns the whole segmented
    prefix scan into one uint8 gather per round.
    """
    codes = np.arange(112, dtype=np.int64)
    d = codes // 16 - 3
    lo = (codes // 4) % 4
    hi = codes % 4
    x = np.arange(4, dtype=np.int64)
    # val[c, x] = f_c(x)
    val = np.minimum(hi[:, None], np.maximum(lo[:, None], x[None, :] + d[:, None]))
    val = np.clip(val, 0, 3)
    # h[c1, c2, x] = f_c2(f_c1(x)) — apply c1 first
    h = val[codes[None, :, None], val[:, None, :]]
    h0 = h[:, :, 0]
    h3 = h[:, :, 3]
    step = h[:, :, 1:] != h[:, :, :-1]
    ramp = np.argmax(step, axis=2)  # first x with f(x+1) = f(x) + 1
    d_c = np.where(
        h0 == h3,
        h0 - 3,  # constant function: any in-range shift works
        np.take_along_axis(h, ramp[:, :, None], axis=2)[:, :, 0] - ramp,
    )
    compose = ((d_c + 3) * 16 + h0 * 4 + h3).astype(np.uint8)
    return compose.ravel(), val.astype(np.uint8).ravel()


_COMPOSE_LUT, _EVAL_LUT = _build_counter_luts()


def counter_miss_counts(
    idx: np.ndarray,
    taken: np.ndarray,
    table: np.ndarray,
    groups: np.ndarray,
    n_groups: int,
) -> np.ndarray:
    """Replay 2-bit saturating counters; returns mispredicts per group.

    ``idx`` is the table slot per event, ``taken`` the outcome (0/1),
    ``table`` the uint8 counter table updated in place, and ``groups``
    each event's group (the replay passes the method index); returns
    ``n_groups`` int64 counts.  A taken update is
    ``s -> min(3, s + 1)``, not-taken is ``s -> max(0, s - 1)``; both
    are clip functions, and that family is closed under composition, so
    each slot's event run reduces by a segmented parallel-prefix scan.

    Three structural facts make the scan cheap.  A run of ``k``
    same-direction outcomes is itself one clip function (``k`` takens
    are ``min(3, s + min(k, 3))``), so the scan runs over outcome
    *runs*, not events, and every clip function canonicalizes to a
    7-bit code (:func:`_build_counter_luts`), so one composition is one
    table gather.  A run of 3 or more is a constant function (it
    saturates from any state), so it absorbs everything before it and
    the scan restarts there.  And a taken-run entered at state ``x``
    mispredicts exactly its first ``max(0, 2 - x)`` events, a
    not-taken-run its first ``max(0, x - 1)``: at most its first two,
    so the mispredicted events are gathered from run starts, and only
    they are counted: no per-event flag array is built.
    """
    n = idx.size
    if n == 0:
        return np.zeros(n_groups, dtype=np.int64)
    order = _stable_order(idx)
    sidx = idx[order]
    tk = taken[order] != 0

    head = np.empty(n, dtype=bool)
    head[0] = True
    head[1:] = sidx[1:] != sidx[:-1]

    # Run-length compress: consecutive same-outcome events in one slot.
    rb = head.copy()
    rb[1:] |= tk[1:] != tk[:-1]
    run_start = np.flatnonzero(rb)
    r = run_start.size
    run_len = np.empty(r, dtype=np.int64)
    run_len[:-1] = np.diff(run_start)
    run_len[-1] = n - run_start[-1]
    run_tak = tk[run_start]
    run_head = head[run_start]  # first run of its slot segment

    # Canonical codes per run (see _build_counter_luts for the packing).
    k3 = np.minimum(run_len, 3)
    code = np.where(run_tak, (k3 + 3) * 16 + k3 * 4 + 3, (3 - k3) * 17)

    # Segmented Hillis-Steele over runs, restarting at every slot head
    # and every saturating run; active sets are nested, so each pass
    # filters the shrinking index list instead of rescanning.
    rpos = np.arange(r, dtype=np.int64)
    restart = run_head | (k3 == 3)
    rrun = rpos - np.maximum.accumulate(np.where(restart, rpos, 0))
    active = np.flatnonzero(rrun >= 1)
    shift = 1
    while active.size:
        code[active] = _COMPOSE_LUT[code[active - shift] * 112 + code[active]]
        shift <<= 1
        active = active[rrun[active] >= shift]

    # Entry state of each run: the segment's initial counter pushed
    # through the previous runs' composed function.
    c0 = table[sidx[run_start]].astype(np.int64)  # constant per segment
    x_before = c0.copy()
    inner = ~run_head
    x_before[inner] = _EVAL_LUT[code[np.flatnonzero(inner) - 1] * 4 + c0[inner]]

    thresh = np.where(run_tak, 2 - x_before, x_before - 1)
    first = run_start[thresh >= 1]
    second = run_start[(thresh >= 2) & (run_len >= 2)] + 1

    last = np.empty(r, dtype=bool)
    last[:-1] = run_head[1:]
    last[-1] = True
    table[sidx[run_start[last]]] = _EVAL_LUT[code[last] * 4 + c0[last]]
    missed = order[np.concatenate([first, second])]
    return np.bincount(groups[missed], minlength=n_groups)


def gshare_history(taken: np.ndarray, history_bits: int) -> np.ndarray:
    """Per-event global history column for a gshare replay.

    ``history`` before event ``i`` packs outcomes ``i-1, i-2, ...`` into
    the low bits, starting from the empty history a fresh predictor
    has; each bit position is one shifted slice of the outcome column.
    """
    n = taken.size
    h = np.zeros(n, dtype=np.int64)
    for bit in range(min(history_bits, n - 1) if n > 1 else 0):
        h[bit + 1 :] |= taken[: n - 1 - bit] << bit
    return h
