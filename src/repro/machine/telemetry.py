"""Instrumentation API for the mini-benchmarks.

Real SPEC runs are observed with hardware counters; our mini-benchmarks
are observed through a :class:`Probe`.  Each benchmark routes its work
through named *methods* (``with probe.method("primal_bea_mpp"): ...``)
and reports three kinds of events:

* **operation counts** (``probe.ops``) — exact, per kind (int / fp /
  fpdiv);
* **conditional branch outcomes** (``probe.branch`` /
  ``probe.branches``) — replayed through a branch predictor;
* **memory accesses** (``probe.load`` / ``probe.store`` /
  ``probe.accesses``) — replayed through the cache hierarchy.

Operation counts are kept exactly.  Branch and memory events are
appended to a single, order-preserving event stream that is decimated
(uniformly, deterministically) once it reaches a cap, so that replay
cost stays bounded while hit/miss *rates* remain representative; the
cost model extrapolates the sampled rates back to the exact counts.

The stream is stored **columnar**: four parallel ``array('q')`` columns
(method index, event kind, ``a``, ``b``) instead of a list of tuples.
The bulk recorders (:meth:`Probe.branches`, :meth:`Probe.accesses`)
have vector fast paths that apply the decimation stride with NumPy
slicing — one slice per stride segment instead of one Python call per
event — and decimation itself is a column slice.  The sampled stream is
bit-identical to the historical scalar implementation (see
``tests/test_golden_equivalence.py``).

Decimation caveat: subsampling strips temporal locality from the
address stream and history correlation from the branch stream, so
decimated runs conservatively *overestimate* miss and misprediction
rates.  The top-down category fractions — the quantity Section V of
the paper reports — remain stable (see
``tests/test_telemetry_sampling.py``); absolute simulated cycles are
only comparable between runs with similar sampling strides.
"""

from __future__ import annotations

import zlib
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Probe",
    "MethodCounters",
    "EventStream",
    "EV_BRANCH",
    "EV_DATA",
    "EV_CALL",
]

EV_BRANCH = 0
EV_DATA = 1
EV_CALL = 2

#: Code addresses live far above any data address a benchmark will use.
_CODE_REGION_BASE = 1 << 40

#: Default cap on sampled events kept in the stream.
_DEFAULT_EVENT_CAP = 262_144


@dataclass
class MethodCounters:
    """Exact per-method counters (never sampled)."""

    name: str
    index: int
    code_base: int
    code_bytes: int
    calls: int = 0
    int_ops: int = 0
    fp_ops: int = 0
    fpdiv_ops: int = 0
    branches: int = 0
    branches_taken: int = 0
    loads: int = 0
    stores: int = 0
    extra: dict[str, int] = field(default_factory=dict)

    @property
    def data_accesses(self) -> int:
        return self.loads + self.stores

    @property
    def total_ops(self) -> int:
        return self.int_ops + self.fp_ops + self.fpdiv_ops


class EventStream(Sequence):
    """Read-only view over the probe's four event columns.

    Indexing and iteration yield the historical ``(method_index, kind,
    a, b)`` tuples, so scalar consumers are unchanged; the replay
    kernel instead pulls whole columns at once via :meth:`columns`.
    The view cannot mutate the probe's stream — rewriters (e.g. the FDO
    hint filter) must go through :meth:`Probe.replace_events`.
    """

    __slots__ = ("_method", "_kind", "_a", "_b", "_owner")

    def __init__(
        self,
        method: array,
        kind: array,
        a: array,
        b: array,
        owner: "Probe | None" = None,
    ):
        self._method = method
        self._kind = kind
        self._a = a
        self._b = b
        self._owner = owner

    def __len__(self) -> int:
        return len(self._kind)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [
                (self._method[j], self._kind[j], self._a[j], self._b[j])
                for j in range(*i.indices(len(self._kind)))
            ]
        return (self._method[i], self._kind[i], self._a[i], self._b[i])

    def __iter__(self) -> Iterator[tuple[int, int, int, int]]:
        return zip(self._method, self._kind, self._a, self._b)

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The stream as four int64 NumPy arrays (snapshot copies).

        Copies (via ``tobytes``) rather than buffer views so the probe
        can keep appending afterwards — a live buffer export would make
        ``array`` resizes raise ``BufferError``.  The snapshot is
        read-only and cached on the owning probe, keyed on the column
        objects and length, so replaying one capture against many
        machine configs pays the copy once; appends grow the length and
        rewrites swap the ``array`` objects, either of which misses.
        """
        owner = self._owner
        n = len(self._kind)
        if owner is not None:
            c = owner._columns_cache
            if (
                c is not None
                and c[0] is self._method
                and c[1] is self._kind
                and c[2] is self._a
                and c[3] is self._b
                and c[4] == n
            ):
                return c[5]
        cols = (
            np.frombuffer(self._method.tobytes(), dtype=np.int64),
            np.frombuffer(self._kind.tobytes(), dtype=np.int64),
            np.frombuffer(self._a.tobytes(), dtype=np.int64),
            np.frombuffer(self._b.tobytes(), dtype=np.int64),
        )
        if owner is not None:
            owner._columns_cache = (
                self._method, self._kind, self._a, self._b, n, cols
            )
        return cols


class Probe:
    """Collects telemetry for one benchmark execution.

    The probe is deterministic: method code addresses are derived from
    CRC32 of the method name, event decimation uses fixed counters, and
    no wall-clock or OS state is consulted.
    """

    def __init__(self, event_cap: int = _DEFAULT_EVENT_CAP):
        if event_cap < 1024:
            raise ValueError("event_cap too small to be representative")
        self._methods: dict[str, MethodCounters] = {}
        self._by_index: list[MethodCounters] = []
        self._stack: list[MethodCounters] = []
        self._ev_method = array("q")
        self._ev_kind = array("q")
        self._ev_a = array("q")
        self._ev_b = array("q")
        self._event_cap = event_cap
        self._keep_every = 1
        self._tick = 0
        self._columns_cache: "tuple | None" = None

    # ---------------------------------------------------------------- methods

    def register(self, name: str, code_bytes: int = 512) -> MethodCounters:
        """Register a method (idempotent) and return its counters."""
        mc = self._methods.get(name)
        if mc is None:
            code_base = _CODE_REGION_BASE + (zlib.crc32(name.encode()) << 12)
            mc = MethodCounters(
                name=name,
                index=len(self._methods),
                code_base=code_base,
                code_bytes=code_bytes,
            )
            self._methods[name] = mc
            self._by_index.append(mc)
        return mc

    def method(self, name: str, code_bytes: int = 512) -> "_MethodScope":
        """Context manager: attribute enclosed events to ``name``."""
        return _MethodScope(self, self.register(name, code_bytes))

    @property
    def current(self) -> MethodCounters:
        if not self._stack:
            raise RuntimeError("no active method scope; wrap work in probe.method(...)")
        return self._stack[-1]

    def methods(self) -> list[MethodCounters]:
        return list(self._by_index)

    def method_by_index(self, index: int) -> MethodCounters:
        """O(1) lookup by registration index (indices are dense)."""
        try:
            return self._by_index[index]
        except IndexError:
            raise KeyError(index) from None

    # ----------------------------------------------------------------- events

    def _decimate(self) -> None:
        # Uniform deterministic decimation: keep every other sampled
        # event and double the sampling stride.  Every surviving event
        # now represents twice as many raw events; the cost model only
        # uses *rates* from the stream, so no weights are needed.
        self._ev_method = self._ev_method[::2]
        self._ev_kind = self._ev_kind[::2]
        self._ev_a = self._ev_a[::2]
        self._ev_b = self._ev_b[::2]
        self._keep_every *= 2

    def _push_event(self, kind: int, a: int, b: int) -> None:
        self._tick += 1
        if self._tick % self._keep_every:
            return
        self._ev_method.append(self._stack[-1].index)
        self._ev_kind.append(kind)
        self._ev_a.append(a)
        self._ev_b.append(b)
        if len(self._ev_kind) >= self._event_cap:
            self._decimate()

    def _push_events_vector(
        self, kind: int, a: "np.ndarray | int", b: "np.ndarray | int"
    ) -> None:
        """Append a batch of same-kind events, applying the decimation
        stride with slices instead of per-event pushes.

        One of ``a`` and ``b`` is an int64 array with one value per
        event; the other is either an equal-length int64 array or an int
        that every event of the batch shares (a branch site's pc, an
        access batch's store flag).  Constant columns, like the method
        and kind columns, grow by ``array('q', (v,)) * take``, with no
        NumPy allocation.  Equivalent, event for event, to calling
        ``_push_event`` in a loop: the tick counter advances once per
        input event, survivors are the events whose tick is a stride
        multiple, and hitting the cap mid-batch halves the stored stream
        and doubles the stride for the rest of the batch.
        """
        n = len(a) if isinstance(a, np.ndarray) else len(b)
        midx = self._stack[-1].index
        pos = 0
        while pos < n:
            k = self._keep_every
            t = self._tick
            # First input index whose tick lands on the stride: event i
            # consumes tick t + (i - pos) + 1, kept iff divisible by k.
            first = pos + ((-t - 1) % k)
            if first >= n:
                self._tick = t + (n - pos)
                return
            room = self._event_cap - len(self._ev_kind)
            avail = (n - 1 - first) // k + 1
            take = min(avail, room)
            stop = first + (take - 1) * k + 1
            self._ev_method.extend(array("q", (midx,)) * take)
            self._ev_kind.extend(array("q", (kind,)) * take)
            for column, values in ((self._ev_a, a), (self._ev_b, b)):
                if isinstance(values, np.ndarray):
                    column.frombytes(np.ascontiguousarray(values[first:stop:k]).tobytes())
                else:
                    column.extend(array("q", (values,)) * take)
            self._tick = t + (stop - pos)
            pos = stop
            if len(self._ev_kind) >= self._event_cap:
                self._decimate()

    def replace_events(
        self, events: "EventStream | Iterable[tuple[int, int, int, int]]"
    ) -> None:
        """Replace the sampled stream (replay rewriters only).

        ``Probe.events`` is a read-only view; transforms that drop or
        rewrite events — e.g. the FDO optimizer removing statically
        hinted branches — rebuild the stream through this method.
        """
        if isinstance(events, EventStream):
            self._ev_method = array("q", events._method)
            self._ev_kind = array("q", events._kind)
            self._ev_a = array("q", events._a)
            self._ev_b = array("q", events._b)
            return
        cols = list(zip(*events)) or [(), (), (), ()]
        self._ev_method = array("q", cols[0])
        self._ev_kind = array("q", cols[1])
        self._ev_a = array("q", cols[2])
        self._ev_b = array("q", cols[3])

    def replace_events_columns(
        self,
        method: np.ndarray,
        kind: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
    ) -> None:
        """Columnar variant of :meth:`replace_events` (zero tuple churn)."""
        cols = []
        for col in (method, kind, a, b):
            arr = array("q")
            arr.frombytes(np.ascontiguousarray(col, dtype=np.int64).tobytes())
            cols.append(arr)
        if len({len(c) for c in cols}) != 1:
            raise ValueError("replace_events_columns: column length mismatch")
        self._ev_method, self._ev_kind, self._ev_a, self._ev_b = cols

    def ops(self, n: int = 1, kind: str = "int") -> None:
        """Record ``n`` retired operations of the given kind (exact)."""
        mc = self.current
        if kind == "int":
            mc.int_ops += n
        elif kind == "fp":
            mc.fp_ops += n
        elif kind == "fpdiv":
            mc.fpdiv_ops += n
        else:
            raise ValueError(f"unknown op kind {kind!r}")

    def branch(self, taken: bool, site: int = 0) -> None:
        """Record one conditional branch outcome at ``site``."""
        mc = self.current
        mc.branches += 1
        if taken:
            mc.branches_taken += 1
        self._push_event(EV_BRANCH, mc.code_base + site * 16, 1 if taken else 0)

    def branches(self, outcomes: Iterable[bool], site: int = 0) -> None:
        """Record a sequence of branch outcomes at the same site.

        Vector fast path: the outcomes are materialized once, reduced
        with NumPy for the exact counters, and the sampled survivors
        are appended by stride slicing.
        """
        mc = self.current
        pc = mc.code_base + site * 16
        if isinstance(outcomes, np.ndarray):
            arr = outcomes
        else:
            arr = np.asarray(list(outcomes))
        if arr.dtype.kind not in "biuf":
            # exotic element types: preserve per-element truthiness
            arr = np.asarray([bool(t) for t in arr.tolist()])
        n = len(arr)
        if n == 0:
            return
        flags = (arr != 0).astype(np.int64)
        self._push_events_vector(EV_BRANCH, pc, flags)
        mc.branches += n
        mc.branches_taken += int(flags.sum())

    def load(self, addr: int) -> None:
        """Record one data load at byte address ``addr``."""
        mc = self.current
        mc.loads += 1
        self._push_event(EV_DATA, addr, 0)

    def store(self, addr: int) -> None:
        """Record one data store at byte address ``addr``."""
        mc = self.current
        mc.stores += 1
        self._push_event(EV_DATA, addr, 1)

    def accesses(self, addrs: Iterable[int], store: bool = False) -> None:
        """Record a batch of data accesses (all loads or all stores).

        Vector fast path: the addresses are materialized once as one
        int64 column, so a batch that does not fit raises before any
        event or counter moves, and the column is appended with the
        decimation stride applied by slicing.
        """
        mc = self.current
        if not isinstance(addrs, np.ndarray):
            addrs = list(addrs)
        arr = np.asarray(addrs, dtype=np.int64)
        n = len(arr)
        if n:
            self._push_events_vector(EV_DATA, arr, 1 if store else 0)
        if store:
            mc.stores += n
        else:
            mc.loads += n

    def count(self, key: str, n: int = 1) -> None:
        """Accumulate a benchmark-specific named counter (for reports)."""
        extra = self.current.extra
        extra[key] = extra.get(key, 0) + n

    # ------------------------------------------------------------- inspection

    @property
    def events(self) -> EventStream:
        """Read-only view of the sampled stream; items are
        ``(method_index, kind, a, b)`` tuples."""
        return EventStream(
            self._ev_method, self._ev_kind, self._ev_a, self._ev_b, self
        )

    @property
    def sampling_stride(self) -> int:
        return self._keep_every

    def total_branches(self) -> int:
        return sum(mc.branches for mc in self._methods.values())

    def total_data_accesses(self) -> int:
        return sum(mc.data_accesses for mc in self._methods.values())

    def total_ops(self) -> int:
        return sum(mc.total_ops for mc in self._methods.values())


class _MethodScope:
    """Context manager pushing a method onto the probe's scope stack."""

    __slots__ = ("_probe", "_mc")

    def __init__(self, probe: Probe, mc: MethodCounters):
        self._probe = probe
        self._mc = mc

    def __enter__(self) -> MethodCounters:
        mc = self._mc
        mc.calls += 1
        probe = self._probe
        probe._stack.append(mc)
        probe._push_event(EV_CALL, mc.index, 0)
        return mc

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self._probe._stack.pop()
