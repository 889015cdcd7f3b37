"""One profile entry per capture: its checked envelope and its merges.

The profile store keeps one entry per (capture, replay code, build),
holding the profile of every machine config that capture was replayed
on.  An entry is ``RPG1``, its body length and a CRC-32 of the body,
then a JSON body; the magic, length and CRC are checked before anything
is parsed, so no truncation and no single-byte change ever decodes, and
a damaged entry is quarantined and every config it held replays again.

A write replaces the whole entry with what its writer read plus what it
added.  Two writers that fill one entry at once can drop each other's
members; a dropped member is a later miss, never a wrong profile.
"""

from __future__ import annotations

import functools
import json
import shutil
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import metrics
from repro.core.artifacts import ArtifactStore
from repro.core.cache import (
    PROFILE_MAGIC,
    ProfileEntry,
    ResultCache,
    cache_key,
    decode_profiles,
    encode_profiles,
    profile_to_dict,
)
from repro.core.errors import CacheCorruption
from repro.core.metrics import CACHE_EVENTS_TOTAL
from repro.core.registry import alberta_workloads, machine_preset
from repro.core.run import Session
from repro.core.sweep import MachineGrid, ReplayRequest, SweepRequest, default_sweep_grid
from repro.core.workload import AlbertaRef

MCF = "505.mcf_r"
REFRATE = AlbertaRef(MCF, 0, "mcf.refrate")
PREFIX = 12  # magic, body length, CRC-32
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=200)
TWO = MachineGrid.from_presets("default", "atom-like")


def _sweep(store, grid=TWO):
    with Session(cache=store) as s:
        result = s.characterize_sweep(SweepRequest(MCF, grid))
    return [c.table2_row() for c in result.characterizations], s.summary


@functools.cache
def _refrate_entry() -> bytes:
    """mcf refrate's entry as a Table II run writes it."""
    with tempfile.TemporaryDirectory() as tmp:
        with Session(cache=tmp) as s:
            s.characterize(MCF)
        return ResultCache(tmp)._path(cache_key(MCF, REFRATE)).read_bytes()


def _decodes(blob: bytes) -> bool:
    try:
        decode_profiles(blob)
    except CacheCorruption:
        return False
    return True


def _blobs(root: Path) -> list[bytes]:
    return [p.read_bytes() for p in ResultCache(root)._entries()]


# ------------------------------------------------------------ envelope


def test_an_entry_round_trips_every_member():
    entry = decode_profiles(_refrate_entry())
    (profile,) = entry.members.values()
    assert entry.profile(None) is profile
    assert entry.profile(machine_preset("atom-like")) is None
    entry.add(machine_preset("atom-like"), profile)
    again = decode_profiles(encode_profiles(entry))
    assert list(again.members) == list(entry.members)
    for digest, p in entry.members.items():
        assert profile_to_dict(again.members[digest]) == profile_to_dict(p)
    assert encode_profiles(again) == encode_profiles(entry)


def test_the_envelope_covers_the_whole_body():
    blob = _refrate_entry()
    assert blob[:4] == PROFILE_MAGIC
    assert int.from_bytes(blob[4:8], "little") == len(blob) - PREFIX


@FUZZ
@given(data=st.data())
def test_no_truncation_of_a_profile_entry_decodes(data):
    blob = _refrate_entry()
    cut = data.draw(st.integers(0, len(blob) - 1))
    with pytest.raises(CacheCorruption):
        decode_profiles(blob[:cut])


@FUZZ
@given(data=st.data())
def test_no_single_byte_change_of_a_profile_entry_decodes(data):
    blob = _refrate_entry()
    pos = data.draw(st.integers(0, len(blob) - 1))
    value = data.draw(st.integers(0, 255).filter(lambda v: v != blob[pos]))
    damaged = bytearray(blob)
    damaged[pos] = value
    with pytest.raises(CacheCorruption):
        decode_profiles(bytes(damaged))


def test_no_single_digit_substitution_or_bit_flip_decodes():
    """The checksum gate: every digit of mcf refrate's entry swapped for
    each other digit, and every bit flipped, is rejected."""
    blob = _refrate_entry()
    digits = b"0123456789"
    substitutions = flips = 0
    for pos, byte in enumerate(blob):
        if pos >= PREFIX and byte in digits:
            for d in digits:
                if d != byte:
                    substitutions += 1
                    assert not _decodes(blob[:pos] + bytes([d]) + blob[pos + 1 :]), pos
        for bit in range(8):
            flips += 1
            assert not _decodes(blob[:pos] + bytes([byte ^ (1 << bit)]) + blob[pos + 1 :]), pos
    assert substitutions > 1000 and flips == 8 * len(blob)


@pytest.mark.parametrize(
    "change",
    [
        lambda doc: doc.update(profiles={}),
        lambda doc: doc.update(format=2),
        lambda doc: next(iter(doc["profiles"].values())).pop("report"),
        lambda doc: doc.pop("verified"),
    ],
    ids=["no-profiles", "format", "no-report", "no-verified"],
)
def test_a_checked_body_that_is_not_an_entry_does_not_decode(change):
    doc = json.loads(_refrate_entry()[PREFIX:])
    change(doc)
    body = json.dumps(doc).encode()
    blob = PROFILE_MAGIC + len(body).to_bytes(4, "little")
    blob += zlib.crc32(body).to_bytes(4, "little") + body
    with pytest.raises(CacheCorruption):
        decode_profiles(blob)


# ---------------------------------------------------------- the engine


def test_table2_then_a_sweep_hits_one_member_and_writes_each_entry_once(
    tmp_path, monkeypatch
):
    store = ArtifactStore(tmp_path)
    with Session(cache=store) as s:
        table2 = s.characterize(MCF).characterization.table2_row()
    n = len(alberta_workloads(MCF))
    grid = default_sweep_grid()
    writes = []
    put = ResultCache.put

    def counted(self, key, entry):
        writes.append((key, len(entry.members)))
        return put(self, key, entry)

    monkeypatch.setattr(ResultCache, "put", counted)
    with metrics.collector(metrics.MetricsRegistry()) as reg:
        rows, summary = _sweep(store, grid)
    assert rows[grid.names.index("default")] == table2
    assert summary.replay_hits == n and summary.replays == n * (len(grid.names) - 1)
    assert reg.value(CACHE_EVENTS_TOTAL, store="profile", event="hit") == n
    assert reg.value(CACHE_EVENTS_TOTAL, store="profile", event="miss") == 7 * n
    assert sorted(writes) == sorted((cache_key(MCF, w), 8) for w in alberta_workloads(MCF))
    assert len(store.profiles) == n
    assert store.profiles.count_profiles() == 8 * n


def test_a_quarantined_entry_replays_every_member_it_held(tmp_path):
    store = ArtifactStore(tmp_path)
    cold, _ = _sweep(store)
    path = store.profiles._path(cache_key(MCF, REFRATE))
    blob = bytearray(path.read_bytes())
    blob[-2] ^= 0x01
    path.write_bytes(bytes(blob))
    warm, summary = _sweep(store)
    assert warm == cold
    assert summary.quarantined == 1
    assert summary.replays == 2 and summary.replay_hits == 2 * (len(alberta_workloads(MCF)) - 1)
    assert store.profiles.quarantined_entries() == 1
    assert len(decode_profiles(path.read_bytes()).members) == 2


def test_a_member_dropped_by_an_interleaved_write_reads_as_a_miss(tmp_path):
    """Writer B read an entry before writer A added ``atom-like`` to it and
    wrote after: A's member is gone, and the next pass replays it."""
    a, b = tmp_path / "a", tmp_path / "b"
    with Session(cache=a) as s:
        s.capture_set(MCF)
    shutil.copytree(a, b)
    atom = MachineGrid.from_presets("atom-like")
    cold, _ = _sweep(a, atom)
    _sweep(b, MachineGrid.from_presets("default"))
    for entry in ResultCache(b)._entries():
        shutil.copy(entry, a / entry.relative_to(b))  # B's stale merge lands last

    with metrics.collector(metrics.MetricsRegistry()) as reg:
        again, summary = _sweep(a, atom)
    n = len(alberta_workloads(MCF))
    assert again == cold
    assert summary.replays == n and summary.captures == 0
    assert reg.value(CACHE_EVENTS_TOTAL, store="profile", event="miss") == n
    assert all(len(e.members) == 2 for e in map(decode_profiles, _blobs(a)))


def test_replays_of_one_capture_on_two_machines_share_one_entry(tmp_path):
    store = ArtifactStore(tmp_path)
    machines = [None, machine_preset("atom-like")]
    with Session(cache=store) as s:
        capture = s.capture(MCF, "mcf.refrate")
        cold = [s.replay(capture, ReplayRequest(workload=REFRATE, machine=m)) for m in machines]
    assert len(store.profiles) == 1
    (blob,) = _blobs(tmp_path)
    assert len(decode_profiles(blob).members) == 2
    with Session(cache=store) as s:
        warm = [s.replay(capture, ReplayRequest(workload=REFRATE, machine=m)) for m in machines]
    assert s.summary.replay_hits == 2 and s.summary.replays == 0
    assert [profile_to_dict(p) for p in warm] == [profile_to_dict(p) for p in cold]


def test_a_damaged_replay_entry_is_tallied_and_replayed_again(tmp_path):
    with Session(cache=tmp_path) as s:
        capture = s.capture(MCF, "mcf.refrate")
        cold = s.replay(capture, ReplayRequest(workload=REFRATE))
    path = ResultCache(tmp_path)._path(cache_key(MCF, REFRATE))
    path.write_bytes(path.read_bytes()[:-1])
    with Session(cache=tmp_path) as s:
        warm = s.replay(capture, ReplayRequest(workload=REFRATE))
    assert s.summary.quarantined == 1 and s.summary.replays == 1
    assert profile_to_dict(warm) == profile_to_dict(cold)
    assert ResultCache(tmp_path).quarantined_entries() == 1
    assert decode_profiles(path.read_bytes()).profile(None) is not None


def test_wipe_removes_entries_of_the_one_profile_per_file_layout(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(cache_key(MCF, REFRATE), decode_profiles(_refrate_entry()))
    old = tmp_path / "ab" / ("ab" + "0" * 62 + ".json")
    old.parent.mkdir(exist_ok=True)
    old.write_text('{"format":1}')
    old.with_name(old.name + ".corrupt").write_text("{torn")
    assert len(cache) == 1  # the old layout is never read
    assert cache.wipe() == 2
    assert not any(tmp_path.rglob("*"))
