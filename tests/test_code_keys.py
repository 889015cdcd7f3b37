"""Code-derived artifact keys, Alberta recipes and the set store.

Keys name the code that made an artifact (:func:`capture_fingerprint`,
:func:`replay_fingerprint`), so an edit to a module misses exactly the
artifacts that module could have changed.  An Alberta workload is keyed
by its recipe (base seed and name), so a pass whose cells all hit never
generates a set: the set's member names come from the set store, whose
entries are checked before they are parsed.
"""

from __future__ import annotations

import ast
import functools
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import engine, metrics
from repro.core.artifacts import ArtifactStore, SetStore, decode_set, encode_set
from repro.core.cache import CAPTURE_MODULES, cache_key, capture_key, set_key
from repro.core.errors import CacheCorruption, UnknownScenarioError
from repro.core.metrics import CACHE_EVENTS_TOTAL
from repro.core.registry import REGISTRY, alberta_workloads, benchmark_ids
from repro.core.run import Session
from repro.core.sweep import MachineGrid, SweepRequest
from repro.core.workload import AlbertaRef, Workload

# ``repro.core`` re-exports functions named like some of its modules.
run_module = importlib.import_module("repro.core.run")
#: Modules that resolve Alberta members, counted by _counting_generation.
RESOLVERS = [run_module] + [
    importlib.import_module(name)
    for name in (
        "repro.core.registry",
        "repro.fdo.evaluation",
        "repro.studies.compiler_variation",
        "repro.studies.similarity",
    )
]

ROOT = Path(__file__).resolve().parents[1]
PLUGIN_SRC = ROOT / "examples" / "repro-plugin-demo" / "src"
FAST_IDS = ["505.mcf_r", "557.xz_r"]
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=200)


# ------------------------------------------------------------- recipes


def test_alberta_workloads_stamps_each_member_with_its_recipe():
    for w in alberta_workloads("505.mcf_r", 3):
        assert w.alberta == AlbertaRef("505.mcf_r", 3, w.name)
        # The stamp is not an init argument: a replaced payload keys by content.
        assert replace(w, payload=None).alberta is None


def test_alberta_keys_follow_the_recipe_and_others_the_content():
    w = alberta_workloads("505.mcf_r")[0]
    ref = AlbertaRef("505.mcf_r", 0, w.name)
    assert capture_key("505.mcf_r", w) == capture_key("505.mcf_r", ref)
    assert cache_key("505.mcf_r", w) == cache_key("505.mcf_r", ref)
    assert capture_key("505.mcf_r", w) != capture_key("505.mcf_r", replace(ref, base_seed=1))

    custom = Workload(name=w.name, benchmark=w.benchmark, payload=w.payload, seed=w.seed,
                      params=w.params)
    other = Workload(name=w.name, benchmark=w.benchmark, payload=[1, 2], seed=w.seed,
                     params=w.params)
    assert capture_key("505.mcf_r", custom) != capture_key("505.mcf_r", w)
    assert capture_key("505.mcf_r", custom) != capture_key("505.mcf_r", other)
    assert cache_key("505.mcf_r", custom) != cache_key("505.mcf_r", other)
    # Another benchmark's recipe is not this benchmark's code: by content.
    assert capture_key("557.xz_r", w) == capture_key(
        "557.xz_r", replace(w, params=dict(w.params))
    )


# ---------------------------------------------------- keys follow code


_KEYS_SCRIPT = """
import json
from repro.core.cache import cache_key, capture_key, set_key
from repro.core.registry import benchmark_ids, load_plugin
from repro.core.workload import AlbertaRef
from repro.fdo.profile_data import FdoProfile
load_plugin("repro_plugin_demo", name="demo")
from repro_plugin_demo import CollatzFdoBuild
build = CollatzFdoBuild(FdoProfile("901.collatz_x", {}))
out = {}
for bid in benchmark_ids():
    ref = AlbertaRef(bid, 0, "w")
    out[bid] = {"capture": capture_key(bid, ref), "profile": cache_key(bid, ref),
                "set": set_key(bid, 0), "build": cache_key(bid, ref, build=build)}
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def source_copy():
    """A copy of the package and of the example plugin, to edit."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(ROOT / "src" / "repro", copy / "src" / "repro", ignore=ignore)
        shutil.copytree(PLUGIN_SRC / "repro_plugin_demo", copy / "plugin" / "repro_plugin_demo",
                        ignore=ignore)
        yield copy


def _keys(copy: Path, edited: str | None = None) -> dict:
    """Every benchmark's keys computed from ``copy``, with ``edited``
    (a path under it) changed by one comment line."""
    path = copy / edited if edited else None
    original = path.read_bytes() if path else b""
    if path:
        path.write_bytes(original + b"\n# an edit\n")
    try:
        env = {**os.environ, "REPRO_DISABLE_PLUGINS": "1",
               "PYTHONPATH": os.pathsep.join([str(copy / "src"), str(copy / "plugin")])}
        out = subprocess.run([sys.executable, "-c", _KEYS_SCRIPT], env=env, check=True,
                             capture_output=True, text=True).stdout
    finally:
        if path:
            path.write_bytes(original)
    return json.loads(out)


@pytest.fixture(scope="module")
def base_keys(source_copy):
    return _keys(source_copy)


def _changed(before: dict, after: dict, kind: str) -> set[str]:
    assert before.keys() == after.keys()
    return {bid for bid in before if before[bid][kind] != after[bid][kind]}


def test_editing_a_replay_module_misses_profiles_but_no_capture(source_copy, base_keys):
    keys = _keys(source_copy, "src/repro/machine/kernel.py")
    assert _changed(base_keys, keys, "profile") == set(base_keys)
    assert _changed(base_keys, keys, "build") == set(base_keys)
    assert _changed(base_keys, keys, "capture") == set()
    assert _changed(base_keys, keys, "set") == set()


def test_editing_a_generator_misses_exactly_its_benchmark(source_copy, base_keys):
    keys = _keys(source_copy, "src/repro/workloads/mcf_gen.py")
    for kind in ("capture", "profile", "set"):
        assert _changed(base_keys, keys, kind) == {"505.mcf_r"}


def test_editing_a_plugin_module_misses_its_benchmark(source_copy, base_keys):
    """The demo plugin's module holds its benchmark, generator and FDO
    build, so an edit misses the benchmark's captures and every profile
    replayed under that build, and no other capture."""
    assert "901.collatz_x" in base_keys
    keys = _keys(source_copy, "plugin/repro_plugin_demo/__init__.py")
    assert _changed(base_keys, keys, "capture") == {"901.collatz_x"}
    assert _changed(base_keys, keys, "build") == set(base_keys)


def test_editing_a_shared_capture_module_misses_every_capture(source_copy, base_keys):
    keys = _keys(source_copy, "src/repro/machine/telemetry.py")
    assert _changed(base_keys, keys, "capture") == set(base_keys)


def _imported_modules(module_name: str) -> set[str]:
    """Every in-package module ``module_name`` imports, anywhere in it."""
    spec = importlib.util.find_spec(module_name)
    tree = ast.parse(Path(spec.origin).read_text(encoding="utf-8"))
    package = module_name.rsplit(".", 1)[0]
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.startswith("repro"))
        elif isinstance(node, ast.ImportFrom):
            base = importlib.util.resolve_name("." * node.level + (node.module or ""), package) \
                if node.level else node.module or ""
            if not base.startswith("repro"):
                continue
            for alias in node.names:
                sub = f"{base}.{alias.name}"
                found.add(sub if importlib.util.find_spec(base).submodule_search_locations
                          and importlib.util.find_spec(sub) else base)
    return found


@pytest.mark.parametrize("bid", benchmark_ids())
def test_benchmark_and_generator_import_only_fingerprinted_modules(bid):
    """A capture's fingerprint covers its benchmark's and generator's own
    modules and CAPTURE_MODULES; code they import from anywhere else in
    the package would change captures without changing their keys."""
    own = {REGISTRY.get(kind, bid).factory.__module__ for kind in ("benchmark", "generator")}
    allowed = own | set(CAPTURE_MODULES) | {"repro.core.registry", "repro.core.errors"}
    for module in own:
        assert _imported_modules(module) <= allowed, module


# ------------------------------------------------------------ set store


@functools.lru_cache(maxsize=None)
def _real_entry() -> bytes:
    names = alberta_workloads("505.mcf_r").names()
    return encode_set("505.mcf_r", 0, names)


def test_set_entry_round_trips_and_names_its_set():
    blob = _real_entry()
    assert decode_set(blob, "505.mcf_r", 0) == alberta_workloads("505.mcf_r").names()
    for other in (("505.mcf_r", 1), ("557.xz_r", 0)):
        with pytest.raises(CacheCorruption):
            decode_set(blob, *other)


@FUZZ
@given(data=st.data())
def test_no_truncation_of_a_set_entry_decodes(data):
    blob = _real_entry()
    cut = data.draw(st.integers(0, len(blob) - 1))
    with pytest.raises(CacheCorruption):
        decode_set(blob[:cut], "505.mcf_r", 0)


@FUZZ
@given(data=st.data())
def test_no_single_byte_change_of_a_set_entry_decodes(data):
    blob = _real_entry()
    pos = data.draw(st.integers(0, len(blob) - 1))
    value = data.draw(st.integers(0, 255).filter(lambda v: v != blob[pos]))
    damaged = bytearray(blob)
    damaged[pos] = value
    with pytest.raises(CacheCorruption):
        decode_set(bytes(damaged), "505.mcf_r", 0)


def test_damaged_set_entry_is_quarantined_and_the_set_regenerated(tmp_path, monkeypatch):
    store = ArtifactStore(tmp_path)
    with Session(cache=store) as s:
        cold = s.characterize("505.mcf_r").characterization.table2_row()
    path = store.sets._path(set_key("505.mcf_r", 0))
    path.write_bytes(path.read_bytes()[:-1])
    calls = _counting_generation(monkeypatch)
    with metrics.collector(metrics.MetricsRegistry()) as reg:
        with Session(cache=store) as s:
            warm = s.characterize("505.mcf_r").characterization.table2_row()
    assert warm == cold
    assert calls == ["505.mcf_r"]
    assert reg.value(CACHE_EVENTS_TOTAL, store="set", event="quarantined") == 1
    assert store.sets.quarantined_entries() == 1
    assert store.sets.get(set_key("505.mcf_r", 0), "505.mcf_r", 0) is not None
    assert s.summary.quarantined == 1


# -------------------------------------------------------- warm passes


def _counting_generation(monkeypatch) -> list[str]:
    """Count set generations by the engine, by ``Session`` itself, and by
    the FDO and study modules (a function-level import reads the
    registry's attribute)."""
    calls: list[str] = []
    generate = engine.alberta_workloads

    def counted(benchmark_id, base_seed=0):
        calls.append(benchmark_id)
        return generate(benchmark_id, base_seed)

    monkeypatch.setattr(engine, "alberta_workloads", counted)
    for module in RESOLVERS:
        monkeypatch.setattr(module, "alberta_workloads", counted, raising=False)
    return calls


def _suite_rows(store: ArtifactStore, workers: int) -> tuple[list, metrics.MetricsRegistry]:
    with metrics.collector(metrics.MetricsRegistry()) as reg:
        with Session(workers=workers, cache=store) as s:
            result = s.characterize_suite(ids=FAST_IDS)
    return [json.dumps(c.table2_row()) for c in result.characterizations], reg


@pytest.mark.parametrize("workers", [1, 2])
def test_fully_warm_suite_generates_nothing_and_matches_cold(tmp_path, monkeypatch, workers):
    store = ArtifactStore(tmp_path)
    cold, cold_reg = _suite_rows(store, workers)
    assert cold_reg.value(CACHE_EVENTS_TOTAL, store="set", event="miss") == len(FAST_IDS)
    calls = _counting_generation(monkeypatch)
    warm, reg = _suite_rows(store, workers)
    assert warm == cold
    assert calls == []
    assert reg.value(CACHE_EVENTS_TOTAL, store="set", event="miss") is None
    assert reg.value(CACHE_EVENTS_TOTAL, store="set", event="hit") == len(FAST_IDS)
    n_workloads = sum(len(alberta_workloads(b)) for b in FAST_IDS)
    assert reg.value(CACHE_EVENTS_TOTAL, store="profile", event="hit") == n_workloads


def test_warm_capture_by_name_generates_nothing(tmp_path, monkeypatch):
    store = ArtifactStore(tmp_path)
    with Session(cache=store) as s:
        cold = s.capture_set("505.mcf_r")  # captures and a set entry
    calls = _counting_generation(monkeypatch)
    with Session(cache=store) as s:
        warm = s.capture("505.mcf_r", "mcf.refrate")
        with pytest.raises(UnknownScenarioError, match="mcf.nope") as unknown:
            s.capture("505.mcf_r", "mcf.nope")
    assert calls == []
    assert s.summary.captures == 0
    (want,) = [c for c in cold if c.workload == "mcf.refrate"]
    assert warm.methods == want.methods
    assert all(np.array_equal(a, b) for a, b in zip(warm.columns, want.columns))
    assert set(unknown.value.known) == set(alberta_workloads("505.mcf_r").names())


def test_warm_sweep_generates_nothing(tmp_path, monkeypatch):
    store = ArtifactStore(tmp_path)
    request = SweepRequest("505.mcf_r", MachineGrid.from_presets("default", "i7-6700k"))
    with Session(cache=store) as s:
        s.capture_set("505.mcf_r")  # the sweep fixture: captures and a set entry
    calls = _counting_generation(monkeypatch)
    with metrics.collector(metrics.MetricsRegistry()) as reg:
        with Session(cache=store) as s:
            first = s.characterize_sweep(request)
        with Session(cache=store) as s:
            second = s.characterize_sweep(request)
    assert calls == []
    assert reg.value(CACHE_EVENTS_TOTAL, store="set", event="miss") is None
    assert reg.value(CACHE_EVENTS_TOTAL, store="capture", event="hit") == 7
    rows = [[c.table2_row() for c in r.characterizations] for r in (first, second)]
    assert rows[0] == rows[1]
    with Session() as s:
        fresh = s.characterize_sweep(request)
    assert rows[0] == [c.table2_row() for c in fresh.characterizations]


def test_warm_fdo_and_studies_generate_nothing(tmp_path, monkeypatch):
    from repro.fdo.evaluation import cross_validate, single_workload_methodology
    from repro.studies.compiler_variation import compiler_variation
    from repro.studies.similarity import collect_features

    store = ArtifactStore(tmp_path)
    with Session(cache=store) as s:
        s.capture_set("505.mcf_r")  # captures and a set entry
    calls = _counting_generation(monkeypatch)
    with Session(cache=store) as s:
        single = single_workload_methodology("505.mcf_r", session=s)
        cv = cross_validate("505.mcf_r", max_workloads=3, session=s)
        compiler_variation("505.mcf_r", max_workloads=3, session=s)
        features = collect_features("505.mcf_r", session=s)
    assert calls == []
    assert s.summary.captures == 0
    with Session() as s:
        assert single == single_workload_methodology("505.mcf_r", session=s)
        assert cv.results == cross_validate("505.mcf_r", max_workloads=3, session=s).results
        assert features.as_dict() == collect_features("505.mcf_r", session=s).as_dict()


def test_a_cell_that_executes_generates_its_set_once(tmp_path, monkeypatch):
    store = ArtifactStore(tmp_path)
    cold, _ = _suite_rows(store, 1)
    victim = alberta_workloads("505.mcf_r")[2]
    for key in (cache_key("505.mcf_r", victim), capture_key("505.mcf_r", victim)):
        for s in (store.profiles, store.captures):
            s._path(key).unlink(missing_ok=True)
    calls = _counting_generation(monkeypatch)
    warm, _ = _suite_rows(store, 1)
    assert warm == cold
    assert calls == ["505.mcf_r"]


def test_set_store_is_not_profile_traffic(tmp_path):
    sets = SetStore(tmp_path)
    with metrics.collector(metrics.MetricsRegistry()) as reg:
        assert sets.get("ab" + "0" * 62, "505.mcf_r", 0) is None
        sets.put("ab" + "0" * 62, "505.mcf_r", 0, ["a", "b"])
        assert sets.get("ab" + "0" * 62, "505.mcf_r", 0) == ["a", "b"]
    assert reg.value(CACHE_EVENTS_TOTAL, store="set", event="miss") == 1
    assert reg.value(CACHE_EVENTS_TOTAL, store="set", event="hit") == 1
    assert reg.value(CACHE_EVENTS_TOTAL, store="profile", event="miss") is None
