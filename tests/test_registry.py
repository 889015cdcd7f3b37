"""Registry invariants: identity, enumeration, capabilities, plugins.

Four layers of guarantees for :mod:`repro.core.registry`:

* descriptors are value objects — fingerprints are cross-process
  stable, and malformed or colliding registrations are rejected at
  load time;
* every built-in benchmark / generator module actually registers
  (the lint test fails when a new module skips the decorator);
* capability flags are enforced before anything runs;
* plugins load through ``importlib.metadata`` entry points, can be
  disabled via the environment, and unknown scenario ids surface
  typed errors with near-miss suggestions (CLI exit code 2).

No descriptor field keys a stored artifact: ``tests/test_code_keys.py``
checks that keys follow the code instead.
"""

from __future__ import annotations

import dataclasses
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.errors import RegistrationError, UnknownScenarioError, WorkloadError
from repro.core.registry import (
    CAP_CAPTURE_ONLY,
    CAP_IN_TABLE2,
    CAP_SWEEPABLE,
    DISABLE_PLUGINS_ENV,
    REGISTRY,
    Descriptor,
    alberta_workloads,
    benchmark_ids,
)
from repro.core.run import Session
from repro.core.sweep import MachineGrid, SweepRequest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PLUGIN_SRC = REPO / "examples" / "repro-plugin-demo" / "src"


# --------------------------------------------------------------------------
# descriptor identity
# --------------------------------------------------------------------------


class TestDescriptorIdentity:
    def test_fingerprint_ignores_origin_and_factory(self) -> None:
        a = Descriptor(kind="benchmark", id="x", suite="int")
        b = dataclasses.replace(a, origin="plugin:demo", factory=object)
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_tracks_declared_identity(self) -> None:
        a = Descriptor(kind="benchmark", id="x", suite="int")
        for changed in (
            dataclasses.replace(a, kind="generator"),
            dataclasses.replace(a, id="y"),
            dataclasses.replace(a, suite="fp"),
            dataclasses.replace(a, capabilities=frozenset({"z"})),
        ):
            assert changed.fingerprint() != a.fingerprint()

    def test_fingerprint_is_cross_process_stable(self) -> None:
        d = Descriptor(
            kind="generator",
            id="505.mcf_r",
            suite="int",
            capabilities=frozenset({"refrate", "sweepable"}),
        )
        code = (
            "from repro.core.registry import Descriptor\n"
            "d = Descriptor(kind='generator', id='505.mcf_r',"
            " suite='int', capabilities=frozenset({'refrate', 'sweepable'}))\n"
            "print(d.fingerprint())"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert out.stdout.strip() == d.fingerprint()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "nonsense", "id": "x"},
            {"kind": "benchmark", "id": ""},
            {"kind": "benchmark", "id": 3},
            {"kind": "benchmark", "id": "x", "factory": 3},
            {"kind": "benchmark", "id": "x", "suite": ""},
            {"kind": "benchmark", "id": "x", "capabilities": frozenset({""})},
            {"kind": "benchmark", "id": "x", "origin": ""},
        ],
    )
    def test_malformed_descriptors_rejected(self, kwargs: dict) -> None:
        with pytest.raises(RegistrationError):
            Descriptor(**kwargs)

    def test_deserialized_descriptor_has_no_factory(self) -> None:
        d = Descriptor(kind="benchmark", id="x", suite="int")
        with pytest.raises(RegistrationError, match="without a factory"):
            d.create()


# --------------------------------------------------------------------------
# registration rules
# --------------------------------------------------------------------------


class TestRegistrationRules:
    def test_identical_reregistration_is_noop(self) -> None:
        existing = REGISTRY.get("benchmark", "505.mcf_r")
        again = REGISTRY.register(dataclasses.replace(existing))
        assert again == existing
        assert REGISTRY.get("benchmark", "505.mcf_r") == existing

    def test_conflicting_reregistration_collides(self) -> None:
        existing = REGISTRY.get("benchmark", "505.mcf_r")
        with pytest.raises(RegistrationError, match="already registered"):
            REGISTRY.register(
                dataclasses.replace(
                    existing, capabilities=existing.capabilities | {"conflicting"}
                )
            )
        # the collision must not have clobbered the original
        assert REGISTRY.get("benchmark", "505.mcf_r") == existing

    def test_get_unknown_raises_typed_error_with_suggestion(self) -> None:
        with pytest.raises(UnknownScenarioError) as exc:
            REGISTRY.get("benchmark", "505.mfc_r")
        assert "505.mcf_r" in exc.value.suggestions
        assert "did you mean" in str(exc.value)
        assert exc.value.kind == "benchmark"
        assert exc.value.scenario_id == "505.mfc_r"

    def test_alberta_workloads_unknown_names_benchmark(self) -> None:
        with pytest.raises(UnknownScenarioError, match="unknown benchmark"):
            alberta_workloads("999.nope_r")

    def test_override_restores_previous_descriptor(self) -> None:
        before = REGISTRY.get("benchmark", "505.mcf_r")
        capture_only = frozenset({CAP_CAPTURE_ONLY})
        with REGISTRY.override(dataclasses.replace(before, capabilities=capture_only)):
            assert REGISTRY.get("benchmark", "505.mcf_r").capabilities == capture_only
        assert REGISTRY.get("benchmark", "505.mcf_r") == before


# --------------------------------------------------------------------------
# built-in coverage lint + grep gate
# --------------------------------------------------------------------------

_BENCH_SKIP = {"__init__", "base"}
_GEN_SKIP = {"__init__", "base", "manifest"}


class TestBuiltinCoverage:
    """Fail when a module is added without registering a descriptor."""

    def _registered_modules(self, kind: str) -> set[str]:
        return {
            d.factory.__module__
            for d in REGISTRY.descriptors(kind)
            if d.origin == "builtin" and d.factory is not None
        }

    def test_every_benchmark_module_registers(self) -> None:
        import repro.benchmarks

        modules = self._registered_modules("benchmark")
        for info in pkgutil.iter_modules(repro.benchmarks.__path__):
            if info.name in _BENCH_SKIP:
                continue
            assert f"repro.benchmarks.{info.name}" in modules, (
                f"repro/benchmarks/{info.name}.py defines no registered "
                "benchmark — add @register_benchmark"
            )

    def test_every_generator_module_registers(self) -> None:
        import repro.workloads

        modules = self._registered_modules("generator")
        for info in pkgutil.iter_modules(repro.workloads.__path__):
            if info.name in _GEN_SKIP:
                continue
            assert f"repro.workloads.{info.name}" in modules, (
                f"repro/workloads/{info.name}.py defines no registered "
                "generator — add @register_generator"
            )

    def test_benchmark_and_generator_ids_pair_up(self) -> None:
        assert REGISTRY.ids("benchmark") == REGISTRY.ids("generator")

    def test_expected_population(self) -> None:
        ids = benchmark_ids()
        assert len(ids) >= 16
        assert "505.mcf_r" in ids
        assert "525.x264_r" not in benchmark_ids(table2_only=True)
        assert set(benchmark_ids(suite="int")) | set(benchmark_ids(suite="fp")) == set(
            ids
        )
        in_table2 = REGISTRY.ids("benchmark", capability=CAP_IN_TABLE2)
        assert "505.mcf_r" in in_table2 and "525.x264_r" not in in_table2


# --------------------------------------------------------------------------
# capability enforcement
# --------------------------------------------------------------------------


class TestCapabilityEnforcement:
    def test_capture_only_benchmark_rejected_by_sweep(self) -> None:
        existing = REGISTRY.get("benchmark", "505.mcf_r")
        capture_only = dataclasses.replace(
            existing,
            capabilities=frozenset({CAP_CAPTURE_ONLY}),
        )
        request = SweepRequest(
            benchmark="505.mcf_r", grid=MachineGrid.from_machines([None])
        )
        with REGISTRY.override(capture_only):
            with Session() as s:
                with pytest.raises(WorkloadError, match="capture-only"):
                    s.characterize_sweep(request)

    def test_unregistered_benchmarks_are_unconstrained(self) -> None:
        from repro.core.engine import _require_capability

        _require_capability("999.adhoc_x", CAP_SWEEPABLE, stage="test")

    def test_builtins_are_sweepable(self) -> None:
        for bid in benchmark_ids():
            assert CAP_SWEEPABLE in REGISTRY.get("benchmark", bid).capabilities


# --------------------------------------------------------------------------
# plugins
# --------------------------------------------------------------------------


def _fake_install(tmp_path: Path) -> str:
    """Materialize entry-point metadata for the example plugin.

    Writes a ``.dist-info`` next to nothing on ``sys.path`` — adding the
    directory to ``PYTHONPATH`` makes ``importlib.metadata`` discover the
    distribution exactly as a real ``pip install`` would, without pip.
    """
    dist = tmp_path / "repro_plugin_demo-1.0.0.dist-info"
    dist.mkdir()
    (dist / "METADATA").write_text(
        "Metadata-Version: 2.1\nName: repro-plugin-demo\nVersion: 1.0.0\n"
    )
    (dist / "entry_points.txt").write_text(
        "[repro.plugins]\ndemo = repro_plugin_demo\n"
    )
    return os.pathsep.join([str(SRC), str(PLUGIN_SRC), str(tmp_path)])


class TestPlugins:
    def _run(self, code: str, pythonpath: str, **env: str) -> str:
        # strip the disable knob from the inherited environment so each
        # subprocess controls plugin loading explicitly (the CI plugin
        # job runs tier-1 under REPRO_DISABLE_PLUGINS=1)
        base = {k: v for k, v in os.environ.items() if k != DISABLE_PLUGINS_ENV}
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**base, "PYTHONPATH": pythonpath, **env},
        )
        return out.stdout

    def test_entry_point_plugin_loads(self, tmp_path: Path) -> None:
        pythonpath = _fake_install(tmp_path)
        out = self._run(
            "from repro.core.registry import REGISTRY\n"
            "d = REGISTRY.get('benchmark', '901.collatz_x')\n"
            "print(d.origin)\n"
            "print(REGISTRY.get('machine', 'demo-tiny').origin)\n"
            "p, = REGISTRY.plugins()\n"
            "print(p.name, sorted(p.descriptors))\n",
            pythonpath,
        )
        lines = out.splitlines()
        assert lines[0] == "plugin:demo"
        assert lines[1] == "plugin:demo"
        assert lines[2] == (
            "demo ['benchmark:901.collatz_x', 'fdo_build:demo-boost',"
            " 'generator:901.collatz_x', 'machine:demo-tiny']"
        )

    def test_disable_env_skips_entry_points(self, tmp_path: Path) -> None:
        pythonpath = _fake_install(tmp_path)
        out = self._run(
            "from repro.core.registry import REGISTRY\n"
            "print(len(REGISTRY.plugins()))\n"
            "print(REGISTRY.find('benchmark', '901.collatz_x'))\n",
            pythonpath,
            **{DISABLE_PLUGINS_ENV: "1"},
        )
        assert out.splitlines() == ["0", "None"]

    def test_plugin_benchmark_runs_pipeline_with_own_cache_keys(
        self, tmp_path: Path
    ) -> None:
        pythonpath = _fake_install(tmp_path)
        code = (
            "from pathlib import Path\n"
            "from repro.core.run import Session\n"
            "from repro.core.sweep import MachineGrid, SweepRequest\n"
            "from repro.core.trace import summarize_trace\n"
            "from repro.core.registry import alberta_workloads\n"
            "wl = [w for w in alberta_workloads('901.collatz_x')"
            " if w.name == 'collatz.test']\n"
            "req = SweepRequest(benchmark='901.collatz_x',"
            " grid=MachineGrid.from_presets('default', 'demo-tiny'))\n"
            f"base = Path({str(tmp_path)!r})\n"
            "with Session(cache=base / 'store', trace=base / 't.jsonl') as s:\n"
            "    result = s.characterize_sweep(req, workloads=wl)\n"
            "summary = summarize_trace(base / 't.jsonl')\n"
            "print(summary.captures, summary.replays)\n"
            "print(len(list((base / 'store').rglob('*.prof'))) > 0)\n"
        )
        out = self._run(code, pythonpath)
        captures_replays, has_artifacts = out.splitlines()
        assert captures_replays == "1 2"  # capture once, replay per config
        assert has_artifacts == "True"

    def test_plugin_fdo_build_end_to_end(self, tmp_path: Path) -> None:
        # A plugin-registered fdo_build resolves by name through
        # evaluate_pair, the build object keys the replay's profile
        # entry (its digest and its module's source), and the digest
        # lands in the run ledger's builds map.
        pythonpath = _fake_install(tmp_path)
        code = (
            "from pathlib import Path\n"
            "from repro.core.cache import cache_key\n"
            "from repro.core.ledger import RunLedger\n"
            "from repro.core.registry import REGISTRY, alberta_workloads\n"
            "from repro.core.run import Session\n"
            "from repro.fdo.evaluation import evaluate_pair, train_profile\n"
            "from repro_plugin_demo import CollatzFdoBuild\n"
            f"base = Path({str(tmp_path)!r})\n"
            "wl = {w.name: w for w in alberta_workloads('901.collatz_x')}\n"
            "with Session(cache=base / 'store', ledger=base / 'led') as s:\n"
            "    profile = train_profile('901.collatz_x', wl['collatz.train'],\n"
            "                            session=s)\n"
            "    r = evaluate_pair('901.collatz_x', wl['collatz.train'],\n"
            "                      wl['collatz.test'], profile=profile,\n"
            "                      build='demo-boost', session=s)\n"
            "    digest = s.engine.builds_used.get('demo-boost')\n"
            "print(r.speedup > 0)\n"
            "print(digest is not None and len(digest) > 0)\n"
            "key = cache_key('901.collatz_x', wl['collatz.test'],\n"
            "                build=CollatzFdoBuild(profile))\n"
            "bare = cache_key('901.collatz_x', wl['collatz.test'])\n"
            "print(key != bare)\n"
            "print((base / 'store' / key[:2] / (key + '.prof')).exists())\n"
            "record = RunLedger(base / 'led').resolve('latest')\n"
            "print(record['builds'].get('demo-boost') == digest)\n"
        )
        out = self._run(code, pythonpath)
        assert out.splitlines() == ["True"] * 5

    def test_in_process_load_plugin(self) -> None:
        # no .dist-info here: the module reaches the registry through the
        # explicit load_plugin() API, not entry-point discovery.  Runs in
        # a subprocess because the decorators target the process-global
        # REGISTRY singleton.
        pythonpath = os.pathsep.join([str(SRC), str(PLUGIN_SRC)])
        out = self._run(
            "from repro.core.registry import REGISTRY, load_plugin\n"
            "assert REGISTRY.plugins() == []\n"
            "info = load_plugin('repro_plugin_demo', name='demo')\n"
            "print(info.name, info.source, sorted(info.descriptors))\n"
            "print(REGISTRY.get('benchmark', '901.collatz_x').origin)\n",
            pythonpath,
        )
        lines = out.splitlines()
        assert lines[0] == (
            "demo repro_plugin_demo ['benchmark:901.collatz_x',"
            " 'fdo_build:demo-boost', 'generator:901.collatz_x',"
            " 'machine:demo-tiny']"
        )
        assert lines[1] == "plugin:demo"


# --------------------------------------------------------------------------
# CLI integration
# --------------------------------------------------------------------------


class TestCliIntegration:
    def test_unknown_benchmark_exits_2_with_suggestion(self, capsys) -> None:
        assert main(["report", "505.mfc_r"]) == 2
        err = capsys.readouterr().err
        assert "unknown" in err and "505.mcf_r" in err

    def test_unknown_preset_exits_2(self, capsys) -> None:
        assert main(["sweep", "505.mcf_r", "--machines", "i7-260"]) == 2
        err = capsys.readouterr().err
        assert "unknown machine preset" in err
        assert "i7-2600" in err  # near-miss suggestion

    def test_list_plugins_flag(self, capsys) -> None:
        assert main(["list", "--plugins"]) == 0
        assert "no plugins loaded" in capsys.readouterr().out
