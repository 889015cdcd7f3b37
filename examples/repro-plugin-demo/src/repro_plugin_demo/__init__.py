"""Example out-of-tree plugin: a Collatz trajectory mini-benchmark.

Demonstrates the full plugin contract of
:mod:`repro.core.registry` without touching any core module:

* a benchmark substrate (``901.collatz_x``) registered with the same
  :func:`~repro.core.registry.register_benchmark` decorator the
  built-ins use;
* a matching workload generator whose ``alberta_set`` includes a
  ``collatz.refrate`` workload, so the staged
  capture -> replay -> summarize pipeline (Table II row, refrate
  seconds, coverage) runs end-to-end;
* a plugin machine preset (``demo-tiny``) resolvable by name in
  ``MachineGrid.from_presets`` / ``repro sweep --machines``;
* a plugin FDO build (``demo-boost``) resolvable by name in
  ``repro.fdo.evaluation.evaluate_pair(..., build="demo-boost")`` —
  its content digest and this module's source join replay cache keys,
  and the digest the run ledger's ``builds`` map.

Loaded either via the ``repro.plugins`` entry point declared in this
package's ``pyproject.toml`` (importing this module runs the
decorators) or in-process::

    from repro.core.registry import load_plugin
    load_plugin("repro_plugin_demo", name="demo")

The workload payload is a plain dict of ints, so the content-addressed
cache fingerprints it exactly like the built-in payloads and the
plugin's artifacts land under their own keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.cache import payload_digest
from repro.core.registry import (
    register_benchmark,
    register_fdo_build,
    register_generator,
    register_machine_config,
)
from repro.core.workload import Workload, WorkloadKind, WorkloadSet
from repro.fdo.optimizer import FdoCostModel
from repro.fdo.profile_data import FdoProfile
from repro.machine.cost import MachineConfig
from repro.machine.telemetry import Probe
from repro.workloads.base import make_rng, workload

__all__ = ["CollatzBenchmark", "CollatzFdoBuild", "CollatzWorkloadGenerator"]

_MEMO_SLOTS = 4096


def _trajectory_length(n: int) -> int:
    """Reference Collatz step count, memo-free (used by verify)."""
    steps = 0
    while n != 1:
        n = 3 * n + 1 if n & 1 else n // 2
        steps += 1
    return steps


@register_benchmark(in_table2=False)
class CollatzBenchmark:
    """The ``901.collatz_x`` substrate: memoized trajectory lengths.

    The telemetry signature is deliberately branchy (the odd/even test
    is data-dependent and nearly 50/50) with scattered memo-table
    accesses — a small integer benchmark in the deepsjeng/leela mold.
    """

    name = "901.collatz_x"
    suite = "int"

    def run(self, workload: Workload, probe: Probe) -> dict[str, Any]:
        seeds = workload.payload["seeds"]
        memo: dict[int, int] = {1: 0}
        lengths: list[int] = []
        with probe.method("trajectory", code_bytes=384):
            for n in seeds:
                m = n
                path: list[int] = []
                while m not in memo:
                    path.append(m)
                    odd = bool(m & 1)
                    probe.branch(odd, site=1)
                    probe.ops(2)
                    m = 3 * m + 1 if odd else m // 2
                    probe.load((m % _MEMO_SLOTS) * 8)
                base = memo[m]
                for i, v in enumerate(reversed(path)):
                    memo[v] = base + i + 1
                    probe.store((v % _MEMO_SLOTS) * 8)
                lengths.append(memo[n])
        with probe.method("reduce", code_bytes=128):
            total = 0
            for length in lengths:
                probe.ops(1)
                total += length
            probe.count("trajectories", len(lengths))
        return {"lengths": lengths, "total": total, "max": max(lengths)}

    def verify(self, workload: Workload, output: dict[str, Any]) -> bool:
        seeds = workload.payload["seeds"]
        lengths = output["lengths"]
        if len(lengths) != len(seeds):
            return False
        # spot-check the first and last trajectories against the
        # memo-free reference, and the reduction against the list
        return (
            lengths[0] == _trajectory_length(seeds[0])
            and lengths[-1] == _trajectory_length(seeds[-1])
            and output["total"] == sum(lengths)
            and output["max"] == max(lengths)
        )


@register_generator
class CollatzWorkloadGenerator:
    """Fully procedural Collatz workloads (PROCEDURAL provenance)."""

    benchmark = "901.collatz_x"

    def generate(
        self,
        seed: int,
        *,
        count: int = 96,
        lo: int = 3,
        hi: int = 99_991,
        name: str | None = None,
    ) -> Workload:
        rng = make_rng(seed)
        seeds = [rng.randrange(lo, hi) for _ in range(count)]
        return workload(
            self.benchmark,
            name or f"collatz.s{seed}",
            {"seeds": seeds},
            kind=WorkloadKind.PROCEDURAL,
            seed=seed,
            count=count,
            lo=lo,
            hi=hi,
        )

    def alberta_set(self, base_seed: int = 0) -> WorkloadSet:
        ws = WorkloadSet(self.benchmark)
        ws.add(self.generate(base_seed, count=160, name="collatz.refrate"))
        ws.add(self.generate(base_seed + 1, count=48, name="collatz.train"))
        ws.add(self.generate(base_seed + 2, count=12, name="collatz.test"))
        for i in range(3):
            ws.add(
                self.generate(
                    base_seed + 10 + i,
                    count=64 + 32 * i,
                    name=f"collatz.alberta.{i + 1}",
                )
            )
        return ws


#: A plugin-provided machine preset, resolvable wherever registered
#: preset names are accepted (``MachineGrid.from_presets("demo-tiny")``,
#: ``repro sweep --machines demo-tiny``).
register_machine_config(
    "demo-tiny",
    MachineConfig(width=1, clock_ghz=1.0, predictor="bimodal", mlp=1.5),
)


@dataclass(frozen=True)
class CollatzFdoBuild:
    """A plugin-provided replay build transformation (``demo-boost``).

    Demonstrates the fourth descriptor kind: any object with a ``name``,
    a content ``digest()``, and a ``cost_model(machine)`` factory plugs
    into the replay stage — ``evaluate_pair(..., build="demo-boost")``
    resolves it by name exactly like the built-in ``"fdo"`` build.  The
    digest and this module's source join the replay cache key, and the
    digest the run ledger's ``builds`` map, so profiles replayed under
    this build never collide with baseline or stock-FDO entries.
    """

    profile: FdoProfile
    name: str = "demo-boost"

    def digest(self) -> str:
        return payload_digest({"build": self.name, "profile": self.profile})

    def cost_model(self, machine: MachineConfig | None = None) -> FdoCostModel:
        return FdoCostModel(self.profile, machine)


register_fdo_build("demo-boost", CollatzFdoBuild)


def register(registry: Any) -> None:
    """Optional explicit hook: the registry calls this after import.

    The decorators above have already registered everything by the time
    this runs, so the hook is a no-op — it exists to document the
    callable form of the contract (a plugin may do all its registration
    here instead of at import time).
    """
