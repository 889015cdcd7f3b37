"""Declarative sweep requests: :class:`MachineGrid` and :class:`SweepRequest`.

A sweep request is a value rather than a growing keyword list, and the
config *names* travel with the configs:

* :class:`MachineGrid` — an ordered, named set of
  :class:`~repro.machine.cost.MachineConfig` values.  Validated on
  construction (non-empty, names unique and aligned) and serializable
  (``to_dict``/``from_dict`` — the CLI's ``--grid FILE`` is exactly
  this JSON).
* :class:`SweepRequest` — the whole sweep as one validated value:
  benchmark, grid, seed, and whether to keep per-workload profiles.
  Its replays share one pass per workload
  (:func:`~repro.machine.batch.replay_capture_batched`).
* :class:`ReplayRequest` — the single-replay counterpart for
  ``Session.replay`` (machine/build/workload).  Not serializable:
  ``build`` and ``workload`` are live objects.

Cache identity: each swept *cell* is the member of its capture's
profile entry (:func:`~repro.core.cache.cache_key`) named by a digest
of its full machine config (``asdict(machine)``, geometry included),
so grids that contain the same config share stored profiles — batching
never fragments the cache: batched and per-config replay are
bit-identical.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from ..machine.cache import CacheGeometry
from ..machine.cost import MachineConfig
from .registry import machine_preset, machine_preset_names

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .workload import Workload

__all__ = ["MachineGrid", "SweepRequest", "ReplayRequest", "default_sweep_grid"]

#: ``ReplayRequest.machine`` default: "use the session engine's config"
#: (distinct from an explicit ``None``, which means the default config).
ENGINE_MACHINE: Any = object()


def _config_from_dict(data: Mapping[str, Any]) -> MachineConfig:
    kwargs = dict(data)
    if "geometry" in kwargs:
        geometry = kwargs["geometry"]
        if not isinstance(geometry, Mapping):
            raise ValueError(
                f"geometry must be an object, got {type(geometry).__name__}"
            )
        kwargs["geometry"] = CacheGeometry.from_dict(geometry)
    return MachineConfig(**kwargs)


@dataclass(frozen=True)
class MachineGrid:
    """An ordered, named set of machine configurations.

    ``names[i]`` labels ``machines[i]``; both orders are preserved
    everywhere downstream (``SweepResult.config_names``,
    ``profile_for``), so a grid defines the sweep's stable config
    ordering.  ``None`` machines normalize to the default config.
    """

    names: tuple[str, ...]
    machines: tuple[MachineConfig, ...]

    def __post_init__(self) -> None:
        names = tuple(self.names)
        machines = tuple(
            m if m is not None else MachineConfig() for m in self.machines
        )
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "machines", machines)
        if not names:
            raise ValueError("MachineGrid: need at least one config")
        if len(names) != len(machines):
            raise ValueError(
                f"MachineGrid: {len(names)} names for {len(machines)} machines"
            )
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"MachineGrid: duplicate config names {dupes}")
        for name, m in zip(names, machines):
            if not isinstance(name, str) or not name:
                raise ValueError(f"MachineGrid: config name {name!r} must be a non-empty string")
            if not isinstance(m, MachineConfig):
                raise ValueError(
                    f"MachineGrid: {name}: expected a MachineConfig, got {type(m).__name__}"
                )

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, name: str) -> MachineConfig:
        try:
            return self.machines[self.names.index(name)]
        except ValueError:
            raise KeyError(
                f"MachineGrid: no config named {name!r}; have {list(self.names)}"
            ) from None

    @classmethod
    def from_presets(cls, *names: str) -> "MachineGrid":
        """A grid of registered presets; ``"default"`` means the baseline.

        Names resolve through the scenario registry, so plugin-provided
        machine configs work here too; with no arguments the grid spans
        every registered preset.  Unknown names raise
        :class:`~repro.core.errors.UnknownScenarioError`.
        """
        if not names:
            names = tuple(machine_preset_names())
        machines = tuple(
            MachineConfig() if n == "default" else machine_preset(n) for n in names
        )
        return cls(names=tuple(names), machines=machines)

    @classmethod
    def from_machines(
        cls,
        machines: "Sequence[MachineConfig | None]",
        names: "Sequence[str] | None" = None,
    ) -> "MachineGrid":
        """Wrap a bare config list, auto-naming ``cfg0..cfgN-1`` if unnamed."""
        if names is None:
            names = tuple(f"cfg{i}" for i in range(len(machines)))
        return cls(names=tuple(names), machines=tuple(machines))

    def to_dict(self) -> dict[str, Any]:
        return {
            "configs": [
                {"name": n, **asdict(m)} for n, m in zip(self.names, self.machines)
            ]
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MachineGrid":
        rows = data.get("configs") if isinstance(data, Mapping) else None
        if not isinstance(rows, list) or not rows:
            raise ValueError("MachineGrid.from_dict: need a non-empty 'configs' list")
        names, machines = [], []
        for row in rows:
            row = dict(row)
            name = row.pop("name", None)
            if not name:
                raise ValueError("MachineGrid.from_dict: every config needs a 'name'")
            names.append(name)
            machines.append(_config_from_dict(row))
        return cls(names=tuple(names), machines=tuple(machines))


@dataclass(frozen=True)
class SweepRequest:
    """One machine-config sweep as a validated value.

    Workloads with two or more pending replays take the one-pass
    batched replay; a workload with one replays alone.  Results are
    bit-identical either way.
    """

    benchmark: str
    grid: MachineGrid
    base_seed: int = 0
    keep_profiles: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.benchmark, str) or not self.benchmark:
            raise ValueError("SweepRequest: benchmark must be a non-empty id")
        if not isinstance(self.grid, MachineGrid):
            raise ValueError(
                "SweepRequest: grid must be a MachineGrid "
                f"(got {type(self.grid).__name__})"
            )
        if not isinstance(self.base_seed, int) or isinstance(self.base_seed, bool):
            raise ValueError("SweepRequest: base_seed must be an int")


@dataclass(frozen=True)
class ReplayRequest:
    """One ``Session.replay`` call as a value.

    Not serializable by design: ``build`` (an FDO build) and
    ``workload`` are live objects; a replay request describes an
    in-process call, not an artifact.
    """

    machine: Any = ENGINE_MACHINE
    workload: "Workload | None" = None
    build: Any = None

    def __post_init__(self) -> None:
        if (
            self.machine is not ENGINE_MACHINE
            and self.machine is not None
            and not isinstance(self.machine, MachineConfig)
        ):
            raise ValueError(
                "ReplayRequest: machine must be a MachineConfig, None, or omitted"
            )


def default_sweep_grid() -> MachineGrid:
    """The 8-config benchmark grid shared by the sweep bench and perfbench.

    A predictor-sensitivity axis (both predictor kinds, three table
    sizes, three history depths) crossed with memory-sizing points
    (L1D capacity, LLC capacity up and down, dTLB reach) — the shape
    of sweep the characterization studies actually run.  The sizing
    points vary distinct levels of the hierarchy, so the batched path
    exercises per-level memo reuse as well as predictor-signature and
    whole-geometry grouping; line-size variation (which shares
    nothing) is covered by the sweep test grids instead.
    """
    return MachineGrid(
        names=(
            "default",
            "skylake-ish",
            "bimodal",
            "short-history",
            "small-l1",
            "big-llc",
            "small-llc",
            "small-tlb",
        ),
        machines=(
            MachineConfig(),
            MachineConfig(
                clock_ghz=4.2,
                predictor_table_bits=16,
                predictor_history_bits=14,
                mlp=6.0,
            ),
            MachineConfig(predictor="bimodal", predictor_table_bits=12),
            MachineConfig(predictor_table_bits=12, predictor_history_bits=8),
            MachineConfig(geometry=CacheGeometry(l1d_kib=16, l1d_assoc=4)),
            MachineConfig(geometry=CacheGeometry(llc_kib=16384)),
            MachineConfig(geometry=CacheGeometry(llc_kib=2048)),
            MachineConfig(geometry=CacheGeometry(dtlb_entries=32)),
        ),
    )
